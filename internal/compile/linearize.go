package compile

// The linearize pass: lowers each function's statement tree into the flat
// register form (ir.FlatFunc). The emitted order is the runtime's
// evaluation-order contract: operands left to right; every access as
// bounds check, access count and scheduler yield, sharing check, then the
// observed memory operation; a read-modify-write reads before it evaluates
// its right-hand side; builtin arguments in order, each C-string argument
// read as soon as it is evaluated. Check order, yield points and failure
// messages all follow from it, and the golden outputs under
// internal/interp/testdata/golden pin them: moving an instruction across
// another shows up there as a diff.
//
// Registers are allocated stack-wise: every expression nets exactly one
// register holding its value, and temporaries above it are released as
// they are consumed, so NumRegs is the expression-nesting high-water mark.
// The moves and dead results this leaves behind are removed by the last
// pass of the pipeline, regopt (regopt.go).
//
// Alongside the instructions the pass records elide events: the
// control-flow bookkeeping (availability snapshots at joins, kills at
// loop back-edges) that lets the flat elision pass replay the tree pass's
// decisions from a single linear scan. See elide.go's runFlat.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/token"
)

// Linearize attaches the flat form of every function to p as p.Flat.
func Linearize(p *ir.Program) {
	fp := &ir.FlatProgram{Funcs: make([]*ir.FlatFunc, len(p.Funcs))}
	for i, fn := range p.Funcs {
		fp.Funcs[i] = linearizeFunc(fn)
	}
	p.Flat = fp
}

// linScope is one enclosing loop or switch during lowering; break and
// continue emit forward jumps patched when the construct's end is known.
type linScope struct {
	isLoop bool
	breaks []int32 // instruction indexes whose target patches to the end
	conts  []int32 // loop only: patches to the continue point
}

type linz struct {
	fn     *ir.Func
	ff     *ir.FlatFunc
	next   int32 // first free register
	high   int32 // register high-water mark
	scopes []*linScope
	posIdx map[token.Pos]int64
	prom   []int32 // frame slot -> dedicated register, or -1
}

func linearizeFunc(fn *ir.Func) *ir.FlatFunc {
	l := &linz{
		fn:     fn,
		ff:     &ir.FlatFunc{PosTab: []token.Pos{{}}},
		posIdx: map[token.Pos]int64{{}: 0},
	}
	// Promoted slots occupy the low registers 0..P-1 for the whole
	// function; expression temporaries stack above them. Both the frame
	// slot and the register start zeroed (pushFrame zeroes the frame, the
	// VM zeroes its window), so no initialization moves are needed.
	l.prom = make([]int32, fn.FrameSize)
	for i := range l.prom {
		l.prom[i] = -1
	}
	for i, s := range promotableSlots(fn) {
		l.prom[s] = int32(i)
		l.next = int32(i) + 1
	}
	l.high = l.next
	l.stmts(fn.Body)
	// Implicit return when the body falls off the end (dead but harmless
	// after an explicit return; the verifier requires a terminating ret).
	// Imm=1 marks it so the VM yields the thread's return slot: a function
	// that falls off its end returns its most recently completed call's
	// value.
	r := l.alloc()
	l.emit(ir.Instr{Op: ir.FConst, A: r, Imm: 0})
	l.emit(ir.Instr{Op: ir.FRet, A: r, Imm: 1})
	l.free(1)
	l.ff.NumRegs = int(l.high)
	if l.ff.NumRegs == 0 {
		l.ff.NumRegs = 1
	}
	return l.ff
}

func (l *linz) alloc() int32 {
	r := l.next
	l.next++
	if l.next > l.high {
		l.high = l.next
	}
	return r
}

func (l *linz) free(n int32) { l.next -= n }

func (l *linz) emit(in ir.Instr) int32 {
	l.ff.Code = append(l.ff.Code, in)
	return int32(len(l.ff.Code) - 1)
}

// here is the index the next emitted instruction will occupy.
func (l *linz) here() int32 { return int32(len(l.ff.Code)) }

// patch sets the jump target operand of the instruction at idx to t.
func (l *linz) patch(idx, t int32) {
	in := &l.ff.Code[idx]
	if in.Op == ir.FJmp {
		in.A = t
	} else {
		in.B = t
	}
}

func (l *linz) event(op ir.EventOp) {
	l.ff.Events = append(l.ff.Events, ir.ElideEvent{PC: l.here(), Op: op})
}

func (l *linz) pos(p token.Pos) int64 {
	if idx, ok := l.posIdx[p]; ok {
		return idx
	}
	idx := int64(len(l.ff.PosTab))
	l.ff.PosTab = append(l.ff.PosTab, p)
	l.posIdx[p] = idx
	return idx
}

// chk records a check side-table entry and emits its FChk* instruction;
// checks of kind CheckNone emit nothing (the access still carries its site
// on the FLoad/FStore for the observer).
func (l *linz) chk(orig *ir.Check, addr ir.Expr, write bool, addrReg int32) {
	if orig.Kind == ir.CheckNone {
		return
	}
	var op ir.Op
	switch orig.Kind {
	case ir.CheckDynamic:
		op = ir.FChkRead
		if write {
			op = ir.FChkWrite
		}
	case ir.CheckLocked:
		op = ir.FChkLock
	case ir.CheckElided:
		op = ir.FChkElided
	}
	idx := int32(len(l.ff.Checks))
	l.ff.Checks = append(l.ff.Checks, ir.FlatCheck{Orig: orig, Addr: addr, Write: write})
	l.emit(ir.Instr{Op: op, A: addrReg, B: idx})
}

// kill records a write-invalidation entry for the elision pass.
func (l *linz) kill(addr ir.Expr) int64 {
	l.ff.Kills = append(l.ff.Kills, ir.KillInfo{Addr: addr})
	return int64(len(l.ff.Kills) - 1)
}

// promoted reports the dedicated register of a promoted direct-access
// address. All accesses through a promoted slot are CheckNone and
// barrier-free (promotableSlots guarantees it), so the callers can skip
// the whole access protocol: stack accesses never count, yield, or check.
func (l *linz) promoted(addr ir.Expr) (int32, bool) {
	if fa, ok := addr.(*ir.FrameAddr); ok {
		if r := l.prom[fa.Slot]; r >= 0 {
			return r, true
		}
	}
	return 0, false
}

// storeSeq emits the store half of the access protocol for the address in
// addrReg and the value in valReg: yield, write check, optional RC
// barrier, raw store.
func (l *linz) storeSeq(addrReg, valReg int32, chk *ir.Check, addr ir.Expr, barrier bool, p token.Pos) {
	l.emit(ir.Instr{Op: ir.FYield, A: addrReg, Imm: l.pos(p)})
	l.chk(chk, addr, true, addrReg)
	if barrier {
		l.emit(ir.Instr{Op: ir.FBarrier, A: addrReg, B: valReg})
	}
	l.emit(ir.Instr{Op: ir.FStore, A: addrReg, B: valReg, C: int32(chk.Site), Imm: l.kill(addr)})
}

// loadSeq emits the load half: yield, read check, observed raw load into
// dst.
func (l *linz) loadSeq(dst, addrReg int32, chk *ir.Check, addr ir.Expr, p token.Pos) {
	l.emit(ir.Instr{Op: ir.FYield, A: addrReg, Imm: l.pos(p)})
	l.chk(chk, addr, false, addrReg)
	l.emit(ir.Instr{Op: ir.FLoad, A: dst, B: addrReg, C: int32(chk.Site)})
}

// ---------------------------------------------------------------------------
// expressions

// expr generates code leaving x's value in the returned register, which is
// always the caller's current stack top (net allocation of exactly one).
func (l *linz) expr(x ir.Expr) int32 {
	switch v := x.(type) {
	case *ir.Const:
		r := l.alloc()
		l.emit(ir.Instr{Op: ir.FConst, A: r, Imm: v.V})
		return r
	case *ir.StrAddr:
		r := l.alloc()
		l.emit(ir.Instr{Op: ir.FStr, A: r, B: int32(v.Idx)})
		return r
	case *ir.FrameAddr:
		r := l.alloc()
		l.emit(ir.Instr{Op: ir.FFrame, A: r, B: int32(v.Slot)})
		return r
	case *ir.FuncVal:
		r := l.alloc()
		l.emit(ir.Instr{Op: ir.FFunc, A: r, B: int32(v.Index)})
		return r
	case *ir.Load:
		if pr, ok := l.promoted(v.Addr); ok {
			r := l.alloc()
			l.emit(ir.Instr{Op: ir.FMove, A: r, B: pr})
			return r
		}
		ra := l.expr(v.Addr)
		l.loadSeq(ra, ra, &v.Chk, v.Addr, token.Pos{})
		return ra
	case *ir.Bin:
		rl := l.expr(v.L)
		rr := l.expr(v.R)
		l.emit(ir.Instr{Op: flatBinOp(v.Op), A: rl, B: rl, C: rr, Imm: l.pos(v.Pos)})
		l.free(1)
		return rl
	case *ir.Un:
		rx := l.expr(v.X)
		var op ir.Op
		switch v.Op {
		case ir.UnNeg:
			op = ir.FNeg
		case ir.UnNot:
			op = ir.FNot
		case ir.UnBitNot:
			op = ir.FBitNot
		}
		l.emit(ir.Instr{Op: op, A: rx, B: rx})
		return rx
	case *ir.Logic:
		rl := l.expr(v.L)
		var jshort int32
		if v.Or {
			jshort = l.emit(ir.Instr{Op: ir.FJmpNZ, A: rl})
		} else {
			jshort = l.emit(ir.Instr{Op: ir.FJmpZ, A: rl})
		}
		l.event(ir.EvSnap)
		rr := l.expr(v.R)
		l.emit(ir.Instr{Op: ir.FSetNZ, A: rl, B: rr})
		l.free(1)
		if v.Or {
			// The short-circuit result of || is the literal 1, not L.
			jend := l.emit(ir.Instr{Op: ir.FJmp})
			l.patch(jshort, l.here())
			l.emit(ir.Instr{Op: ir.FConst, A: rl, Imm: 1})
			l.patch(jend, l.here())
		} else {
			// && short-circuits only when L == 0, which is already the
			// result value.
			l.patch(jshort, l.here())
		}
		l.event(ir.EvIntersect)
		return rl
	case *ir.CondE:
		rc := l.expr(v.C)
		jelse := l.emit(ir.Instr{Op: ir.FJmpZ, A: rc})
		l.event(ir.EvSnap)
		rt := l.expr(v.T)
		l.emit(ir.Instr{Op: ir.FMove, A: rc, B: rt})
		l.free(1)
		jend := l.emit(ir.Instr{Op: ir.FJmp})
		l.patch(jelse, l.here())
		l.event(ir.EvSwapSnap)
		rf := l.expr(v.F)
		l.emit(ir.Instr{Op: ir.FMove, A: rc, B: rf})
		l.free(1)
		l.patch(jend, l.here())
		l.event(ir.EvIntersect)
		return rc
	case *ir.Store:
		if pr, ok := l.promoted(v.Addr); ok {
			rv := l.expr(v.Val)
			l.emit(ir.Instr{Op: ir.FKill, Imm: l.kill(v.Addr)})
			l.emit(ir.Instr{Op: ir.FMove, A: pr, B: rv})
			return rv
		}
		ra := l.expr(v.Addr)
		rv := l.expr(v.Val)
		l.storeSeq(ra, rv, &v.Chk, v.Addr, v.Barrier, token.Pos{})
		l.emit(ir.Instr{Op: ir.FMove, A: ra, B: rv})
		l.free(1)
		return ra
	case *ir.IncDec:
		if pr, ok := l.promoted(v.Addr); ok {
			old := l.alloc()
			l.emit(ir.Instr{Op: ir.FMove, A: old, B: pr})
			nv := l.alloc()
			l.emit(ir.Instr{Op: ir.FConst, A: nv, Imm: v.Delta})
			l.emit(ir.Instr{Op: ir.FAdd, A: nv, B: old, C: nv})
			l.emit(ir.Instr{Op: ir.FKill, Imm: l.kill(v.Addr)})
			l.emit(ir.Instr{Op: ir.FMove, A: pr, B: nv})
			if !v.Post {
				l.emit(ir.Instr{Op: ir.FMove, A: old, B: nv})
			}
			l.free(1)
			return old
		}
		ra := l.expr(v.Addr)
		old := l.alloc()
		l.loadSeq(old, ra, &v.ChkR, v.Addr, token.Pos{})
		nv := l.alloc()
		l.emit(ir.Instr{Op: ir.FConst, A: nv, Imm: v.Delta})
		l.emit(ir.Instr{Op: ir.FAdd, A: nv, B: old, C: nv})
		l.storeSeq(ra, nv, &v.ChkW, v.Addr, v.Barrier, token.Pos{})
		if v.Post {
			l.emit(ir.Instr{Op: ir.FMove, A: ra, B: old})
		} else {
			l.emit(ir.Instr{Op: ir.FMove, A: ra, B: nv})
		}
		l.free(2)
		return ra
	case *ir.Compound:
		if pr, ok := l.promoted(v.Addr); ok {
			// The old value is read before the RHS evaluates.
			old := l.alloc()
			l.emit(ir.Instr{Op: ir.FMove, A: old, B: pr})
			rr := l.expr(v.RHS)
			l.emit(ir.Instr{Op: flatBinOp(v.Op), A: old, B: old, C: rr, Imm: l.pos(v.Pos)})
			l.free(1)
			l.emit(ir.Instr{Op: ir.FKill, Imm: l.kill(v.Addr)})
			l.emit(ir.Instr{Op: ir.FMove, A: pr, B: old})
			return old
		}
		ra := l.expr(v.Addr)
		old := l.alloc()
		l.loadSeq(old, ra, &v.ChkR, v.Addr, v.Pos)
		rr := l.expr(v.RHS)
		l.emit(ir.Instr{Op: flatBinOp(v.Op), A: old, B: old, C: rr, Imm: l.pos(v.Pos)})
		l.storeSeq(ra, old, &v.ChkW, v.Addr, v.Barrier, v.Pos)
		l.emit(ir.Instr{Op: ir.FMove, A: ra, B: old})
		l.free(2)
		return ra
	case *ir.Call:
		base := l.next
		ci := ir.CallInfo{Target: v.Target, FnReg: -1, Pos: v.Pos}
		for _, a := range v.Args {
			ci.Args = append(ci.Args, l.expr(a))
		}
		if v.Fn != nil {
			ci.FnReg = l.expr(v.Fn)
		}
		idx := int32(len(l.ff.Calls))
		l.ff.Calls = append(l.ff.Calls, ci)
		l.next = base
		dst := l.alloc()
		l.emit(ir.Instr{Op: ir.FCall, A: dst, B: idx})
		return dst
	case *ir.BuiltinCall:
		base := l.next
		idx := int32(len(l.ff.Builtins))
		l.ff.Builtins = append(l.ff.Builtins, ir.BuiltinInfo{E: v})
		var args []int32
		for i, a := range v.Args {
			r := l.expr(a)
			args = append(args, r)
			if ai, ok := cstringArg(v.Name, i); ok {
				// Read the string as soon as its argument is evaluated,
				// before later arguments.
				l.emit(ir.Instr{Op: ir.FCString, A: r, B: idx, C: ai})
			}
		}
		l.ff.Builtins[idx].Args = args
		l.next = base
		dst := l.alloc()
		l.emit(ir.Instr{Op: ir.FBuiltin, A: dst, B: idx})
		return dst
	case *ir.Scast:
		ra := l.expr(v.Addr)
		idx := int32(len(l.ff.Scasts))
		l.ff.Scasts = append(l.ff.Scasts, v)
		l.emit(ir.Instr{Op: ir.FScast, A: ra, B: ra, C: idx})
		return ra
	}
	panic(fmt.Sprintf("linearize: unhandled expression %T", x))
}

// cstringArg says whether builtin name reads argument i as a C string at
// the point the argument has just been evaluated.
func cstringArg(name string, i int) (int32, bool) {
	switch name {
	case "print", "strlen":
		if i == 0 {
			return 0, true
		}
	case "strcmp", "strstr":
		if i == 0 || i == 1 {
			return int32(i), true
		}
	}
	return 0, false
}

func flatBinOp(op ir.OpKind) ir.Op {
	return ir.FAdd + ir.Op(op-ir.OpAdd)
}

// ---------------------------------------------------------------------------
// statements

func (l *linz) stmts(ss []ir.Stmt) {
	for _, s := range ss {
		l.stmt(s)
	}
}

func (l *linz) stmt(s ir.Stmt) {
	switch v := s.(type) {
	case *ir.SExpr:
		l.expr(v.E)
		l.free(1)
	case *ir.SIf:
		rc := l.expr(v.C)
		jelse := l.emit(ir.Instr{Op: ir.FJmpZ, A: rc})
		l.free(1)
		l.event(ir.EvSnap)
		l.stmts(v.Then)
		if len(v.Else) > 0 {
			jend := l.emit(ir.Instr{Op: ir.FJmp})
			l.patch(jelse, l.here())
			l.event(ir.EvSwapSnap)
			l.stmts(v.Else)
			l.patch(jend, l.here())
		} else {
			l.patch(jelse, l.here())
			l.event(ir.EvSwapSnap)
		}
		l.event(ir.EvIntersect)
	case *ir.SLoop:
		l.lowerLoop(v)
	case *ir.SReturn:
		var r int32
		if v.E != nil {
			r = l.expr(v.E)
		} else {
			r = l.alloc()
			l.emit(ir.Instr{Op: ir.FConst, A: r, Imm: 0})
		}
		l.emit(ir.Instr{Op: ir.FRet, A: r})
		l.free(1)
	case *ir.SBreak:
		for i := len(l.scopes) - 1; i >= 0; i-- {
			sc := l.scopes[i]
			sc.breaks = append(sc.breaks, l.emit(ir.Instr{Op: ir.FJmp}))
			return
		}
		panic("linearize: break outside loop or switch")
	case *ir.SContinue:
		for i := len(l.scopes) - 1; i >= 0; i-- {
			if sc := l.scopes[i]; sc.isLoop {
				sc.conts = append(sc.conts, l.emit(ir.Instr{Op: ir.FJmp}))
				return
			}
		}
		panic("linearize: continue outside loop")
	case *ir.SSwitch:
		l.lowerSwitch(v)
	default:
		panic(fmt.Sprintf("linearize: unhandled statement %T", s))
	}
}

func (l *linz) lowerLoop(v *ir.SLoop) {
	brk, cont := loopEscapes(v.Body)
	sc := &linScope{isLoop: true}
	top := l.here()
	l.event(ir.EvKillAll) // the back edge may carry any subset
	if v.PostFirst {
		// do-while: body, continue point, post, condition, back edge.
		l.scopes = append(l.scopes, sc)
		l.stmts(v.Body)
		l.scopes = l.scopes[:len(l.scopes)-1]
		if cont {
			l.event(ir.EvKillAll)
		}
		lcont := l.here()
		if v.Post != nil {
			l.expr(v.Post)
			l.free(1)
		}
		if v.Cond != nil {
			rc := l.expr(v.Cond)
			l.emit(ir.Instr{Op: ir.FJmpNZ, A: rc, B: top})
			l.free(1)
		} else {
			l.emit(ir.Instr{Op: ir.FJmp, A: top})
		}
		for _, j := range sc.conts {
			l.patch(j, lcont)
		}
		lend := l.here()
		for _, j := range sc.breaks {
			l.patch(j, lend)
		}
		if v.Cond == nil || brk {
			l.event(ir.EvKillAll)
		}
		return
	}
	// while: condition, body, continue point, post, back edge. Availability
	// at the normal exit is the condition's own (EvSnap/EvRestore pair).
	var jexit int32 = -1
	hasCond := v.Cond != nil
	if hasCond {
		rc := l.expr(v.Cond)
		jexit = l.emit(ir.Instr{Op: ir.FJmpZ, A: rc})
		l.free(1)
		l.event(ir.EvSnap)
	}
	l.scopes = append(l.scopes, sc)
	l.stmts(v.Body)
	l.scopes = l.scopes[:len(l.scopes)-1]
	if cont {
		l.event(ir.EvKillAll)
	}
	lcont := l.here()
	if v.Post != nil {
		l.expr(v.Post)
		l.free(1)
	}
	l.emit(ir.Instr{Op: ir.FJmp, A: top})
	lend := l.here()
	if jexit >= 0 {
		l.patch(jexit, lend)
	}
	for _, j := range sc.conts {
		l.patch(j, lcont)
	}
	for _, j := range sc.breaks {
		l.patch(j, lend)
	}
	if hasCond {
		l.event(ir.EvRestore)
	}
	if !hasCond || brk {
		l.event(ir.EvKillAll)
	}
}

func (l *linz) lowerSwitch(v *ir.SSwitch) {
	rx := l.expr(v.X)
	// Dispatch chain: first matching value arm, else the last default arm,
	// else past the switch.
	jumps := make([]int32, len(v.Arms))
	for i := range jumps {
		jumps[i] = -1
	}
	dflt := -1
	for i := range v.Arms {
		if v.IsDflt[i] {
			dflt = i
			continue
		}
		jumps[i] = l.emit(ir.Instr{Op: ir.FJmpEqImm, A: rx, Imm: v.Values[i]})
	}
	jmiss := l.emit(ir.Instr{Op: ir.FJmp})
	l.free(1)
	sc := &linScope{}
	l.scopes = append(l.scopes, sc)
	starts := make([]int32, len(v.Arms))
	for i, arm := range v.Arms {
		starts[i] = l.here()
		l.event(ir.EvStartEmpty) // fallthrough/dispatch joins
		l.stmts(arm)
	}
	l.scopes = l.scopes[:len(l.scopes)-1]
	lend := l.here()
	for i, j := range jumps {
		if j >= 0 {
			l.patch(j, starts[i])
		}
	}
	if dflt >= 0 {
		l.patch(jmiss, starts[dflt])
	} else {
		l.patch(jmiss, lend)
	}
	for _, j := range sc.breaks {
		l.patch(j, lend)
	}
	l.event(ir.EvKillAll)
}

// ---------------------------------------------------------------------------
// the pass pipeline

// Pass is one rewrite over the program's flat form. The pipeline runs the
// structural verifier after every pass so a bad rewrite fails at build
// time, not as a VM fault.
type Pass struct {
	Name string
	Run  func(p *ir.Program)
}

// pipeline is the standard lowering sequence for opts: linearize, the
// RC-site barrier strip, (when enabled) check elision over the linear
// form, access-window fusion into superinstructions, and finally the
// register cleanup (copy propagation, dead-code deletion, move folding;
// see regopt.go).
func pipeline(opts Options) []Pass {
	ps := []Pass{
		{Name: "linearize", Run: Linearize},
		{Name: "rcsite", Run: stripBarriers},
	}
	if opts.Elide && opts.Checks {
		ps = append(ps, Pass{Name: "elide", Run: func(p *ir.Program) {
			elideChecksWith(p, fullKills)
		}})
	}
	ps = append(ps,
		Pass{Name: "fuse", Run: fuseAccesses},
		Pass{Name: "regopt", Run: regopt},
	)
	return ps
}

func runPasses(p *ir.Program, passes []Pass) error {
	for _, pass := range passes {
		pass.Run(p)
		if err := p.Flat.Verify(p); err != nil {
			return fmt.Errorf("ir verification failed after pass %q: %v", pass.Name, err)
		}
	}
	return nil
}

// stripBarriers is the RC-site pass over the linear form: when the program
// tracks no sharing casts, no cell ever needs a reference count, so every
// FBarrier is dead and is deleted outright (the lowering already gates
// Store.Barrier on RCTracked; this keeps the invariant under hand-built
// or future-pass-produced programs too).
func stripBarriers(p *ir.Program) {
	if p.RCTracked {
		return
	}
	for _, ff := range p.Flat.Funcs {
		changed := false
		for i := range ff.Code {
			if ff.Code[i].Op == ir.FBarrier {
				ff.Code[i].Op = ir.FNop
				changed = true
			}
		}
		if changed {
			compactFlat(ff)
		}
	}
}

// compactFlat deletes FNop instructions in place, remapping jump targets
// and elide event anchors. Passes delete instructions by overwriting them
// with FNop and then compacting.
func compactFlat(ff *ir.FlatFunc) {
	n := len(ff.Code)
	newPC := make([]int32, n+1)
	var kept int32
	for i := 0; i < n; i++ {
		newPC[i] = kept
		if ff.Code[i].Op != ir.FNop {
			kept++
		}
	}
	newPC[n] = kept
	out := ff.Code[:0] // the write index never passes the read index
	for _, in := range ff.Code {
		if in.Op == ir.FNop {
			continue
		}
		switch in.Op {
		case ir.FJmp:
			in.A = newPC[in.A]
		case ir.FJmpZ, ir.FJmpNZ, ir.FJmpEqImm:
			in.B = newPC[in.B]
		}
		out = append(out, in)
	}
	ff.Code = out
	for i := range ff.Events {
		ff.Events[i].PC = newPC[ff.Events[i].PC]
	}
}
