package compile

// Static redundant-check elision (the compile-time half of the two-layer
// check-elimination subsystem; the runtime half is internal/shadow's
// per-thread cache).
//
// The pass walks each function in the interpreter's evaluation order and
// keeps a map of "available" checks: canonical keys of l-value address
// expressions (plus the lock expression for locked checks) that have
// already been checked on every path reaching the current point. A later
// check on the same key at the same or weaker strength (a write check
// dominates a read check) is provably redundant and removed: the earlier
// check either reported the violation already or established this thread's
// reader/writer bits, and nothing between the two can have changed that.
//
// What can change it defines the kill set:
//
//   - shadow-clearing events: a sharing cast (clears the referent's
//     reader/writer sets), free/shcRecycle (clear the block), spawn (new
//     concurrency), mutexLock/mutexUnlock/condWait (lock-region
//     boundaries — a locked check is only valid while the lock is held),
//     and any call to a user function (which may do any of the above).
//     These kill every available check.
//   - value kills: a store may change the *address* a key denotes. A store
//     to frame slot s kills keys whose address computation reads s; a
//     store through an unanalyzable pointer kills keys whose address
//     computation reads memory (or reads a slot whose address has been
//     taken). Stores never clear shadow bits, so a write that cannot
//     change a key's address leaves its check available.
//
// Availability survives a loop exit only through the loop condition: when
// the body cannot break past it, every normal exit has just evaluated the
// condition, so checks performed unconditionally inside it stay available
// after the loop. Branches intersect; loop bodies and switch arms start
// empty.
//
// The elision is per-l-value-expression rather than per-granule: two
// different expressions denoting neighboring cells of one granule are not
// unified statically (the runtime cache catches those).
//
// One behavioral caveat, shared with the runtime cache: a check that
// *fails* also records availability (the runtime reports and then
// continues), so a later identical access elides its check and does not
// produce a second report for the same l-value in the same region. SharC
// itself aborts on the first violation, so deduplicating repeat reports of
// one violating l-value is consistent with the paper's behavior.

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// killSet says which invalidation points clear the availability map. The
// exported pass uses the full set; the mutation tests weaken individual
// members to prove each is load-bearing.
type killSet struct {
	Scast bool // sharing casts clear reader/writer sets
	Free  bool // free/shcRecycle clear the block's shadow state
	Spawn bool // thread creation introduces new concurrency
	Lock  bool // mutexLock/mutexUnlock/condWait region boundaries
	Call  bool // user calls may reach any of the above
}

var fullKills = killSet{Scast: true, Free: true, Spawn: true, Lock: true, Call: true}

// ElideChecks removes provably-redundant dynamic and locked checks from p
// and records the counts in p.Elision. Compile runs it when Options.Elide
// is set; it is exported so tools can apply it to an already-lowered
// program.
func ElideChecks(p *ir.Program) ir.ElisionStats {
	st := elideChecksWith(p, fullKills)
	fuseAccesses(p)
	return st
}

func elideChecksWith(p *ir.Program, kills killSet) ir.ElisionStats {
	// Always (re)generate the decomposed linear form: a compiled program's
	// flat form is already fused into superinstructions, which hide the
	// FChk*/kill stream this pass scans. Relowering from the tree is
	// deterministic, so inside the pipeline (where the incoming form is
	// still decomposed) this is a no-op rebuild.
	Linearize(p)
	stripBarriers(p)
	var st ir.ElisionStats
	// Checks the vet analysis discharged at lowering time are already
	// CheckElided in the tree and invisible to this pass; carry their
	// counts through so a rerun does not erase them.
	st.DischargedDynamic = p.Elision.DischargedDynamic
	st.DischargedLocked = p.Elision.DischargedLocked
	st.DischargedAbsint = p.Elision.DischargedAbsint
	for _, fn := range p.Funcs {
		countFuncChecks(fn, &st)
	}
	for i, fn := range p.Funcs {
		e := newElider(fn, kills, &st)
		e.runFlat(p.Flat.Funcs[i])
	}
	p.Elision = st
	return st
}

const (
	strengthR uint8 = 1
	strengthW uint8 = 2
)

// deps records what a key's address computation depends on, so value kills
// can find it: frame slots read directly (as a bitmask for slots < 64),
// global cells read directly (by address), and whether any computed-address
// memory is read.
type deps struct {
	slots   uint64
	wide    bool    // depends on some slot >= 64
	mem     bool    // depends on computed-address memory
	globals []int64 // global cells read via constant addresses
}

func (d *deps) addSlot(s int) {
	if s < 64 {
		d.slots |= 1 << uint(s)
	} else {
		d.wide = true
	}
}

func (d *deps) addGlobal(a int64) {
	for _, g := range d.globals {
		if g == a {
			return
		}
	}
	d.globals = append(d.globals, a)
}

func (d *deps) readsGlobal(a int64) bool {
	for _, g := range d.globals {
		if g == a {
			return true
		}
	}
	return false
}

type availEntry struct {
	strength uint8
	d        deps
}

type elider struct {
	kills killSet
	stats *ir.ElisionStats
	avail map[string]*availEntry

	// addrTaken marks slots whose frame address escapes (appears anywhere
	// but as the direct address operand of an access): a store through an
	// unknown pointer may target them.
	addrTaken     map[int]bool
	addrTakenMask uint64
	addrTakenWide bool
}

func newElider(fn *ir.Func, kills killSet, st *ir.ElisionStats) *elider {
	e := &elider{
		kills:     kills,
		stats:     st,
		avail:     make(map[string]*availEntry),
		addrTaken: make(map[int]bool),
	}
	for _, s := range fn.Body {
		e.scanStmt(s)
	}
	for s := range e.addrTaken {
		if s < 64 {
			e.addrTakenMask |= 1 << uint(s)
		} else {
			e.addrTakenWide = true
		}
	}
	return e
}

// ---------------------------------------------------------------------------
// canonical keys

// keyExpr renders x as a canonical key and accumulates its value
// dependencies; it fails on expressions with effects (calls, stores),
// whose values are not stable between two occurrences.
func keyExpr(x ir.Expr, sb *strings.Builder, d *deps) bool {
	switch v := x.(type) {
	case *ir.Const:
		fmt.Fprintf(sb, "c%d", v.V)
	case *ir.StrAddr:
		fmt.Fprintf(sb, "s%d", v.Idx)
	case *ir.FrameAddr:
		fmt.Fprintf(sb, "f%d", v.Slot)
	case *ir.FuncVal:
		fmt.Fprintf(sb, "F%d", v.Index)
	case *ir.Load:
		switch a := v.Addr.(type) {
		case *ir.FrameAddr:
			d.addSlot(a.Slot)
		case *ir.Const:
			d.addGlobal(a.V)
		default:
			d.mem = true
		}
		sb.WriteString("(l ")
		if !keyExpr(v.Addr, sb, d) {
			return false
		}
		sb.WriteByte(')')
	case *ir.Bin:
		fmt.Fprintf(sb, "(b%d ", int(v.Op))
		if !keyExpr(v.L, sb, d) {
			return false
		}
		sb.WriteByte(' ')
		if !keyExpr(v.R, sb, d) {
			return false
		}
		sb.WriteByte(')')
	case *ir.Un:
		fmt.Fprintf(sb, "(u%d ", int(v.Op))
		if !keyExpr(v.X, sb, d) {
			return false
		}
		sb.WriteByte(')')
	case *ir.Logic:
		op := "a"
		if v.Or {
			op = "o"
		}
		fmt.Fprintf(sb, "(%s ", op)
		if !keyExpr(v.L, sb, d) {
			return false
		}
		sb.WriteByte(' ')
		if !keyExpr(v.R, sb, d) {
			return false
		}
		sb.WriteByte(')')
	case *ir.CondE:
		sb.WriteString("(? ")
		if !keyExpr(v.C, sb, d) {
			return false
		}
		sb.WriteByte(' ')
		if !keyExpr(v.T, sb, d) {
			return false
		}
		sb.WriteByte(' ')
		if !keyExpr(v.F, sb, d) {
			return false
		}
		sb.WriteByte(')')
	default:
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// availability map plumbing

func cloneAvail(m map[string]*availEntry) map[string]*availEntry {
	out := make(map[string]*availEntry, len(m))
	for k, v := range m {
		cp := *v
		out[k] = &cp
	}
	return out
}

// intersectAvail keeps keys available on both paths at the weaker strength.
func intersectAvail(a, b map[string]*availEntry) map[string]*availEntry {
	out := make(map[string]*availEntry)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			cp := *va
			if vb.strength < cp.strength {
				cp.strength = vb.strength
			}
			out[k] = &cp
		}
	}
	return out
}

func (e *elider) killAll() { e.avail = make(map[string]*availEntry) }

func (e *elider) killSlot(s int) {
	if s >= 64 {
		for k, ent := range e.avail {
			if ent.d.wide {
				delete(e.avail, k)
			}
		}
		return
	}
	bit := uint64(1) << uint(s)
	for k, ent := range e.avail {
		if ent.d.slots&bit != 0 {
			delete(e.avail, k)
		}
	}
}

// killMemDeps kills keys whose address computation reads computed-address
// memory (a computed pointer may alias the written cell).
func (e *elider) killMemDeps() {
	for k, ent := range e.avail {
		if ent.d.mem {
			delete(e.avail, k)
		}
	}
}

// killGlobal kills keys that read global cell a directly, plus
// computed-address readers (which may alias it).
func (e *elider) killGlobal(a int64) {
	for k, ent := range e.avail {
		if ent.d.mem || ent.d.readsGlobal(a) {
			delete(e.avail, k)
		}
	}
}

// killMemAliased kills keys an unanalyzable pointer write could affect:
// memory-dependent keys, direct global readers, and keys reading an
// address-taken slot.
func (e *elider) killMemAliased() {
	for k, ent := range e.avail {
		if ent.d.mem || len(ent.d.globals) > 0 ||
			ent.d.slots&e.addrTakenMask != 0 || (ent.d.wide && e.addrTakenWide) {
			delete(e.avail, k)
		}
	}
}

// killFrameDeps kills every key that reads any frame slot.
func (e *elider) killFrameDeps() {
	for k, ent := range e.avail {
		if ent.d.slots != 0 || ent.d.wide {
			delete(e.avail, k)
		}
	}
}

// killForWrite applies the value-kill rules for a store through addr.
func (e *elider) killForWrite(addr ir.Expr) {
	switch a := addr.(type) {
	case *ir.FrameAddr:
		e.killSlot(a.Slot)
		if e.addrTaken[a.Slot] {
			// The slot is reachable through pointers: memory-dependent
			// address computations may read it.
			e.killMemDeps()
		}
	case *ir.Const:
		// A direct global store: affects keys reading that cell (or
		// computed-address memory), not keys over other globals or slots.
		e.killGlobal(a.V)
	case *ir.StrAddr:
		// String storage address unresolved at this point: conservative.
		e.killMemAliased()
	default:
		if bareFrame(addr) {
			// A computed frame address (local array indexing): the write
			// lands somewhere in the frame.
			e.killFrameDeps()
		}
		e.killMemAliased()
	}
}

// bareFrame reports whether addr computes an offset from a frame address
// (a FrameAddr outside any Load: the *value* of a slot is not a frame
// address unless the slot's address was taken, which killMemAliased
// covers).
func bareFrame(x ir.Expr) bool {
	switch v := x.(type) {
	case *ir.FrameAddr:
		return true
	case *ir.Bin:
		return bareFrame(v.L) || bareFrame(v.R)
	case *ir.Un:
		return bareFrame(v.X)
	case *ir.Logic:
		return bareFrame(v.L) || bareFrame(v.R)
	case *ir.CondE:
		return bareFrame(v.C) || bareFrame(v.T) || bareFrame(v.F)
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// check handling

func (e *elider) handleCheck(chk *ir.Check, addr ir.Expr, want uint8) {
	switch chk.Kind {
	case ir.CheckDynamic:
		var sb strings.Builder
		var d deps
		sb.WriteString("D|")
		if !keyExpr(addr, &sb, &d) {
			return
		}
		key := sb.String()
		if ent := e.avail[key]; ent != nil && ent.strength >= want {
			e.stats.ElidedDynamic++
			// Keep the site: the runtime does nothing for CheckElided, but
			// telemetry can still attribute the avoided check.
			*chk = ir.Check{Kind: ir.CheckElided, Site: chk.Site}
			return
		}
		e.avail[key] = &availEntry{strength: want, d: d}
	case ir.CheckLocked:
		// Locked read and write checks are the same test (is the lock
		// held?), so strength does not matter within the L namespace; the
		// key pairs the lock expression with the l-value address, and the
		// entry depends on both computations.
		var sb strings.Builder
		var d deps
		sb.WriteString("L|")
		ok := keyExpr(chk.Lock, &sb, &d)
		if ok {
			sb.WriteByte('|')
			ok = keyExpr(addr, &sb, &d)
		}
		if !ok {
			e.expr(chk.Lock)
			return
		}
		key := sb.String()
		if e.avail[key] != nil {
			e.stats.ElidedLocked++
			// The lock expression is dropped with the check (its evaluation
			// was part of what elision saves); only the site survives.
			*chk = ir.Check{Kind: ir.CheckElided, Site: chk.Site}
			return
		}
		// The lock expression evaluates at runtime when the check does;
		// its own nested checks are handled (and elidable) like any other.
		e.expr(chk.Lock)
		e.avail[key] = &availEntry{strength: strengthW, d: d}
	}
}

// ---------------------------------------------------------------------------
// the flat driver

// runFlat replays the pass over a function's linear form: a single scan of
// the instruction stream, with the elide-event stream supplying the
// control-flow bookkeeping (snapshots at joins, kills at back edges) that
// the retired tree walk derived from statement structure. Check decisions
// are written through FlatCheck.Orig — the check node shared with the
// tree — and an elided check's instruction is rewritten to FChkElided, so
// the tree and flat forms carry every decision identically.
func (e *elider) runFlat(ff *ir.FlatFunc) {
	var stack []map[string]*availEntry
	evIdx := 0
	for pc := 0; ; pc++ {
		for evIdx < len(ff.Events) && int(ff.Events[evIdx].PC) == pc {
			switch ff.Events[evIdx].Op {
			case ir.EvKillAll:
				e.killAll()
			case ir.EvSnap:
				stack = append(stack, cloneAvail(e.avail))
			case ir.EvSwapSnap:
				cur := e.avail
				e.avail = stack[len(stack)-1]
				stack[len(stack)-1] = cur
			case ir.EvIntersect:
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				e.avail = intersectAvail(top, e.avail)
			case ir.EvRestore:
				e.avail = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			case ir.EvStartEmpty:
				e.avail = make(map[string]*availEntry)
			}
			evIdx++
		}
		if pc >= len(ff.Code) {
			break
		}
		in := &ff.Code[pc]
		switch in.Op {
		case ir.FChkRead, ir.FChkWrite, ir.FChkLock:
			fc := &ff.Checks[in.B]
			want := strengthR
			if fc.Write {
				want = strengthW
			}
			before := fc.Orig.Kind
			e.handleCheck(fc.Orig, fc.Addr, want)
			if fc.Orig.Kind == ir.CheckElided && before != ir.CheckElided {
				in.Op = ir.FChkElided
			}
		case ir.FStore:
			if in.Imm >= 0 {
				e.killForWrite(ff.Kills[in.Imm].Addr)
			}
		case ir.FKill:
			// A promoted store: no frame write happens, but availability
			// keys reading the slot's value are invalid from here on.
			e.killForWrite(ff.Kills[in.Imm].Addr)
		case ir.FScast:
			sc := ff.Scasts[in.C]
			e.handleCheck(&sc.ChkR, sc.Addr, strengthR)
			if e.kills.Scast {
				e.killAll()
			}
			e.handleCheck(&sc.ChkW, sc.Addr, strengthW)
			e.killForWrite(sc.Addr)
		case ir.FCall:
			if e.kills.Call {
				e.killAll()
			}
		case ir.FBuiltin:
			e.builtinEffect(ff.Builtins[in.B].E)
		}
	}
}

// ---------------------------------------------------------------------------
// the expression walk (lock expressions evaluate at check time, so their
// own nested checks are processed — and elidable — through this recursive
// walk; the statement-level tree walk it once belonged to is retired in
// favor of runFlat)

func (e *elider) expr(x ir.Expr) {
	switch v := x.(type) {
	case nil:
		return
	case *ir.Const, *ir.StrAddr, *ir.FrameAddr, *ir.FuncVal:
	case *ir.Load:
		e.expr(v.Addr)
		e.handleCheck(&v.Chk, v.Addr, strengthR)
	case *ir.Bin:
		e.expr(v.L)
		e.expr(v.R)
	case *ir.Un:
		e.expr(v.X)
	case *ir.Logic:
		e.expr(v.L)
		save := cloneAvail(e.avail)
		e.expr(v.R)
		e.avail = intersectAvail(e.avail, save)
	case *ir.CondE:
		e.expr(v.C)
		save := cloneAvail(e.avail)
		e.expr(v.T)
		t := e.avail
		e.avail = save
		e.expr(v.F)
		e.avail = intersectAvail(t, e.avail)
	case *ir.Store:
		e.expr(v.Addr)
		e.expr(v.Val)
		e.handleCheck(&v.Chk, v.Addr, strengthW)
		e.killForWrite(v.Addr)
	case *ir.IncDec:
		e.expr(v.Addr)
		e.handleCheck(&v.ChkR, v.Addr, strengthR)
		e.handleCheck(&v.ChkW, v.Addr, strengthW)
		e.killForWrite(v.Addr)
	case *ir.Compound:
		e.expr(v.Addr)
		e.handleCheck(&v.ChkR, v.Addr, strengthR)
		e.expr(v.RHS)
		e.handleCheck(&v.ChkW, v.Addr, strengthW)
		e.killForWrite(v.Addr)
	case *ir.Call:
		if v.Fn != nil {
			e.expr(v.Fn)
		}
		for _, a := range v.Args {
			e.expr(a)
		}
		if e.kills.Call {
			e.killAll()
		}
	case *ir.BuiltinCall:
		for _, a := range v.Args {
			e.expr(a)
		}
		e.builtinEffect(v)
	case *ir.Scast:
		e.expr(v.Addr)
		e.handleCheck(&v.ChkR, v.Addr, strengthR)
		if e.kills.Scast {
			e.killAll()
		}
		e.handleCheck(&v.ChkW, v.Addr, strengthW)
		e.killForWrite(v.Addr)
	}
}

func (e *elider) builtinEffect(v *ir.BuiltinCall) {
	switch v.Name {
	case "free", "shcRecycle":
		if e.kills.Free {
			e.killAll()
		} else {
			e.killMemAliased()
		}
	case "spawn":
		if e.kills.Spawn {
			e.killAll()
		}
	case "mutexLock", "mutexUnlock", "condWait":
		if e.kills.Lock {
			e.killAll()
		}
	case "memset", "memcpy", "strcpy":
		// Writes through pointer arguments: value kills only.
		e.killMemAliased()
	case "malloc", "mutexNew", "condNew", "join", "condSignal", "condBroadcast",
		"yield", "sleepMs", "rand", "srand", "print", "printInt", "assert",
		"strlen", "strcmp", "strstr":
		// No shadow clearing, no writes to reachable program memory.
	default:
		e.killAll() // future builtins: conservative until classified
	}
}

// loopEscapes reports whether ss contains a break or continue binding to
// the enclosing loop. Breaks inside a nested switch bind to the switch;
// anything inside a nested loop binds there.
func loopEscapes(ss []ir.Stmt) (brk, cont bool) {
	var scan func(ss []ir.Stmt, inSwitch bool)
	scan = func(ss []ir.Stmt, inSwitch bool) {
		for _, s := range ss {
			switch v := s.(type) {
			case *ir.SIf:
				scan(v.Then, inSwitch)
				scan(v.Else, inSwitch)
			case *ir.SSwitch:
				for _, arm := range v.Arms {
					scan(arm, true)
				}
			case *ir.SBreak:
				if !inSwitch {
					brk = true
				}
			case *ir.SContinue:
				cont = true
			}
		}
	}
	scan(ss, false)
	return brk, cont
}

// ---------------------------------------------------------------------------
// escape scan (which slots' addresses leave direct access position)

func (e *elider) scanStmt(s ir.Stmt) {
	switch v := s.(type) {
	case *ir.SExpr:
		e.scanEscapes(v.E)
	case *ir.SIf:
		e.scanEscapes(v.C)
		for _, t := range v.Then {
			e.scanStmt(t)
		}
		for _, t := range v.Else {
			e.scanStmt(t)
		}
	case *ir.SLoop:
		e.scanEscapes(v.Cond)
		for _, t := range v.Body {
			e.scanStmt(t)
		}
		e.scanEscapes(v.Post)
	case *ir.SReturn:
		e.scanEscapes(v.E)
	case *ir.SSwitch:
		e.scanEscapes(v.X)
		for _, arm := range v.Arms {
			for _, t := range arm {
				e.scanStmt(t)
			}
		}
	}
}

// scanAddr visits a direct address operand: a FrameAddr here is a plain
// access, not an escape, but any subexpression is scanned normally.
func (e *elider) scanAddr(x ir.Expr) {
	if _, ok := x.(*ir.FrameAddr); ok {
		return
	}
	e.scanEscapes(x)
}

func (e *elider) scanEscapes(x ir.Expr) {
	switch v := x.(type) {
	case nil:
		return
	case *ir.FrameAddr:
		e.addrTaken[v.Slot] = true
	case *ir.Load:
		e.scanAddr(v.Addr)
		e.scanEscapes(v.Chk.Lock)
	case *ir.Bin:
		e.scanEscapes(v.L)
		e.scanEscapes(v.R)
	case *ir.Un:
		e.scanEscapes(v.X)
	case *ir.Logic:
		e.scanEscapes(v.L)
		e.scanEscapes(v.R)
	case *ir.CondE:
		e.scanEscapes(v.C)
		e.scanEscapes(v.T)
		e.scanEscapes(v.F)
	case *ir.Store:
		e.scanAddr(v.Addr)
		e.scanEscapes(v.Val)
		e.scanEscapes(v.Chk.Lock)
	case *ir.IncDec:
		e.scanAddr(v.Addr)
		e.scanEscapes(v.ChkR.Lock)
		e.scanEscapes(v.ChkW.Lock)
	case *ir.Compound:
		e.scanAddr(v.Addr)
		e.scanEscapes(v.RHS)
		e.scanEscapes(v.ChkR.Lock)
		e.scanEscapes(v.ChkW.Lock)
	case *ir.Call:
		e.scanEscapes(v.Fn)
		for _, a := range v.Args {
			e.scanEscapes(a)
		}
	case *ir.BuiltinCall:
		for _, a := range v.Args {
			e.scanEscapes(a)
		}
		for _, c := range v.ArgChecks {
			e.scanEscapes(c.Lock)
		}
	case *ir.Scast:
		e.scanAddr(v.Addr)
		e.scanEscapes(v.ChkR.Lock)
		e.scanEscapes(v.ChkW.Lock)
	}
}

// ---------------------------------------------------------------------------
// totals

func countFuncChecks(fn *ir.Func, st *ir.ElisionStats) {
	var ce func(ir.Expr)
	cchk := func(c ir.Check) {
		switch c.Kind {
		case ir.CheckDynamic:
			st.TotalDynamic++
		case ir.CheckLocked:
			st.TotalLocked++
			ce(c.Lock)
		}
	}
	ce = func(x ir.Expr) {
		switch v := x.(type) {
		case nil:
			return
		case *ir.Load:
			ce(v.Addr)
			cchk(v.Chk)
		case *ir.Bin:
			ce(v.L)
			ce(v.R)
		case *ir.Un:
			ce(v.X)
		case *ir.Logic:
			ce(v.L)
			ce(v.R)
		case *ir.CondE:
			ce(v.C)
			ce(v.T)
			ce(v.F)
		case *ir.Store:
			ce(v.Addr)
			ce(v.Val)
			cchk(v.Chk)
		case *ir.IncDec:
			ce(v.Addr)
			cchk(v.ChkR)
			cchk(v.ChkW)
		case *ir.Compound:
			ce(v.Addr)
			ce(v.RHS)
			cchk(v.ChkR)
			cchk(v.ChkW)
		case *ir.Call:
			ce(v.Fn)
			for _, a := range v.Args {
				ce(a)
			}
		case *ir.BuiltinCall:
			for _, a := range v.Args {
				ce(a)
			}
			for _, c := range v.ArgChecks {
				cchk(c)
			}
		case *ir.Scast:
			ce(v.Addr)
			cchk(v.ChkR)
			cchk(v.ChkW)
		}
	}
	var cs func(ss []ir.Stmt)
	cs = func(ss []ir.Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *ir.SExpr:
				ce(v.E)
			case *ir.SIf:
				ce(v.C)
				cs(v.Then)
				cs(v.Else)
			case *ir.SLoop:
				ce(v.Cond)
				cs(v.Body)
				ce(v.Post)
			case *ir.SReturn:
				ce(v.E)
			case *ir.SSwitch:
				ce(v.X)
				for _, arm := range v.Arms {
					cs(arm)
				}
			}
		}
	}
	cs(fn.Body)
}
