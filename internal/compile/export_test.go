package compile

import (
	"math"

	"repro/internal/ir"
	"repro/internal/qualinfer"
	"repro/internal/types"
)

// CompileWithout compiles like Compile with the named pass left out of the
// pipeline: the reference build a pass's oracle compares against.
func CompileWithout(w *types.World, inf *qualinfer.Result, opts Options, pass string) (*ir.Program, error) {
	var passes []Pass
	for _, p := range pipeline() {
		if p.Name != pass {
			passes = append(passes, p)
		}
	}
	return compileWith(w, inf, opts, passes)
}

// PromotedSlots returns the frame slots of fn that linearize keeps in
// dedicated registers.
func PromotedSlots(fn *ir.Func) []int {
	var p promScan
	return p.slots(fn)
}

// walkLive solves register liveness over ff from scratch and calls visit
// for every instruction, each block walked backward, with the set of
// registers live after it and whether it starts its block.
func walkLive(ff *ir.FlatFunc, visit func(pc int32, leader bool, live []uint64)) {
	var s regScratch
	s.ff = ff
	s.blocks()
	s.initSets(ff.NumRegs)
	for b := 0; b < len(s.starts)-1; b++ {
		use, def := s.set(s.use, b), s.set(s.def, b)
		for pc := s.starts[b]; pc < s.starts[b+1]; pc++ {
			in := &ff.Code[pc]
			ff.VisitUses(in, func(r *int32) {
				if !hasBit(def, *r) {
					setBit(use, *r)
				}
			})
			if in.Op.Regs().A == ir.RegDef {
				setBit(def, in.A)
			}
		}
	}
	s.liveness()
	for b := 0; b < len(s.starts)-1; b++ {
		copy(s.live, s.set(s.liveOut, b))
		for pc := s.starts[b+1] - 1; pc >= s.starts[b]; pc-- {
			in := &ff.Code[pc]
			visit(pc, pc == s.starts[b], s.live)
			if in.Op.Regs().A == ir.RegDef {
				clearBit(s.live, in.A)
			}
			ff.VisitUses(in, func(r *int32) { setBit(s.live, *r) })
		}
	}
}

// DeadMoves returns the pcs of ff's FMove instructions whose destination
// is dead after the move.
func DeadMoves(ff *ir.FlatFunc) []int32 {
	var dead []int32
	walkLive(ff, func(pc int32, _ bool, live []uint64) {
		if in := &ff.Code[pc]; in.Op == ir.FMove && !hasBit(live, in.A) {
			dead = append(dead, pc)
		}
	})
	return dead
}

// FusablePairs returns the pcs of ff's instructions that end a pair regopt
// fuses: the instruction before it, in the same block, defines a register
// t that it consumes, and t is dead after it (or it overwrites t). The
// patterns are restated here from the pass's documentation rather than
// shared with it, so the check is independent of the rewrite.
func FusablePairs(ff *ir.FlatFunc) []int32 {
	var pairs []int32
	walkLive(ff, func(pc int32, leader bool, live []uint64) {
		if leader {
			return
		}
		first, in := &ff.Code[pc-1], &ff.Code[pc]
		t := first.A
		branch := in.Op == ir.FJmpZ || in.Op == ir.FJmpNZ
		var pair bool
		switch {
		case first.Op == ir.FFrame:
			pair = in.Op == ir.FLoadAcc && in.B == t
		case first.Op == ir.FConst && in.Op == ir.FAdd:
			pair = (in.B == t) != (in.C == t)
		case first.Op == ir.FConst && in.Op == ir.FSub:
			pair = in.C == t && in.B != t && first.Imm != math.MinInt64 && first.Imm != math.MaxInt64
		case first.Op == ir.FConst && in.Op == ir.FMul:
			pair = (in.B == t) != (in.C == t)
		case first.Op == ir.FConst && in.Op == ir.FMod:
			pair = in.C == t && in.B != t && first.Imm != 0
		case first.Op == ir.FConst && in.Op == ir.FShr:
			pair = in.C == t && in.B != t
		case first.Op == ir.FAdd:
			load := in.Op == ir.FLoadAcc || in.Op == ir.FLoadChk
			pair = load && in.B == t || in.Op == ir.FStoreAcc && in.A == t && in.B != t
		case first.Op.IsCmp(), first.Op == ir.FSetNZ:
			pair = branch && in.A == t
		case first.Op == ir.FConst && in.Op >= ir.FBrEq && in.Op <= ir.FBrGe:
			// Either operand of a compare-and-branch, not both.
			pair = (in.A == t) != (in.B == t)
		}
		overwrites := in.Op.Regs().A == ir.RegDef && in.A == t
		if pair && (!hasBit(live, t) || overwrites) {
			pairs = append(pairs, pc)
		}
	})
	return pairs
}

// ThreadableJumps returns the pcs of ff's FJmp instructions that the
// thread pass rewrites: the jump's target is an FJmpZ, FJmpNZ or
// compare-and-branch (on two registers or with an immediate) whose taken
// target is the instruction right after the jump. Restated from the pass's documentation, like FusablePairs.
func ThreadableJumps(ff *ir.FlatFunc) []int32 {
	var out []int32
	for pc, in := range ff.Code {
		if in.Op != ir.FJmp {
			continue
		}
		br := ff.Code[in.A]
		taken := int32(-1)
		switch br.Op {
		case ir.FJmpZ, ir.FJmpNZ:
			taken = br.B
		case ir.FBrEq, ir.FBrNe, ir.FBrLt, ir.FBrLe, ir.FBrGt, ir.FBrGe:
			taken = br.C
		case ir.FBrEqImm, ir.FBrNeImm, ir.FBrLtImm, ir.FBrLeImm, ir.FBrGtImm, ir.FBrGeImm:
			taken = br.B
		}
		if taken == int32(pc+1) {
			out = append(out, int32(pc))
		}
	}
	return out
}

// UnpinnedFrameReads returns the pcs of ff's FLoadFrame instructions whose
// slot nothing in the final code keeps in memory. It reads the flat form
// only, not the tree the promotion scan works on. A slot is pinned to its
// frame cell when:
//   - a lock expression or sharing-cast check names it;
//   - an FFrame of it is used other than as the address of FYield, a load,
//     a store or a barrier, or is still live at the end of its block;
//   - an access through it is checked (FChk*, FLoadChk, FStoreChk);
//   - it carries a barrier but is not RC-tracked, or is RC-tracked and one
//     FFrame of it is both loaded and stored (a read-modify-write).
func UnpinnedFrameReads(fn *ir.Func, ff *ir.FlatFunc) []int32 {
	pinned := make([]bool, fn.FrameSize)
	var lockSlots func(e ir.Expr)
	lockSlots = func(e ir.Expr) {
		switch v := e.(type) {
		case *ir.FrameAddr:
			pinned[v.Slot] = true
		case *ir.Load:
			lockSlots(v.Addr)
			lockSlots(v.Chk.Lock)
		case *ir.Bin:
			lockSlots(v.L)
			lockSlots(v.R)
		}
	}
	for _, c := range ff.Checks {
		lockSlots(c.Orig.Lock)
	}
	for _, b := range ff.Builtins {
		for _, c := range b.E.ArgChecks {
			lockSlots(c.Lock)
		}
	}
	for _, sc := range ff.Scasts {
		lockSlots(sc.ChkR.Lock)
		lockSlots(sc.ChkW.Lock)
	}

	n := len(ff.Code)
	leader := make([]bool, n)
	liveAfter := make([][]uint64, n)
	walkLive(ff, func(pc int32, first bool, live []uint64) {
		leader[pc] = first
		liveAfter[pc] = append([]uint64(nil), live...)
	})
	for pc, in := range ff.Code {
		if in.Op != ir.FFrame {
			continue
		}
		t, s := in.A, in.B
		var load, store, barrier, escape bool
		q := pc + 1
		for ; q < n && !leader[q]; q++ {
			u := &ff.Code[q]
			switch {
			case u.Op == ir.FYield && u.A == t:
			case (u.Op == ir.FLoad || u.Op == ir.FLoadAcc) && u.B == t:
				load = true
			case (u.Op == ir.FStore || u.Op == ir.FStoreAcc) && u.A == t && u.B != t:
				store = true
			case u.Op == ir.FBarrier && u.A == t && u.B != t:
				barrier = true
			default:
				ff.VisitUses(u, func(r *int32) {
					if *r == t {
						escape = true
					}
				})
			}
			if u.Op.Regs().A == ir.RegDef && u.A == t || !hasBit(liveAfter[q], t) {
				break
			}
		}
		if q == n || leader[q] {
			escape = escape || hasBit(liveAfter[q-1], t)
		}
		rc := fn.RCSlotSet[s]
		if escape || barrier && !rc || load && store && rc {
			pinned[s] = true
		}
	}
	var out []int32
	for pc, in := range ff.Code {
		if in.Op == ir.FLoadFrame && !pinned[in.B] {
			out = append(out, int32(pc))
		}
	}
	return out
}

// RedundantValues returns the pcs of ff's pure instructions that recompute
// a value a register still holds: an earlier instruction of the same
// extended block applied the same opcode (and immediate) to the same
// operands, and neither its destination nor an operand was written since.
// An extended block is a run of blocks each entered only by the
// fall-through of the conditional branch ending the one before. Operands
// are the same when they are the same register with no write in between,
// or registers last written by FConst with the same constant. The walk is
// restated from the pass's documentation rather than shared with it.
func RedundantValues(ff *ir.FlatFunc) []int32 {
	type operand struct {
		isConst bool
		v       int64 // the constant, or the register's write count
		reg     int32
	}
	type key struct {
		op   ir.Op
		b, c operand
		imm  int64
	}
	type holder struct {
		reg    int32
		writes int64
	}
	target := make([]bool, len(ff.Code))
	for _, in := range ff.Code {
		if t := in.Target(); t != nil {
			target[*t] = true
		}
	}
	var (
		writes  map[int32]int64
		consts  map[int32]int64 // register -> constant, while it holds one
		avail   map[key]holder
		out     []int32
		written int64
	)
	opnd := func(r int32) operand {
		if k, ok := consts[r]; ok {
			return operand{isConst: true, v: k}
		}
		return operand{v: writes[r], reg: r}
	}
	for pc, in := range ff.Code {
		if pc == 0 || target[pc] || ff.Code[pc-1].Op == ir.FJmp || ff.Code[pc-1].Op == ir.FRet {
			writes, consts, avail = map[int32]int64{}, map[int32]int64{}, map[key]holder{}
		}
		var k key
		pure := true
		switch in.Op {
		case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FMod, ir.FAnd, ir.FOr, ir.FXor,
			ir.FShl, ir.FShr, ir.FEq, ir.FNe, ir.FLt, ir.FLe, ir.FGt, ir.FGe:
			k = key{op: in.Op, b: opnd(in.B), c: opnd(in.C)}
			switch in.Op {
			case ir.FAdd, ir.FMul, ir.FAnd, ir.FOr, ir.FXor, ir.FEq, ir.FNe:
				if k.c.isConst && !k.b.isConst || k.b.isConst == k.c.isConst && (k.c.v < k.b.v || k.c.v == k.b.v && k.c.reg < k.b.reg) {
					k.b, k.c = k.c, k.b
				}
			}
		case ir.FNeg, ir.FNot, ir.FBitNot, ir.FSetNZ:
			k = key{op: in.Op, b: opnd(in.B)}
		case ir.FAddImm, ir.FMulImm, ir.FModImm, ir.FShrImm:
			k = key{op: in.Op, b: opnd(in.B), imm: in.Imm}
		default:
			pure = false
		}
		if pure {
			if h, ok := avail[k]; ok && writes[h.reg] == h.writes {
				out = append(out, int32(pc))
			}
		}
		if in.Op.Regs().A != ir.RegDef {
			continue
		}
		written++
		writes[in.A] = written
		delete(consts, in.A)
		if in.Op == ir.FConst {
			consts[in.A] = in.Imm
		}
		if pure {
			avail[k] = holder{in.A, written}
		}
	}
	return out
}
