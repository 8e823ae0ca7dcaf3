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
	s.initSets()
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
		case first.Op.IsCmp(), first.Op == ir.FSetNZ:
			pair = branch && in.A == t
		}
		overwrites := in.Op.Regs().A == ir.RegDef && in.A == t
		if pair && (!hasBit(live, t) || overwrites) {
			pairs = append(pairs, pc)
		}
	})
	return pairs
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
