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
