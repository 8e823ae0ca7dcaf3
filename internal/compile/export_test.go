package compile

import (
	"repro/internal/ir"
	"repro/internal/qualinfer"
	"repro/internal/types"
)

// CompileWithout compiles like Compile with the named pass left out of the
// pipeline: the reference build a pass's oracle compares against.
func CompileWithout(w *types.World, inf *qualinfer.Result, opts Options, pass string) (*ir.Program, error) {
	var passes []Pass
	for _, p := range pipeline(opts) {
		if p.Name != pass {
			passes = append(passes, p)
		}
	}
	return compileWith(w, inf, opts, passes)
}

// DeadMoves returns the pcs of ff's FMove instructions whose destination
// is dead after the move.
func DeadMoves(ff *ir.FlatFunc) []int32 {
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
	var dead []int32
	for b := 0; b < len(s.starts)-1; b++ {
		copy(s.live, s.set(s.liveOut, b))
		for pc := s.starts[b+1] - 1; pc >= s.starts[b]; pc-- {
			in := &ff.Code[pc]
			if in.Op == ir.FMove && !hasBit(s.live, in.A) {
				dead = append(dead, pc)
			}
			if in.Op.Regs().A == ir.RegDef {
				clearBit(s.live, in.A)
			}
			ff.VisitUses(in, func(r *int32) { setBit(s.live, *r) })
		}
	}
	return dead
}
