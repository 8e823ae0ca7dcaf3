package compile

// The regopt pass: removes the register traffic that the linearizer's
// stack-wise allocation leaves behind. Every expression lands in a fresh
// temporary, so a promoted local is read through an FMove into a
// temporary and written back through another, and a statement's result
// register is computed even when nothing reads it. On the Table-1 models
// FMove alone was a quarter to a third of all dispatches.
//
// The pass runs last and works in three steps over each function:
//
//   - copy propagation inside basic blocks: after FMove r, s, a read of r
//     reads s instead while neither r nor s has been redefined. Copies do
//     not cross block leaders (jump targets, and the instruction after a
//     jump or ret);
//   - liveness of every register at block boundaries, on uint64 bitsets;
//   - one backward sweep per block that deletes pure instructions whose
//     destination is dead, and rewrites "op t, ...; FMove r, t" into
//     "op r, ..." when t is dead after the move and no jump targets it.
//
// The pass only deletes instructions and renames register operands
// (including CallInfo.Args/FnReg and BuiltinInfo.Args), so the VM, its
// statistics and every observable of a run are unchanged. Only the pure
// opcodes of ir.OpRegs are ever deleted; divide and modulo, which can
// fail, are kept even when their result is dead.

import "repro/internal/ir"

// regopt runs the pass over every function of p, reusing one set of
// scratch buffers.
func regopt(p *ir.Program) {
	var s regScratch
	for _, ff := range p.Flat.Funcs {
		s.run(ff)
	}
}

// regScratch holds the pass's per-function working state. The buffers are
// resized, never shrunk, so a program's functions share one allocation.
type regScratch struct {
	ff *ir.FlatFunc

	leader  []bool  // pc starts a basic block
	starts  []int32 // block b covers [starts[b], starts[b+1])
	blockAt []int32 // the block a leader pc starts

	// Copy propagation. copySrc[r] is the register r was last copied
	// from; the copy holds while the source still carries the definition
	// stamp copyStamp[r] and the block epoch is copyEpoch[r]. A definition
	// of r itself resets copyEpoch[r].
	defStamp  []int64
	copySrc   []int32
	copyStamp []int64
	copyEpoch []int32

	// Liveness, words per bitset: the use/def/in/out sets of each block
	// laid out back to back, and the sweep's running set.
	words           int
	use, def        []uint64
	liveIn, liveOut []uint64
	live            []uint64

	changed bool // some instruction became FNop
}

func (s *regScratch) run(ff *ir.FlatFunc) {
	s.ff = ff
	s.changed = false
	s.blocks()
	s.propagate()
	s.liveness()
	s.sweep()
	if s.changed {
		compactFlat(ff)
	}
}

// grow returns buf resized to n elements, reusing its storage, with every
// element reset to the zero value.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// blocks marks block leaders and records each block's first pc.
func (s *regScratch) blocks() {
	code := s.ff.Code
	n := len(code)
	s.leader = grow(s.leader, n+1)
	s.leader[0] = true
	for pc := range code {
		switch in := &code[pc]; in.Op {
		case ir.FJmp:
			s.leader[in.A] = true
			s.leader[pc+1] = true
		case ir.FJmpZ, ir.FJmpNZ, ir.FJmpEqImm:
			s.leader[in.B] = true
			s.leader[pc+1] = true
		case ir.FRet:
			s.leader[pc+1] = true
		}
	}
	s.starts = s.starts[:0]
	s.blockAt = grow(s.blockAt, n)
	for pc := 0; pc < n; pc++ {
		if s.leader[pc] {
			s.blockAt[pc] = int32(len(s.starts))
			s.starts = append(s.starts, int32(pc))
		}
	}
	s.starts = append(s.starts, int32(n))
}

// propagate rewrites register reads through the copies live at each
// instruction, deletes moves that become r <- r, and records each block's
// upward-exposed uses and definitions for the liveness solve.
func (s *regScratch) propagate() {
	ff := s.ff
	nr := ff.NumRegs
	s.defStamp = grow(s.defStamp, nr)
	s.copySrc = grow(s.copySrc, nr)
	s.copyStamp = grow(s.copyStamp, nr)
	s.copyEpoch = grow(s.copyEpoch, nr)
	s.initSets()
	var stamp int64
	var epoch int32 // block b is epoch b+1; copyEpoch 0 is never live
	var use, def []uint64
	rename := func(r *int32) {
		if c := *r; s.copyEpoch[c] == epoch && s.defStamp[s.copySrc[c]] == s.copyStamp[c] {
			*r = s.copySrc[c]
		}
		if !hasBit(def, *r) {
			setBit(use, *r)
		}
	}
	for b := 0; b < len(s.starts)-1; b++ {
		epoch = int32(b + 1)
		use, def = s.set(s.use, b), s.set(s.def, b)
		for pc := s.starts[b]; pc < s.starts[b+1]; pc++ {
			in := &ff.Code[pc]
			ff.VisitUses(in, rename)
			if in.Op.Regs().A != ir.RegDef {
				continue
			}
			if in.Op == ir.FMove && in.A == in.B {
				in.Op = ir.FNop
				s.changed = true
				continue
			}
			setBit(def, in.A)
			stamp++
			s.defStamp[in.A] = stamp
			s.copyEpoch[in.A] = 0
			if in.Op == ir.FMove {
				s.copySrc[in.A] = in.B
				s.copyStamp[in.A] = s.defStamp[in.B]
				s.copyEpoch[in.A] = epoch
			}
		}
	}
}

func setBit(set []uint64, r int32)      { set[r>>6] |= 1 << (r & 63) }
func clearBit(set []uint64, r int32)    { set[r>>6] &^= 1 << (r & 63) }
func hasBit(set []uint64, r int32) bool { return set[r>>6]&(1<<(r&63)) != 0 }

// initSets sizes and clears the per-block bitsets for the current
// function.
func (s *regScratch) initSets() {
	s.words = (s.ff.NumRegs + 63) / 64
	size := (len(s.starts) - 1) * s.words
	s.use = grow(s.use, size)
	s.def = grow(s.def, size)
	s.liveIn = grow(s.liveIn, size)
	s.liveOut = grow(s.liveOut, size)
	s.live = grow(s.live, s.words)
}

// set returns block b's bitset within the per-block table tab.
func (s *regScratch) set(tab []uint64, b int) []uint64 {
	return tab[b*s.words : (b+1)*s.words]
}

// liveness solves every block's live-out set from the recorded uses and
// definitions: a backward fixpoint over the block graph.
func (s *regScratch) liveness() {
	for changed := true; changed; {
		changed = false
		for b := len(s.starts) - 2; b >= 0; b-- {
			out := s.set(s.liveOut, b)
			s.succs(b, func(succ int) {
				for i, w := range s.set(s.liveIn, succ) {
					out[i] |= w
				}
			})
			in, use, def := s.set(s.liveIn, b), s.set(s.use, b), s.set(s.def, b)
			for i := range in {
				if w := use[i] | out[i]&^def[i]; w != in[i] {
					in[i] = w
					changed = true
				}
			}
		}
	}
}

// succs calls f with each successor block of block b.
func (s *regScratch) succs(b int, f func(int)) {
	last := &s.ff.Code[s.starts[b+1]-1]
	switch last.Op {
	case ir.FRet:
		return
	case ir.FJmp:
		f(int(s.blockAt[last.A]))
		return
	case ir.FJmpZ, ir.FJmpNZ, ir.FJmpEqImm:
		f(int(s.blockAt[last.B]))
	}
	if b+1 < len(s.starts)-1 {
		f(b + 1)
	}
}

// sweep walks each block backward from its live-out set, deleting pure
// instructions with a dead destination and folding "op t; move r, t"
// into "op r" when t dies at the move.
func (s *regScratch) sweep() {
	ff := s.ff
	code := ff.Code
	live := s.live
	for b := 0; b < len(s.starts)-1; b++ {
		copy(live, s.set(s.liveOut, b))
		start := s.starts[b]
		for pc := s.starts[b+1] - 1; pc >= start; pc-- {
			in := &code[pc]
			if in.Op == ir.FNop {
				continue
			}
			rs := in.Op.Regs()
			if rs.A == ir.RegDef && !hasBit(live, in.A) && rs.Pure {
				in.Op = ir.FNop
				s.changed = true
				continue
			}
			if in.Op == ir.FMove && !hasBit(live, in.B) {
				if prev := s.foldable(pc, start, in.B); prev >= 0 {
					code[prev].A = in.A
					in.Op = ir.FNop
					s.changed = true
					continue
				}
			}
			if rs.A == ir.RegDef {
				clearBit(live, in.A)
			}
			ff.VisitUses(in, func(r *int32) { setBit(live, *r) })
		}
	}
}

// foldable returns the pc of the instruction that defines t just before
// the move at pc, with only deleted instructions between them, or -1. The
// search stops at the block's first pc, so a move that is a jump target
// never folds.
func (s *regScratch) foldable(pc, start, t int32) int32 {
	for p := pc - 1; p >= start; p-- {
		if in := &s.ff.Code[p]; in.Op != ir.FNop {
			if in.Op.Regs().A == ir.RegDef && in.A == t {
				return p
			}
			return -1
		}
	}
	return -1
}
