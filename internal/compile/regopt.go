package compile

// The regopt pass: removes the register traffic that the linearizer's
// stack-wise allocation leaves behind. Every expression lands in a fresh
// temporary, so a promoted local is read through an FMove into a
// temporary and written back through another, and a statement's result
// register is computed even when nothing reads it. On the Table-1 models
// FMove alone was a quarter to a third of all dispatches.
//
// The pass works in three steps over each function:
//
//   - one forward walk doing copy propagation inside basic blocks (after
//     FMove r, s, a read of r reads s instead while neither r nor s has
//     been redefined; copies do not cross block leaders: jump targets,
//     and the instruction after a jump or ret) and value numbering over
//     extended blocks (number: a pure computation repeating one whose
//     value a register still holds becomes a move from that register);
//   - liveness of every register at block boundaries, on uint64 bitsets;
//   - one backward sweep per block that deletes pure instructions whose
//     destination is dead, rewrites "op t, ...; FMove r, t" into
//     "op r, ..." when t is dead after the move and no jump targets it,
//     and, under the same two conditions on the intermediate register,
//     fuses the hot pairs left into superinstructions: a frame-slot load
//     (FLoadFrame), an immediate add (FAddImm), compare-and-branch
//     (FBrEq..FBrGe) and compare-with-immediate branches
//     (FBrEqImm..FBrGeImm), indexed loads and stores whose address is an
//     add (FLoadIdx, FLoadChkIdx, FStoreIdx), and a constant multiplier,
//     divisor or shift count (FMulImm, FModImm, FShrImm). fuse lists the
//     pairs.
//
// The pass only deletes instructions, renames register operands
// (including CallInfo.Args/FnReg and BuiltinInfo.Args), replaces a pure
// computation by a move of the same value, and fuses pairs into
// instructions whose VM handlers run both halves in order, so the VM, its
// statistics and every observable of a run are unchanged. Only the pure
// opcodes of ir.OpRegs are ever deleted; divide and modulo, which can
// fail, are kept even when their result is dead, and are replaced only by
// a move of a quotient already computed without failing.

import (
	"math"
	"sync"

	"repro/internal/ir"
)

// scratchPool keeps regopt's buffers from one program to the next, so a
// run of builds allocates them only when a function outgrows every
// function before it.
var scratchPool = sync.Pool{New: func() any { return new(regScratch) }}

// regopt runs the pass over every function of p, reusing one set of
// scratch buffers.
func regopt(p *ir.Program) {
	s := scratchPool.Get().(*regScratch)
	for _, ff := range p.Flat.Funcs {
		s.run(ff)
	}
	s.ff = nil
	scratchPool.Put(s)
}

// regScratch holds the pass's per-function working state. The buffers are
// resized, never shrunk, so a program's functions share one allocation.
type regScratch struct {
	ff *ir.FlatFunc

	leader  []bool  // pc starts a basic block
	target  []bool  // pc is a jump target
	starts  []int32 // block b covers [starts[b], starts[b+1])
	blockAt []int32 // the block a leader pc starts

	// Registers: the per-register buffers and the bitsets cover regCap
	// registers, the function's own regBase and the fresh registers value
	// numbering may add above them.
	regBase, regCap int

	// Copy propagation. copySrc[r] is the register r was last copied
	// from; the copy holds while the source still carries the definition
	// stamp copyStamp[r] and the block epoch is copyEpoch[r]. A definition
	// of r itself resets copyEpoch[r].
	defStamp  []int64
	copySrc   []int32
	copyStamp []int64
	copyEpoch []int32
	stamp     int64 // the last definition stamp handed out

	// Value numbering over extended blocks (see number). vn[r] is the
	// number of the value in r, meaningful while vnEpoch[r] is the
	// current extended block's epoch ebb; a register the block has not
	// written gets a number of its own on first read. values lists the
	// block's computations, found through the open-addressed table slots
	// (an index into values, occupied while slotEpoch is ebb).
	vn        []int64
	vnEpoch   []int32
	values    []vnValue
	slots     []int32
	slotEpoch []int32
	ebb       int32 // never reset, so stale epochs never match
	vnBase    int64 // the extended block's number for register 0's content
	nextVN    int64
	fresh     int // fresh registers the current extended block took
	maxFresh  int // the most any extended block took

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

// blocks marks block leaders and jump targets and records each block's
// first pc.
func (s *regScratch) blocks() {
	code := s.ff.Code
	n := len(code)
	s.leader = grow(s.leader, n+1)
	s.target = grow(s.target, n+1)
	s.leader[0] = true
	for pc := range code {
		in := &code[pc]
		if t := in.Target(); t != nil {
			s.leader[*t] = true
			s.target[*t] = true
			s.leader[pc+1] = true
		} else if in.Op == ir.FRet {
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

// minFresh is the fewest fresh registers value numbering may add to a
// function; the per-register buffers round up to whole bitset words
// above it.
const minFresh = 8

// propagate rewrites register reads through the copies live at each
// instruction, reuses the values numbered available (number), deletes
// moves that become r <- r, and records each block's upward-exposed uses
// and definitions for the liveness solve.
func (s *regScratch) propagate() {
	ff := s.ff
	s.regBase = ff.NumRegs
	s.regCap = (ff.NumRegs + minFresh + 63) &^ 63
	s.defStamp = grow(s.defStamp, s.regCap)
	s.copySrc = grow(s.copySrc, s.regCap)
	s.copyStamp = grow(s.copyStamp, s.regCap)
	s.copyEpoch = grow(s.copyEpoch, s.regCap)
	s.vn = grow(s.vn, s.regCap)
	s.vnEpoch = grow(s.vnEpoch, s.regCap)
	size := 1
	for size < 2*len(ff.Code) {
		size <<= 1
	}
	s.slots = grow(s.slots, size)
	s.slotEpoch = grow(s.slotEpoch, size)
	s.maxFresh = 0
	s.initSets(s.regCap)
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
		start := s.starts[b]
		if start == 0 || s.target[start] || ff.Code[start-1].Op == ir.FJmp || ff.Code[start-1].Op == ir.FRet {
			s.newExtendedBlock()
		}
		for pc := start; pc < s.starts[b+1]; pc++ {
			in := &ff.Code[pc]
			ff.VisitUses(in, rename)
			if in.Op.Regs().A != ir.RegDef {
				continue
			}
			s.number(pc, b, in)
			if in.Op == ir.FMove && in.A == in.B {
				in.Op = ir.FNop
				s.changed = true
				continue
			}
			setBit(def, in.A)
			s.stamp++
			s.defStamp[in.A] = s.stamp
			s.copyEpoch[in.A] = 0
			if in.Op == ir.FMove {
				s.copySrc[in.A] = in.B
				s.copyStamp[in.A] = s.defStamp[in.B]
				s.copyEpoch[in.A] = epoch
			}
		}
	}
	ff.NumRegs = s.regBase + s.maxFresh
}

// vnValue is one computation value numbering has seen in the current
// extended block: its key (opcode, operand value numbers, immediate), the
// number of its value, and the instruction that computed it into reg.
type vnValue struct {
	op        ir.Op
	b, c, imm int64
	vn        int64
	reg, pc   int32
	block     int32 // the basic block of pc
	reuse     bool  // later computations may read reg instead
}

// newExtendedBlock empties the value table: the next block is entered
// from more than its fall-through predecessor, or from none.
func (s *regScratch) newExtendedBlock() {
	s.ebb++
	s.values = s.values[:0]
	s.fresh = 0
	// A register the block reads before writing it numbers as vnBase + r:
	// its content on entry is unknown, and unrelated to any other's.
	s.vnBase = s.nextVN
	s.nextVN += int64(s.regCap)
}

// vnOf returns the value number of the content of register r.
func (s *regScratch) vnOf(r int32) int64 {
	if s.vnEpoch[r] != s.ebb {
		s.vnEpoch[r] = s.ebb
		s.vn[r] = s.vnBase + int64(r)
	}
	return s.vn[r]
}

func (s *regScratch) setVN(r int32, v int64) {
	s.vnEpoch[r] = s.ebb
	s.vn[r] = v
}

// number is value numbering over extended blocks, run on each
// instruction that writes a register, after copy propagation renamed its
// reads. An extended block is a run of blocks each entered only by the
// fall-through of the conditional branch ending the one before, so every
// computation earlier in the run has executed, in code order, whenever a
// later one runs. A pure computation (arithmetic, comparison, unary, an
// immediate form, divide or modulo) whose opcode and operand values
// repeat an earlier one's becomes a move from the register that holds
// that value. A repeated divide or modulo cannot fail, since the first
// did not. Constants number by their value, so 2048*k matches 2048*k
// whichever registers held 2048; they, and loads, checks, calls,
// builtins and casts, are never replaced.
func (s *regScratch) number(pc int32, b int, in *ir.Instr) {
	op := in.Op
	v := vnValue{op: op}
	switch op {
	case ir.FMove:
		s.setVN(in.A, s.vnOf(in.B))
		return
	case ir.FConst:
		v.imm = in.Imm
	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FMod, ir.FAnd, ir.FOr, ir.FXor,
		ir.FShl, ir.FShr, ir.FEq, ir.FNe, ir.FLt, ir.FLe, ir.FGt, ir.FGe:
		v.b, v.c = s.vnOf(in.B), s.vnOf(in.C)
		switch op {
		case ir.FAdd, ir.FMul, ir.FAnd, ir.FOr, ir.FXor, ir.FEq, ir.FNe:
			v.b, v.c = min(v.b, v.c), max(v.b, v.c)
		}
	case ir.FNeg, ir.FNot, ir.FBitNot, ir.FSetNZ:
		v.b = s.vnOf(in.B)
	case ir.FAddImm, ir.FMulImm, ir.FModImm, ir.FShrImm:
		v.b, v.imm = s.vnOf(in.B), in.Imm
	default:
		s.nextVN++
		s.setVN(in.A, s.nextVN)
		return
	}
	v.reuse = op != ir.FConst && !s.fusesWithNext(pc)
	slot := s.lookup(&v)
	if s.slotEpoch[slot] == s.ebb {
		e := &s.values[s.slots[slot]]
		if op != ir.FConst {
			if r, ok := s.holder(e, pc); ok {
				*in = ir.Instr{Op: ir.FMove, A: in.A, B: r}
				// The move reads r, which an earlier block of the
				// extended block may have written: record the use.
				if !hasBit(s.set(s.def, b), r) {
					setBit(s.set(s.use, b), r)
				}
			} else {
				// Recomputed: this instruction holds the value now.
				e.reg, e.pc, e.block, e.reuse = in.A, pc, int32(b), v.reuse
			}
		}
		s.setVN(in.A, e.vn)
		return
	}
	s.nextVN++
	v.vn, v.reg, v.pc, v.block = s.nextVN, in.A, pc, int32(b)
	s.slotEpoch[slot] = s.ebb
	s.slots[slot] = int32(len(s.values))
	s.values = append(s.values, v)
	s.setVN(in.A, v.vn)
}

// lookup returns the slot of v's key in the value table: the slot holding
// an equal key, or the empty slot where it belongs.
func (s *regScratch) lookup(v *vnValue) int {
	h := uint64(v.op) ^ uint64(v.b)*0x9e3779b97f4a7c15 ^ uint64(v.c)*0xc2b2ae3d27d4eb4f ^ uint64(v.imm)*0x165667b19e3779f9
	h ^= h >> 29
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if s.slotEpoch[i] != s.ebb {
			return i
		}
		if e := &s.values[s.slots[i]]; e.op == v.op && e.b == v.b && e.c == v.c && e.imm == v.imm {
			return i
		}
	}
}

// fusesWithNext reports whether the instruction at pc and the next one
// form a pair the sweep fuses: an add whose sum the next instruction loads
// through into the same register, or a comparison or setnz the next
// instruction branches on. Reusing such a value would keep it live past
// the pair and cost the fusion, so the value is not offered.
func (s *regScratch) fusesWithNext(pc int32) bool {
	code := s.ff.Code
	if int(pc)+1 >= len(code) || s.leader[pc+1] {
		return false
	}
	in, nx := &code[pc], &code[pc+1]
	switch {
	case in.Op == ir.FAdd:
		return (nx.Op == ir.FLoadAcc || nx.Op == ir.FLoadChk) && nx.B == in.A && nx.A == in.A
	case in.Op.IsCmp(), in.Op == ir.FSetNZ:
		return (nx.Op == ir.FJmpZ || nx.Op == ir.FJmpNZ) && nx.A == in.A
	}
	return false
}

// holder returns a register holding e's value at pc, if e may be reused.
// When a later write overwrote e.reg inside e's own basic block, e's
// instruction is retargeted to a fresh register, and so are the reads of
// e.reg up to that write: the fresh register then holds the value to pc.
// Fresh registers count up from regBase anew in each extended block, and
// every read of one follows its write in the same extended block, so none
// is ever live into a jump target.
func (s *regScratch) holder(e *vnValue, pc int32) (int32, bool) {
	if !e.reuse {
		return 0, false
	}
	if s.vnOf(e.reg) == e.vn {
		return e.reg, true
	}
	if s.regBase+s.fresh == s.regCap {
		return 0, false
	}
	code := s.ff.Code
	kill := e.pc + 1
	for ; kill < pc; kill++ {
		if s.leader[kill] {
			return 0, false
		}
		if in := &code[kill]; in.Op.Regs().A == ir.RegDef && in.A == e.reg {
			break
		}
	}
	if kill == pc {
		return 0, false
	}
	f := int32(s.regBase + s.fresh)
	s.fresh++
	s.maxFresh = max(s.maxFresh, s.fresh)
	code[e.pc].A = f
	for q := e.pc + 1; q <= kill; q++ {
		s.ff.VisitUses(&code[q], func(r *int32) {
			if *r == e.reg {
				*r = f
			}
		})
	}
	setBit(s.set(s.def, int(e.block)), f)
	s.stamp++
	s.defStamp[f] = s.stamp
	s.copyEpoch[f] = 0
	s.setVN(f, e.vn)
	e.reg = f
	return f, true
}

func setBit(set []uint64, r int32)      { set[r>>6] |= 1 << (r & 63) }
func clearBit(set []uint64, r int32)    { set[r>>6] &^= 1 << (r & 63) }
func hasBit(set []uint64, r int32) bool { return set[r>>6]&(1<<(r&63)) != 0 }

// initSets sizes and clears the per-block bitsets for the current
// function, over nregs registers.
func (s *regScratch) initSets(nregs int) {
	s.words = (nregs + 63) / 64
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
	if last.Op == ir.FRet {
		return
	}
	if t := last.Target(); t != nil {
		f(int(s.blockAt[*t]))
		if last.Op == ir.FJmp {
			return
		}
	}
	if b+1 < len(s.starts)-1 {
		f(b + 1)
	}
}

// sweep walks each block backward from its live-out set, deleting pure
// instructions with a dead destination, folding "op t; move r, t" into
// "op r" when t dies at the move, and fusing the pairs fuse knows. A pair
// is formed when the walk reaches its first instruction: the second is
// the next instruction the walk kept, so every instruction the walk
// deleted between them is already gone.
func (s *regScratch) sweep() {
	ff := s.ff
	code := ff.Code
	live := s.live
	for b := 0; b < len(s.starts)-1; b++ {
		copy(live, s.set(s.liveOut, b))
		start := s.starts[b]
		next, dead := int32(-1), uint8(0) // the last kept pc and its dying operands
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
			if next >= 0 && fuse(in, &code[next], dead) {
				// A branch the pair formed may pair again with the
				// instruction before it: a jmpz or jmpnz left reading x
				// with a setnz or compare of x, a compare-and-branch with
				// the FConst of an operand. live holds the registers live
				// after the branch plus t, the one register the unfused
				// branch read, so an operand dies at the branch when it is
				// t itself or is not live.
				dead = 0
				nx := &code[next]
				dies := func(r int32) bool { return r == in.A || !hasBit(live, r) }
				if (nx.Op == ir.FJmpZ || nx.Op == ir.FJmpNZ || nx.Op.IsBranchRR()) && dies(nx.A) {
					dead |= dyingA
				}
				if nx.Op.IsBranchRR() && dies(nx.B) {
					dead |= dyingB
				}
				s.transfer(in)
				in.Op = ir.FNop
				s.changed = true
				continue
			}
			next, dead = pc, dyingOperands(in, live)
			s.transfer(in)
		}
	}
}

// transfer steps the sweep's live set backward over in.
func (s *regScratch) transfer(in *ir.Instr) {
	if in.Op.Regs().A == ir.RegDef {
		clearBit(s.live, in.A)
	}
	s.ff.VisitUses(in, func(r *int32) { setBit(s.live, *r) })
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

// Bits of dyingOperands: the register in operand A, B or C of the second
// instruction of a candidate pair is dead after it, or it overwrites it.
const (
	dyingA uint8 = 1 << iota
	dyingB
	dyingC
)

// dyingOperands returns which operands of in that a fused pair could
// consume die at in, given the registers live after it.
func dyingOperands(in *ir.Instr, live []uint64) uint8 {
	dies := func(r int32) bool {
		return !hasBit(live, r) || in.Op.Regs().A == ir.RegDef && in.A == r
	}
	var m uint8
	switch in.Op {
	case ir.FLoadAcc, ir.FLoadChk:
		if dies(in.B) {
			m |= dyingB
		}
	case ir.FAdd, ir.FMul:
		if dies(in.B) {
			m |= dyingB
		}
		if dies(in.C) {
			m |= dyingC
		}
	case ir.FSub, ir.FMod, ir.FShr:
		if dies(in.C) {
			m |= dyingC
		}
	case ir.FJmpZ, ir.FJmpNZ, ir.FStoreAcc:
		if dies(in.A) {
			m |= dyingA
		}
	}
	return m
}

// fuse rewrites the pair "first; in" into one instruction in place of in
// when first defines a temporary t that in consumes in an operand dead
// lists as dying. The caller deletes first.
//
//   - FFrame t, s; FLoadAcc d, t          -> FLoadFrame d, slot s
//   - FConst t, k; FAdd d, x, t (or t, x) -> FAddImm d, x, k
//   - FConst t, k; FSub d, x, t           -> FAddImm d, x, -k
//   - cmp t, x, y; FJmpZ/FJmpNZ t, L      -> branch on cmp (negated for jmpz)
//   - FSetNZ t, x; FJmpZ/FJmpNZ t, L      -> FJmpZ/FJmpNZ x, L
//   - FAdd t, x, y; FLoadAcc d, t         -> FLoadIdx d, x, y
//   - FAdd t, x, y; FLoadChk d, t         -> FLoadChkIdx d, x, y
//   - FAdd t, x, y; FStoreAcc t, v (v!=t) -> FStoreIdx x, v, y
//   - FConst t, k; FMul d, x, t (or t, x) -> FMulImm d, x, k
//   - FConst t, k; FMod d, x, t (k != 0)  -> FModImm d, x, k
//   - FConst t, k; FShr d, x, t           -> FShrImm d, x, k&63
//   - FConst t, k; br x, t, L (or t, x)   -> the branch on x and immediate
//     k (its comparison swapped when t is the left operand)
//
// Every rewrite reads the same values as the pair and writes the same
// destination, so only t, which nothing reads again, may differ
// afterwards. A modulo by a constant 0 stays, so it still fails.
func fuse(first, in *ir.Instr, dead uint8) bool {
	if dead == 0 {
		return false
	}
	t := first.A
	// kb (kc): first is FConst t, k, and t is in's dying operand B (C) and
	// not also its other operand.
	k := first.Imm
	kb := first.Op == ir.FConst && in.B == t && in.C != t && dead&dyingB != 0
	kc := first.Op == ir.FConst && in.C == t && in.B != t && dead&dyingC != 0
	switch {
	case first.Op == ir.FFrame && in.Op == ir.FLoadAcc && in.B == t:
		*in = ir.Instr{Op: ir.FLoadFrame, A: in.A, B: first.B, C: in.C, Imm: in.Imm}
	case first.Op == ir.FAdd && (in.Op == ir.FLoadAcc || in.Op == ir.FLoadChk) && in.B == t:
		op := ir.FLoadIdx
		if in.Op == ir.FLoadChk {
			op = ir.FLoadChkIdx
		}
		*in = ir.Instr{Op: op, A: in.A, B: first.B, C: first.C, Imm: ir.PackImm(in.C, int32(in.Imm))}
	case first.Op == ir.FAdd && in.Op == ir.FStoreAcc && in.A == t && in.B != t:
		*in = ir.Instr{Op: ir.FStoreIdx, A: first.B, B: in.B, C: first.C, Imm: ir.PackImm(in.C, int32(in.Imm))}
	case (kb || kc) && (in.Op == ir.FAdd || in.Op == ir.FMul):
		op, x := ir.FAddImm, in.B
		if in.Op == ir.FMul {
			op = ir.FMulImm
		}
		if kb {
			x = in.C
		}
		*in = ir.Instr{Op: op, A: in.A, B: x, Imm: k}
	case kc && in.Op == ir.FSub && k != math.MinInt64 && k != math.MaxInt64:
		// x - k == x + -k under wraparound for every k, but absint's
		// intervals saturate at the two extremes, where its negation of
		// k is not -k: those stay unfused.
		*in = ir.Instr{Op: ir.FAddImm, A: in.A, B: in.B, Imm: -k}
	case kc && in.Op == ir.FMod && k != 0:
		*in = ir.Instr{Op: ir.FModImm, A: in.A, B: in.B, Imm: k}
	case kc && in.Op == ir.FShr:
		*in = ir.Instr{Op: ir.FShrImm, A: in.A, B: in.B, Imm: k & 63}
	case first.Op == ir.FConst && in.Op.IsBranchRR() && (in.A == t) != (in.B == t):
		cmp, x, dying := in.Op.BranchCmp(), in.A, dyingB
		if in.A == t {
			cmp, x, dying = cmp.SwapCmp(), in.B, dyingA
		}
		if dead&dying == 0 {
			return false
		}
		*in = ir.Instr{Op: cmp.BranchImm(), A: x, B: in.C, Imm: k}
	case first.Op.IsCmp() && (in.Op == ir.FJmpZ || in.Op == ir.FJmpNZ) && in.A == t:
		cmp := first.Op
		if in.Op == ir.FJmpZ {
			cmp = cmp.NegateCmp()
		}
		*in = ir.Instr{Op: cmp.Branch(), A: first.B, B: first.C, C: in.B}
	case first.Op == ir.FSetNZ && (in.Op == ir.FJmpZ || in.Op == ir.FJmpNZ) && in.A == t:
		in.A = first.B
	default:
		return false
	}
	return true
}
