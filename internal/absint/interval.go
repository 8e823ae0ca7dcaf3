// The interval engine: a fixpoint abstract interpreter over one function's
// flat linear code (ir.FlatFunc). The domain is relational-lite: every
// location (VM register, frame slot, or virtual seed cell) holds an affine
// form over symbols plus a constant interval, a side set of difference
// constraints (form <= bound) harvested from conditional branches, and
// per-register comparison provenance so branch edges can be refined.
// Widening at back-edge targets plus a hard step budget guarantee
// termination on hostile loop bounds.
//
// Symbols come in three flavors:
//
//   - the frame base (symFrame), so frame-slot addresses stay recognizable;
//   - context symbols (ctxSym), bound by the caller to parameter slots or
//     to seeded check sites (a stable-field load, a certified ticket read);
//   - location symbols (one per register/slot/seed cell), the canonical
//     handles constraints refer to.
//
// Soundness discipline: a location symbol means "the current value of that
// location". Every write to a location therefore rewrites or flattens all
// forms, constraints, and comparison records that mention its symbol,
// substituting the pre-write value where it is exact and widening to the
// pre-write interval otherwise.
package absint

import (
	"math"
	"sort"

	"repro/internal/ir"
	"repro/internal/token"
)

const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

// Sym identifies one symbol in an affine form.
type Sym int32

const (
	symFrame Sym = -1      // the function's frame base address
	symSlot0 Sym = 1 << 20 // location symbols of frame slots
	symSeed0 Sym = 1 << 22 // location symbols of virtual seed cells
	symCtx0  Sym = 1 << 24 // pure context symbols (never a location)
)

func symReg(r int32) Sym { return Sym(r) }
func symSlot(s int) Sym  { return symSlot0 + Sym(s) }
func symSeed(k int) Sym  { return symSeed0 + Sym(k) }

// CtxSym returns the k-th pure context symbol.
func CtxSym(k int) Sym { return symCtx0 + Sym(k) }

// form is an affine combination of symbols (coefficient map, no constant).
type form map[Sym]int64

func (f form) clone() form {
	if f == nil {
		return nil
	}
	out := make(form, len(f))
	for s, c := range f {
		out[s] = c
	}
	return out
}

func (f form) equal(g form) bool {
	if len(f) != len(g) {
		return false
	}
	for s, c := range f {
		if g[s] != c {
			return false
		}
	}
	return true
}

// key renders a canonical string for map/sort identity.
func (f form) key() string {
	syms := make([]Sym, 0, len(f))
	for s := range f {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	b := make([]byte, 0, 16*len(syms))
	for _, s := range syms {
		b = appendInt(b, int64(s))
		b = append(b, '*')
		b = appendInt(b, f[s])
		b = append(b, ';')
	}
	return string(b)
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	start := len(b)
	for {
		b = append(b, byte('0'+v%10))
		v /= 10
		if v == 0 {
			break
		}
	}
	for i, j := start, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return b
}

// ---------------------------------------------------------------------------
// saturating interval arithmetic

// addLo adds two lower bounds: -inf is absorbing, overflow saturates down.
func addLo(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return negInf
	}
	return s
}

// addHi adds two upper bounds: +inf is absorbing, overflow saturates up.
func addHi(a, b int64) int64 {
	if a == posInf || b == posInf {
		return posInf
	}
	if a == negInf || b == negInf {
		return negInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return posInf
	}
	return s
}

// mulBound multiplies one interval bound by a finite scalar, keeping the
// infinity sign right and saturating on overflow.
func mulBound(x, c int64) int64 {
	if c == 0 {
		return 0
	}
	if x == negInf {
		if c > 0 {
			return negInf
		}
		return posInf
	}
	if x == posInf {
		if c > 0 {
			return posInf
		}
		return negInf
	}
	p := x * c
	if x != 0 && (p/x != c || (x == -1 && c == negInf)) {
		if (x > 0) == (c > 0) {
			return posInf
		}
		return negInf
	}
	return p
}

// scaleInterval multiplies [lo,hi] by a scalar, swapping ends when negative.
func scaleInterval(lo, hi, c int64) (int64, int64) {
	a, b := mulBound(lo, c), mulBound(hi, c)
	if c < 0 {
		a, b = b, a
	}
	return a, b
}

// ---------------------------------------------------------------------------
// abstract values

// val is one abstract value: the sum of an affine form and a constant drawn
// from [lo, hi]. A nil form is a plain interval; lo == hi makes the value
// exact relative to its symbols.
type val struct {
	f      form
	lo, hi int64
}

func top() val            { return val{lo: negInf, hi: posInf} }
func cst(c int64) val     { return val{lo: c, hi: c} }
func (v val) exact() bool { return v.lo == v.hi }
func (v val) isTop() bool { return len(v.f) == 0 && v.lo == negInf && v.hi == posInf }

func symVal(s Sym) val { return val{f: form{s: 1}} }

func (v val) clone() val { return val{f: v.f.clone(), lo: v.lo, hi: v.hi} }

func (v val) equal(w val) bool {
	return v.lo == w.lo && v.hi == w.hi && v.f.equal(w.f)
}

func (v *val) normalize() {
	for s, c := range v.f {
		if c == 0 {
			delete(v.f, s)
		}
	}
	if len(v.f) == 0 {
		v.f = nil
	}
}

func addVal(a, b val) val {
	out := val{f: a.f.clone(), lo: addLo(a.lo, b.lo), hi: addHi(a.hi, b.hi)}
	if len(b.f) > 0 {
		if out.f == nil {
			out.f = make(form, len(b.f))
		}
		for s, c := range b.f {
			out.f[s] += c
		}
	}
	out.normalize()
	return out
}

func negVal(a val) val {
	out := val{lo: mulBound(a.hi, -1), hi: mulBound(a.lo, -1)}
	if len(a.f) > 0 {
		out.f = make(form, len(a.f))
		for s, c := range a.f {
			out.f[s] = -c
		}
	}
	return out
}

func subVal(a, b val) val { return addVal(a, negVal(b)) }

// scaleVal multiplies by a finite scalar; coefficient overflow gives top.
func scaleVal(a val, c int64) val {
	if c == 0 {
		return cst(0)
	}
	out := val{}
	out.lo, out.hi = scaleInterval(a.lo, a.hi, c)
	if len(a.f) > 0 {
		out.f = make(form, len(a.f))
		for s, k := range a.f {
			p := k * c
			if k != 0 && p/k != c {
				return top()
			}
			out.f[s] = p
		}
	}
	out.normalize()
	return out
}

// substitute replaces sym s in v with value r (v's coefficient on s times r
// is folded into the remaining form/interval).
func substitute(v val, s Sym, r val) val {
	c := v.f[s]
	if c == 0 {
		return v
	}
	rest := val{f: v.f.clone(), lo: v.lo, hi: v.hi}
	delete(rest.f, s)
	rest.normalize()
	return addVal(rest, scaleVal(r, c))
}

// ---------------------------------------------------------------------------
// machine state

type constraint struct {
	f form // sum(f) <= b on this path
	b int64
}

const maxConstraints = 48

// cmpRec remembers that a register holds the boolean result of a
// comparison, so branch edges can refine with the comparison's operands.
// orZero marks a join where the other path held the literal 0: "reg != 0"
// still implies the comparison, "reg == 0" implies nothing.
type cmpRec struct {
	op     ir.Op
	l, r   val
	orZero bool
}

func (c cmpRec) equal(d cmpRec) bool {
	return c.op == d.op && c.l.equal(d.l) && c.r.equal(d.r)
}

type aState struct {
	vals []val
	cons []constraint
	cmps map[int32]cmpRec
}

func (st *aState) clone() *aState {
	out := &aState{
		vals: make([]val, len(st.vals)),
		cons: make([]constraint, len(st.cons)),
		cmps: make(map[int32]cmpRec, len(st.cmps)),
	}
	for i, v := range st.vals {
		out.vals[i] = v.clone()
	}
	for i, c := range st.cons {
		out.cons[i] = constraint{f: c.f.clone(), b: c.b}
	}
	for r, c := range st.cmps {
		out.cmps[r] = cmpRec{op: c.op, l: c.l.clone(), r: c.r.clone(), orZero: c.orZero}
	}
	return out
}

func (st *aState) equal(o *aState) bool {
	if len(st.vals) != len(o.vals) || len(st.cons) != len(o.cons) || len(st.cmps) != len(o.cmps) {
		return false
	}
	for i := range st.vals {
		if !st.vals[i].equal(o.vals[i]) {
			return false
		}
	}
	am, bm := st.conMap(), o.conMap()
	for k, b := range am {
		ob, ok := bm[k]
		if !ok || ob != b {
			return false
		}
	}
	for r, c := range st.cmps {
		d, ok := o.cmps[r]
		if !ok || !c.equal(d) || c.orZero != d.orZero {
			return false
		}
	}
	return true
}

func (st *aState) conMap() map[string]int64 {
	m := make(map[string]int64, len(st.cons))
	for _, c := range st.cons {
		k := c.f.key()
		if b, ok := m[k]; !ok || c.b < b {
			m[k] = c.b
		}
	}
	return m
}

func (st *aState) addConstraint(f form, b int64) {
	if len(f) == 0 {
		return
	}
	for i := range st.cons {
		if st.cons[i].f.equal(f) {
			if b < st.cons[i].b {
				st.cons[i].b = b
			}
			return
		}
	}
	if len(st.cons) < maxConstraints {
		st.cons = append(st.cons, constraint{f: f.clone(), b: b})
	}
}

// ---------------------------------------------------------------------------
// the engine

// engine runs the fixpoint over one FlatFunc.
type engine struct {
	ff   *ir.FlatFunc
	prog *ir.Program

	numRegs    int
	frameSize  int
	paramSlots []int // frame slot of each parameter
	numSeeds   int

	ctx      map[int]val   // frame slot -> initial value (parameter bindings)
	tauSeeds map[int32]int // check index -> seed cell: fresh value per load
	piSeeds  map[int32]Sym // check index -> pure ctx sym: stable value per load

	budget int
	steps  int
	gaveUp bool
	// unknownOps counts steps of instructions whose opcode step does not
	// know; every opcode below ir.NumOps must keep it at zero.
	unknownOps int

	states []*aState
}

func newEngine(prog *ir.Program, fnIdx int, ctx map[int]val, tauSeeds map[int32]int, piSeeds map[int32]Sym, numSeeds, budget int) *engine {
	ff := prog.Flat.Funcs[fnIdx]
	return &engine{
		ff:         ff,
		prog:       prog,
		numRegs:    ff.NumRegs,
		frameSize:  prog.Funcs[fnIdx].FrameSize,
		paramSlots: prog.Funcs[fnIdx].ParamSlots,
		numSeeds:   numSeeds,
		ctx:        ctx,
		tauSeeds:   tauSeeds,
		piSeeds:    piSeeds,
		budget:     budget,
	}
}

func (e *engine) numLocs() int { return e.numRegs + e.frameSize + e.numSeeds }

func (e *engine) locSym(loc int) Sym {
	switch {
	case loc < e.numRegs:
		return symReg(int32(loc))
	case loc < e.numRegs+e.frameSize:
		return symSlot(loc - e.numRegs)
	default:
		return symSeed(loc - e.numRegs - e.frameSize)
	}
}

func (e *engine) symLoc(s Sym) (int, bool) {
	switch {
	case s >= 0 && int(s) < e.numRegs:
		return int(s), true
	case s >= symSlot0 && int(s-symSlot0) < e.frameSize:
		return e.numRegs + int(s-symSlot0), true
	case s >= symSeed0 && s < symCtx0 && int(s-symSeed0) < e.numSeeds:
		return e.numRegs + e.frameSize + int(s-symSeed0), true
	}
	return 0, false
}

func (e *engine) initState() *aState {
	st := &aState{vals: make([]val, e.numLocs()), cmps: make(map[int32]cmpRec)}
	for i := range st.vals {
		st.vals[i] = top()
	}
	for slot, v := range e.ctx {
		if slot >= 0 && slot < e.frameSize {
			st.vals[e.numRegs+slot] = v.clone()
		}
	}
	// A promoted parameter is read from its register, which the VM seeds
	// with the argument: it carries the same binding as the slot.
	for i, r := range e.ff.ParamRegs {
		if v, ok := e.ctx[e.paramSlots[i]]; ok && r >= 0 {
			st.vals[r] = v.clone()
		}
	}
	return st
}

// read yields the operand value of a location, always as a reference to the
// location's own symbol. Referencing instead of substituting keeps forms
// syntactically stable across loop iterations — a loop-carried register is
// an exact constant on the first pass and an interval afterwards, and
// substituting eagerly would make dependent forms differ at the loop-head
// join, collapsing them to plain intervals. Exact values are recovered at
// use sites through resolveExact; overwrites substitute the old value via
// the kill discipline in write.
func (e *engine) read(st *aState, loc int) val {
	return symVal(e.locSym(loc))
}

func (e *engine) readReg(st *aState, r int32) val { return e.read(st, int(r)) }

// resolveExact substitutes location symbols whose current value is exact,
// normalizing a form to context symbols, the frame base, and inexact
// locations only.
func (e *engine) resolveExact(st *aState, v val) val {
	for iter := 0; iter < 64; iter++ {
		done := true
		for s := range v.f {
			loc, ok := e.symLoc(s)
			if !ok {
				continue
			}
			lv := st.vals[loc]
			if lv.exact() && lv.f[s] == 0 {
				v = substitute(v, s, lv)
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return v
}

// resolveForms substitutes location symbols whose current value is exact
// and structural — a non-empty affine form — leaving symbols with plain
// constant values referenced. Temporary-register chains fold down to stable
// base symbols (frame slots, context, seeds) while loop-carried locations,
// whose values are constants on the first fixpoint pass and intervals
// later, keep their iteration-stable symbolic reference.
func (e *engine) resolveForms(st *aState, v val) val {
	for iter := 0; iter < 64; iter++ {
		done := true
		for s := range v.f {
			loc, ok := e.symLoc(s)
			if !ok {
				continue
			}
			lv := st.vals[loc]
			if lv.exact() && len(lv.f) > 0 && lv.f[s] == 0 {
				v = substitute(v, s, lv)
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return v
}

// flatten evaluates v to a plain interval: the frame base and context
// symbols are unbounded; location symbols recurse into their values.
func (e *engine) flatten(st *aState, v val, depth int) (int64, int64) {
	lo, hi := v.lo, v.hi
	for s, c := range v.f {
		var sl, sh int64 = negInf, posInf
		if loc, ok := e.symLoc(s); ok && depth > 0 {
			lv := st.vals[loc]
			if lv.f[s] == 0 { // guard against self-reference
				sl, sh = e.flatten(st, lv, depth-1)
			}
		}
		a, b := scaleInterval(sl, sh, c)
		lo, hi = addLo(lo, a), addHi(hi, b)
	}
	return lo, hi
}

// frameReach reports whether v's form can transitively reach the frame
// base symbol — if so, a store through it may alias any frame slot.
func (e *engine) frameReach(st *aState, v val, depth int) bool {
	if v.f[symFrame] != 0 {
		return true
	}
	if depth == 0 {
		return false
	}
	for s := range v.f {
		if loc, ok := e.symLoc(s); ok {
			lv := st.vals[loc]
			if lv.f[s] == 0 && e.frameReach(st, lv, depth-1) {
				return true
			}
		}
	}
	return false
}

// write stores v into loc, maintaining the symbol discipline: forms,
// constraints, and comparison records that mention the location's old
// symbol are rewritten with the old value when exact, or widened to its
// interval otherwise.
func (e *engine) write(st *aState, loc int, v val) {
	s := e.locSym(loc)
	old := st.vals[loc]
	if v.f[s] != 0 {
		v = substitute(v, s, old)
	}
	for m := range st.vals {
		if m == loc || st.vals[m].f[s] == 0 {
			continue
		}
		nv := substitute(st.vals[m], s, old)
		if nv.f[e.locSym(m)] != 0 { // defensive: never allow self-mention
			lo, hi := e.flatten(st, nv, 8)
			nv = val{lo: lo, hi: hi}
		}
		st.vals[m] = nv
	}
	if len(st.cons) > 0 {
		kept := st.cons[:0]
		for _, c := range st.cons {
			k := c.f[s]
			if k == 0 {
				kept = append(kept, c)
				continue
			}
			if old.exact() && old.f[s] == 0 {
				// c.f contains k*s; s == old.f + old.lo exactly.
				nf := c.f.clone()
				delete(nf, s)
				for os, oc := range old.f {
					nf[os] += oc * k
				}
				for os, oc := range nf {
					if oc == 0 {
						delete(nf, os)
					}
				}
				nb := addHi(c.b, mulBound(old.lo, -k))
				if nb != posInf && len(nf) > 0 {
					kept = append(kept, constraint{f: nf, b: nb})
				}
				continue
			}
			// Weaken: rest + k*s <= b and k*s >= min(k*lo, k*hi).
			olo, ohi := e.flatten(st, old, 8)
			a, _ := scaleInterval(olo, ohi, k)
			if a == negInf {
				continue
			}
			nf := c.f.clone()
			delete(nf, s)
			if len(nf) == 0 {
				continue
			}
			kept = append(kept, constraint{f: nf, b: addHi(c.b, -a)})
		}
		st.cons = kept
	}
	for r, c := range st.cmps {
		if c.l.f[s] != 0 || c.r.f[s] != 0 {
			if old.exact() && old.f[s] == 0 {
				c.l = substitute(c.l, s, old)
				c.r = substitute(c.r, s, old)
				st.cmps[r] = c
			} else {
				delete(st.cmps, r)
			}
		}
	}
	if loc < e.numRegs {
		delete(st.cmps, int32(loc))
	}
	v.normalize()
	st.vals[loc] = v
}

func (e *engine) writeReg(st *aState, r int32, v val) { e.write(st, int(r), v) }

// havocSlots forgets everything about frame memory (a store through an
// unresolved frame-derived or unknown pointer may have hit any slot).
func (e *engine) havocSlots(st *aState) {
	for s := 0; s < e.frameSize; s++ {
		e.write(st, e.numRegs+s, top())
	}
}

// slotOf decodes a resolved address as a frame slot.
func (e *engine) slotOf(v val) (int, bool) {
	if len(v.f) == 1 && v.f[symFrame] == 1 && v.exact() && v.lo >= 0 && v.lo < int64(e.frameSize) {
		return int(v.lo), true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// branch refinement

// refine narrows st for the edge where register r is zero (truth=false) or
// nonzero (truth=true). Returns false when the edge is infeasible.
func (e *engine) refine(st *aState, r int32, truth bool) bool {
	v := st.vals[r]
	if !truth {
		// r == 0: meet the register's interval with [0,0].
		if len(v.f) == 0 {
			if v.lo > 0 || v.hi < 0 {
				return false
			}
			st.vals[r] = cst(0)
		}
	} else if len(v.f) == 0 && v.lo == 0 && v.hi == 0 {
		return false // r != 0 is impossible
	}
	c, ok := st.cmps[r]
	if !ok {
		return true
	}
	if !truth {
		// Consume the record on the zero edge: r == 0 pins the register to
		// a constant, and a stale record would defeat the orZero join rule
		// that recovers short-circuit conjuncts.
		delete(st.cmps, r)
		if c.orZero {
			return true
		}
	}
	return e.applyCmp(st, c, truth)
}

// applyCmp adds the difference constraints implied by cmp being truth. The
// operands are resolved against the current state first: records hold
// symbolic references, and resolution folds chained exact registers so the
// constraint lands on the same base symbols check residuals resolve to.
func (e *engine) applyCmp(st *aState, c cmpRec, truth bool) bool {
	d := subVal(e.resolveExact(st, c.l), e.resolveExact(st, c.r)) // l - r
	type rel struct {
		neg bool  // constrain -d instead of d
		k   int64 // ... <= k
	}
	var rels []rel
	switch c.op {
	case ir.FLt:
		if truth {
			rels = []rel{{false, -1}} // l - r <= -1
		} else {
			rels = []rel{{true, 0}} // r - l <= 0
		}
	case ir.FLe:
		if truth {
			rels = []rel{{false, 0}}
		} else {
			rels = []rel{{true, -1}}
		}
	case ir.FGt:
		if truth {
			rels = []rel{{true, -1}}
		} else {
			rels = []rel{{false, 0}}
		}
	case ir.FGe:
		if truth {
			rels = []rel{{true, 0}}
		} else {
			rels = []rel{{false, -1}}
		}
	case ir.FEq:
		if truth {
			rels = []rel{{false, 0}, {true, 0}}
		}
	case ir.FNe:
		if !truth {
			rels = []rel{{false, 0}, {true, 0}}
		}
	}
	for _, rl := range rels {
		dv := d
		if rl.neg {
			dv = negVal(d)
		}
		if !e.applyLe(st, dv, rl.k) {
			return false
		}
	}
	return true
}

// applyLe records value(dv) <= k: infeasibility check, single-variable
// interval tightening, or a stored constraint.
func (e *engine) applyLe(st *aState, dv val, k int64) bool {
	if len(dv.f) == 0 {
		return dv.lo <= k
	}
	if dv.lo == negInf {
		return true // nothing to conclude about the form
	}
	b := k - dv.lo // form <= b
	if len(dv.f) == 1 {
		for s, c := range dv.f {
			loc, ok := e.symLoc(s)
			if !ok {
				st.addConstraint(dv.f, b)
				return true
			}
			lv := st.vals[loc]
			if len(lv.f) == 0 {
				// c*s <= b: tighten the location's interval directly.
				if c > 0 {
					nb := floorDiv(b, c)
					if lv.lo != negInf && lv.lo > nb {
						return false
					}
					if nb < lv.hi {
						lv.hi = nb
						st.vals[loc] = lv
					}
				} else {
					nb := ceilDiv(b, c)
					if lv.hi != posInf && lv.hi < nb {
						return false
					}
					if nb > lv.lo {
						lv.lo = nb
						st.vals[loc] = lv
					}
				}
				return true
			}
			st.addConstraint(dv.f, b)
			return true
		}
	}
	st.addConstraint(dv.f, b)
	return true
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// ---------------------------------------------------------------------------
// join and widening

func joinState(e *engine, sa, sb *aState) *aState {
	out := &aState{vals: make([]val, len(sa.vals)), cmps: make(map[int32]cmpRec)}
	for i := range sa.vals {
		va, vb := sa.vals[i], sb.vals[i]
		if va.f.equal(vb.f) {
			lo, hi := va.lo, va.hi
			if vb.lo < lo {
				lo = vb.lo
			}
			if vb.hi > hi {
				hi = vb.hi
			}
			out.vals[i] = val{f: va.f.clone(), lo: lo, hi: hi}
			continue
		}
		alo, ahi := e.flatten(sa, va, 8)
		blo, bhi := e.flatten(sb, vb, 8)
		if blo < alo {
			alo = blo
		}
		if bhi > ahi {
			ahi = bhi
		}
		out.vals[i] = val{lo: alo, hi: ahi}
	}
	// A constraint survives the join if both sides admit it: with the same
	// form on the other side the bounds max; a constraint missing on one
	// side can still be recovered when that side's intervals imply some
	// finite bound — on the first loop pass the variables are exact
	// constants and the guard refinement never stores the constraint, yet
	// the plain evaluation proves a tighter one.
	bm := sb.conMap()
	am := sa.conMap()
	joinCons := func(from, other *aState, cons []constraint, om map[string]int64, both bool) {
		for _, c := range cons {
			if ob, ok := om[c.f.key()]; ok {
				if !both {
					continue // handled from the other side's loop
				}
				b := c.b
				if ob > b {
					b = ob
				}
				out.addConstraint(c.f, b)
				continue
			}
			ohi := e.flatForm(other, c.f, true)
			if ohi == posInf {
				continue
			}
			b := c.b
			if ohi > b {
				b = ohi
			}
			out.addConstraint(c.f, b)
		}
	}
	joinCons(sa, sb, sa.cons, bm, true)
	joinCons(sb, sa, sb.cons, am, false)
	for r, ca := range sa.cmps {
		cb, ok := sb.cmps[r]
		if ok && ca.equal(cb) {
			ca.orZero = ca.orZero || cb.orZero
			out.cmps[r] = ca
			continue
		}
		if !ok {
			// The other path holds the literal 0: keep the record guarded.
			vb := sb.vals[r]
			if len(vb.f) == 0 && vb.lo == 0 && vb.hi == 0 {
				ca.orZero = true
				out.cmps[r] = ca
			}
		}
	}
	for r, cb := range sb.cmps {
		if _, ok := sa.cmps[r]; ok {
			continue
		}
		va := sa.vals[r]
		if len(va.f) == 0 && va.lo == 0 && va.hi == 0 {
			cb.orZero = true
			out.cmps[r] = cb
		}
	}
	return out
}

// widenState accelerates convergence at a loop head: unstable bounds go to
// infinity, changed forms to top, constraints only survive unweakened.
func widenState(e *engine, old, next *aState) *aState {
	out := &aState{vals: make([]val, len(old.vals)), cmps: make(map[int32]cmpRec)}
	for i := range old.vals {
		vo, vn := old.vals[i], next.vals[i]
		if !vo.f.equal(vn.f) {
			out.vals[i] = top()
			continue
		}
		lo, hi := vn.lo, vn.hi
		if vn.lo < vo.lo {
			lo = negInf
		}
		if vn.hi > vo.hi {
			hi = posInf
		}
		out.vals[i] = val{f: vn.f.clone(), lo: lo, hi: hi}
	}
	om := old.conMap()
	for _, c := range next.cons {
		if ob, ok := om[c.f.key()]; ok && c.b <= ob {
			out.addConstraint(c.f, c.b)
		}
	}
	for r, cn := range next.cmps {
		if co, ok := old.cmps[r]; ok && cn.equal(co) {
			out.cmps[r] = cn
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// the fixpoint loop

// backEdgeTargets marks pcs that are targets of a backward jump — the
// widening points.
func backEdgeTargets(code []ir.Instr) []bool {
	w := make([]bool, len(code)+1)
	for pc, in := range code {
		if t := in.Target(); t != nil && int(*t) <= pc {
			w[*t] = true
		}
	}
	return w
}

const widenDelay = 2

// run executes the fixpoint. After it returns, states[pc] is the abstract
// state at the entry of each reachable instruction (nil if unreachable or
// the budget ran out).
func (e *engine) run() {
	code := e.ff.Code
	e.states = make([]*aState, len(code))
	widen := backEdgeTargets(code)
	mergeCnt := make([]int, len(code))
	var work []int
	inWork := make([]bool, len(code))
	push := func(pc int) {
		if pc >= 0 && pc < len(code) && !inWork[pc] {
			work = append(work, pc)
			inWork[pc] = true
		}
	}
	e.states[0] = e.initState()
	push(0)
	merge := func(pc int, ns *aState) {
		if pc < 0 || pc >= len(code) {
			return
		}
		if e.states[pc] == nil {
			e.states[pc] = ns
			push(pc)
			return
		}
		j := joinState(e, e.states[pc], ns)
		if widen[pc] {
			mergeCnt[pc]++
			if mergeCnt[pc] > widenDelay {
				j = widenState(e, e.states[pc], j)
			}
		}
		if !j.equal(e.states[pc]) {
			e.states[pc] = j
			push(pc)
		}
	}
	for len(work) > 0 {
		if e.steps >= e.budget {
			e.gaveUp = true
			return
		}
		e.steps++
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		st := e.states[pc].clone()
		e.step(pc, st, merge)
	}
}

// step interprets one instruction, merging into its successors.
func (e *engine) step(pc int, st *aState, merge func(int, *aState)) {
	in := e.ff.Code[pc]
	next := func() { merge(pc+1, st) }
	switch in.Op {
	case ir.FConst:
		e.writeReg(st, in.A, cst(in.Imm))
		next()
	case ir.FStr, ir.FFunc:
		e.writeReg(st, in.A, top())
		next()
	case ir.FFrame:
		e.writeReg(st, in.A, val{f: form{symFrame: 1}, lo: int64(in.B), hi: int64(in.B)})
		next()
	case ir.FMove:
		v := e.readReg(st, in.B)
		c, hasCmp := st.cmps[in.B]
		e.writeReg(st, in.A, v)
		if hasCmp {
			if c2, still := st.cmps[in.B]; still && c2.equal(c) {
				st.cmps[in.A] = c2
			}
		}
		next()
	case ir.FSetNZ:
		c, hasCmp := st.cmps[in.B]
		e.writeReg(st, in.A, val{lo: 0, hi: 1})
		if hasCmp {
			if c2, still := st.cmps[in.B]; still && c2.equal(c) {
				st.cmps[in.A] = c2
			}
		}
		next()
	case ir.FAdd:
		e.binArith(st, in, func(a, b val) val { return addVal(a, b) })
		next()
	case ir.FAddImm:
		// FConst t, Imm; FAdd A, B, t with t dead afterwards.
		e.writeReg(st, in.A, addVal(e.readReg(st, in.B), cst(in.Imm)))
		next()
	case ir.FSub:
		e.binArith(st, in, func(a, b val) val { return subVal(a, b) })
		next()
	case ir.FMul:
		e.binArith(st, in, e.mulVal(st))
		next()
	case ir.FDiv, ir.FAnd, ir.FOr, ir.FXor, ir.FShl, ir.FShr, ir.FBitNot:
		e.writeReg(st, in.A, top())
		next()
	case ir.FMod:
		b := e.resolveExact(st, e.readReg(st, in.C))
		out := top()
		if len(b.f) == 0 && b.exact() && b.lo > 0 {
			m := b.lo
			a := e.resolveExact(st, e.readReg(st, in.B))
			alo, _ := e.flatten(st, a, 8)
			if alo >= 0 {
				out = val{lo: 0, hi: m - 1}
			} else {
				out = val{lo: -(m - 1), hi: m - 1}
			}
		}
		e.writeReg(st, in.A, out)
		next()
	case ir.FNeg:
		e.writeReg(st, in.A, negVal(e.readReg(st, in.B)))
		next()
	case ir.FNot:
		e.writeReg(st, in.A, val{lo: 0, hi: 1})
		next()
	case ir.FEq, ir.FNe, ir.FLt, ir.FLe, ir.FGt, ir.FGe:
		// Record the comparison against stable symbols. Chains through
		// short-lived temporaries are folded structurally (a register that
		// holds "the value loaded from slot 3" becomes a reference to slot
		// 3 itself) so the record survives path joins that destroy the
		// temporary; plain constants stay referenced, because a
		// loop-carried register is an exact constant on the first pass and
		// folding it would make the record differ across iterations and
		// die at the loop-head join. Remaining resolution waits until
		// refinement. The destination often reuses an operand register; a
		// record left referencing the clobbered register would compare
		// against the fresh [0,1] result, so its old value is substituted
		// and the record dropped if the reference cannot be removed.
		l := e.resolveForms(st, e.readReg(st, in.B))
		r := e.resolveForms(st, e.readReg(st, in.C))
		sA := symReg(in.A)
		old := st.vals[in.A]
		if l.f[sA] != 0 {
			l = substitute(l, sA, old)
		}
		if r.f[sA] != 0 {
			r = substitute(r, sA, old)
		}
		e.writeReg(st, in.A, val{lo: 0, hi: 1})
		if l.f[sA] == 0 && r.f[sA] == 0 {
			st.cmps[in.A] = cmpRec{op: in.Op, l: l, r: r}
		}
		next()
	case ir.FJmp:
		merge(int(in.A), st)
	case ir.FJmpZ:
		taken := st.clone()
		if e.refine(taken, in.A, false) {
			merge(int(in.B), taken)
		}
		if e.refine(st, in.A, true) {
			next()
		}
	case ir.FJmpNZ:
		taken := st.clone()
		if e.refine(taken, in.A, true) {
			merge(int(in.B), taken)
		}
		if e.refine(st, in.A, false) {
			next()
		}
	case ir.FBrEq, ir.FBrNe, ir.FBrLt, ir.FBrLe, ir.FBrGt, ir.FBrGe:
		// cmp t, A, B; FJmpNZ t, C with t dead afterwards (a jmpz fuses
		// to the negated comparison, whose edges refine identically):
		// the record the comparison would make, applied on both edges.
		c := cmpRec{
			op: in.Op.BranchCmp(),
			l:  e.resolveForms(st, e.readReg(st, in.A)),
			r:  e.resolveForms(st, e.readReg(st, in.B)),
		}
		taken := st.clone()
		if e.applyCmp(taken, c, true) {
			merge(int(in.C), taken)
		}
		if e.applyCmp(st, c, false) {
			next()
		}
	case ir.FJmpEqImm:
		taken := st.clone()
		v := taken.vals[in.A]
		feasible := true
		if len(v.f) == 0 {
			if v.lo > in.Imm || v.hi < in.Imm {
				feasible = false
			} else {
				taken.vals[in.A] = cst(in.Imm)
			}
		}
		if feasible {
			merge(int(in.B), taken)
		}
		next()
	case ir.FYield, ir.FBarrier, ir.FNop, ir.FChkElided,
		ir.FChkLock, ir.FChkRead, ir.FChkWrite, ir.FCString:
		next()
	case ir.FLoad, ir.FLoadAcc:
		e.loadThrough(st, in.A, in.B, -1)
		next()
	case ir.FLoadFrame:
		// FFrame t, B; FLoadAcc A, t: the load of a known frame slot.
		e.writeReg(st, in.A, e.read(st, e.numRegs+int(in.B)))
		next()
	case ir.FLoadChk:
		e.loadThrough(st, in.A, in.B, in.C)
		next()
	case ir.FStore, ir.FStoreAcc, ir.FStoreChk:
		e.storeThrough(st, in.A, in.B)
		next()
	case ir.FScast:
		addr := e.resolveExact(st, e.readReg(st, in.B))
		if slot, ok := e.slotOf(addr); ok {
			old := e.read(st, e.numRegs+slot)
			e.write(st, e.numRegs+slot, cst(0))
			e.writeReg(st, in.A, old)
		} else {
			if e.frameReach(st, addr, 8) || addr.isTop() {
				e.havocSlots(st)
			}
			e.writeReg(st, in.A, top())
		}
		next()
	case ir.FCall:
		ci := e.ff.Calls[in.B]
		for _, ar := range ci.Args {
			if e.frameReach(st, e.readReg(st, ar), 8) {
				e.havocSlots(st)
				break
			}
		}
		e.writeReg(st, in.A, top())
		next()
	case ir.FBuiltin:
		bi := e.ff.Builtins[in.B]
		for _, ar := range bi.Args {
			if e.frameReach(st, e.readReg(st, ar), 8) {
				e.havocSlots(st)
				break
			}
		}
		e.writeReg(st, in.A, top())
		next()
	case ir.FRet:
		// terminal
	default:
		// Unknown opcode (decoded garbage): be safe, lose everything.
		e.unknownOps++
		e.havocSlots(st)
		for r := 0; r < e.numRegs; r++ {
			e.write(st, r, top())
		}
		next()
	}
}

func (e *engine) binArith(st *aState, in ir.Instr, op func(a, b val) val) {
	a := e.readReg(st, in.B)
	b := e.readReg(st, in.C)
	e.writeReg(st, in.A, op(a, b))
}

// mulVal handles multiplication: a constant side scales the other; two
// plain finite intervals multiply; anything else is top.
func (e *engine) mulVal(st *aState) func(a, b val) val {
	return func(a, b val) val {
		ra := e.resolveExact(st, a)
		rb := e.resolveExact(st, b)
		if len(ra.f) == 0 && ra.exact() {
			return scaleVal(rb, ra.lo)
		}
		if len(rb.f) == 0 && rb.exact() {
			return scaleVal(ra, rb.lo)
		}
		if len(ra.f) == 0 && len(rb.f) == 0 &&
			ra.lo != negInf && ra.hi != posInf && rb.lo != negInf && rb.hi != posInf {
			c1, c2 := scaleInterval(ra.lo, ra.hi, rb.lo)
			c3, c4 := scaleInterval(ra.lo, ra.hi, rb.hi)
			lo, hi := c1, c2
			if c3 < lo {
				lo = c3
			}
			if c4 > hi {
				hi = c4
			}
			return val{lo: lo, hi: hi}
		}
		return top()
	}
}

// loadThrough models a memory load: frame slots read the tracked slot
// value; a π-seeded check yields its stable context symbol; a τ-seeded
// check yields its seed cell's symbol, fresh per execution — the cell is
// rewritten first so stale references from earlier loop iterations widen
// to the old interval; anything else is unknown.
func (e *engine) loadThrough(st *aState, dst, addrReg int32, chkIdx int32) {
	if chkIdx >= 0 {
		if s, ok := e.piSeeds[chkIdx]; ok {
			e.writeReg(st, dst, symVal(s))
			return
		}
		if cell, ok := e.tauSeeds[chkIdx]; ok {
			loc := e.numRegs + e.frameSize + cell
			e.write(st, loc, top())
			e.writeReg(st, dst, symVal(e.locSym(loc)))
			return
		}
	}
	addr := e.resolveExact(st, e.readReg(st, addrReg))
	if slot, ok := e.slotOf(addr); ok {
		e.writeReg(st, dst, e.read(st, e.numRegs+slot))
		return
	}
	e.writeReg(st, dst, top())
}

// storeThrough models a memory store: an exact frame slot is a strong
// update; any other frame-reaching or unknown address havocs the frame;
// a provably non-frame address (heap/global) leaves locations untouched.
func (e *engine) storeThrough(st *aState, addrReg, valReg int32) {
	addr := e.resolveExact(st, e.readReg(st, addrReg))
	if slot, ok := e.slotOf(addr); ok {
		e.write(st, e.numRegs+slot, e.readReg(st, valReg))
		return
	}
	if e.frameReach(st, addr, 8) || addr.isTop() {
		e.havocSlots(st)
	}
}

// ---------------------------------------------------------------------------
// certification queries

// chkAddr is one runtime check with its resolved abstract address.
type chkAddr struct {
	pc    int
	idx   int32
	kind  ir.CheckKind
	write bool
	pos   token.Pos
	v     val     // resolved address form at the check
	st    *aState // state at the check's pc (for bounds)
	live  bool    // the check's pc was reached by the fixpoint
}

// checkAddrs resolves the address of every check instruction under the
// converged states.
func (e *engine) checkAddrs() []chkAddr {
	var out []chkAddr
	for pc, in := range e.ff.Code {
		var idx, addrReg int32
		switch in.Op {
		case ir.FChkRead, ir.FChkWrite, ir.FChkLock, ir.FChkElided:
			idx, addrReg = in.B, in.A
		case ir.FLoadChk:
			idx, addrReg = in.C, in.B
		case ir.FStoreChk:
			idx, addrReg = in.C, in.A
		default:
			continue
		}
		fc := e.ff.Checks[idx]
		ca := chkAddr{pc: pc, idx: idx, kind: fc.Orig.Kind, write: fc.Write}
		if fc.Orig.Kind != ir.CheckNone && fc.Orig.Site >= 0 && fc.Orig.Site < len(e.prog.Sites) {
			ca.pos = e.prog.Sites[fc.Orig.Site].Pos
		}
		if st := e.states[pc]; st != nil {
			ca.live = true
			ca.st = st
			ca.v = e.resolveExact(st, e.read(st, int(addrReg)))
		}
		out = append(out, ca)
	}
	return out
}

// boundForm computes sound bounds of value(f) + [cLo, cHi] in st, using
// location intervals and, for the upper bound, the constraint store.
func (e *engine) boundForm(st *aState, f form, cLo, cHi int64) (int64, int64) {
	hi := addHi(e.upperForm(st, f), cHi)
	lo := addLo(mulBound(e.upperForm(st, negForm(f)), -1), cLo)
	return lo, hi
}

func negForm(f form) form {
	out := make(form, len(f))
	for s, c := range f {
		out[s] = -c
	}
	return out
}

// upperForm bounds value(f) from above: the plain interval evaluation,
// improved by every stored constraint cf <= b via f = cf + (f - cf).
func (e *engine) upperForm(st *aState, f form) int64 {
	best := e.flatForm(st, f, true)
	for _, c := range st.cons {
		rem := f.clone()
		if rem == nil {
			rem = make(form)
		}
		for s, k := range c.f {
			rem[s] -= k
		}
		for s, k := range rem {
			if k == 0 {
				delete(rem, s)
			}
		}
		cand := addHi(c.b, e.flatForm(st, rem, true))
		if cand < best {
			best = cand
		}
	}
	return best
}

// flatForm evaluates a bare form to its upper (or lower) interval bound.
func (e *engine) flatForm(st *aState, f form, upper bool) int64 {
	v := val{f: f}
	lo, hi := e.flatten(st, v, 8)
	if upper {
		return hi
	}
	return lo
}
