package absint

// Engine-level termination tests: the widening discipline must reach a
// fixpoint on hostile loop shapes well inside the step budget, and budget
// exhaustion must surface as gaveUp (the caller then declines to certify)
// rather than an unsound or hung analysis.

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/qualinfer"
	"repro/internal/token"
	"repro/internal/types"
)

// flatProgram compiles src with every check live and linearizes it, the
// same preparation analysisProgram performs for the real tier.
func flatProgram(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.ParseProgram(parser.Source{Name: "loops.shc", Text: src})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	w := types.BuildWorld(prog)
	if len(w.Errors) > 0 {
		t.Fatalf("resolve: %v", w.Errors[0])
	}
	inf := qualinfer.Infer(w)
	p, err := compile.Compile(w, inf, compile.Options{Checks: true, RC: true, RCSiteAnalysis: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// hostileLoops exercises the widening edge cases: an inequality-guarded
// loop whose bound is unknown (i != n never refines to a finite range), a
// down-counting inner loop, a non-unit stride, a loop-carried product, and
// a huge constant bound that plain iteration could never enumerate.
const hostileLoops = `
int hostile(int n, int m) {
	int s = 0;
	for (int i = 0; i != n; i = i + 3) {
		for (int j = m; j > 0; j = j - 1) {
			s = s + j;
		}
		s = s * 2 - s;
	}
	int k = 0;
	while (k < 1000000000) {
		k = k + 7;
	}
	int a = 0;
	int b = 1;
	while (a < n) {
		int t = a + b;
		a = b;
		b = t;
	}
	return s + k + a;
}

int main(void) {
	return hostile(5, 3);
}
`

func TestWideningTerminates(t *testing.T) {
	prog := flatProgram(t, hostileLoops)
	fnIdx, ok := prog.FuncIdx["hostile"]
	if !ok {
		t.Fatal("hostile not compiled")
	}
	eng := newEngine(prog, fnIdx, nil, nil, nil, 1, defaultStepBudget)
	eng.run()
	if eng.gaveUp {
		t.Fatalf("fixpoint hit the %d-step budget on hostile loops (steps=%d)",
			defaultStepBudget, eng.steps)
	}
	if eng.steps >= defaultStepBudget {
		t.Fatalf("steps = %d, want well under the %d budget", eng.steps, defaultStepBudget)
	}
	// Every reachable pc must carry a state: widening may only lose
	// precision, never reachability.
	if eng.states[0] == nil {
		t.Fatal("entry state missing")
	}
}

func TestStepBudgetExhaustionSetsGaveUp(t *testing.T) {
	prog := flatProgram(t, hostileLoops)
	fnIdx := prog.FuncIdx["hostile"]
	eng := newEngine(prog, fnIdx, nil, nil, nil, 1, 25)
	eng.run()
	if !eng.gaveUp {
		t.Fatalf("a 25-step budget must exhaust on hostile loops (steps=%d)", eng.steps)
	}
}

// TestWideningConvergesQuickly pins that widening, not enumeration, does
// the work: a loop bounded by a ten-digit constant converges in a step
// count proportional to the code size, not the trip count.
func TestWideningConvergesQuickly(t *testing.T) {
	src := `
int spin(void) {
	int k = 0;
	while (k < 2000000000) { k = k + 1; }
	return k;
}
int main(void) { return spin(); }
`
	prog := flatProgram(t, src)
	eng := newEngine(prog, prog.FuncIdx["spin"], nil, nil, nil, 1, defaultStepBudget)
	eng.run()
	if eng.gaveUp {
		t.Fatal("gave up on a single counted loop")
	}
	if eng.steps > 2000 {
		t.Fatalf("steps = %d; widening should converge in a handful of passes", eng.steps)
	}
}

// TestStepKnowsEveryOpcode: step's default havocs every register and frame
// slot. That is the sound answer for decoded garbage, but an opcode the
// engine was never taught lands there too and silently costs every proof
// behind it, so each opcode below ir.NumOps must have its own transfer.
func TestStepKnowsEveryOpcode(t *testing.T) {
	ff := &ir.FlatFunc{
		NumRegs:  1,
		Code:     []ir.Instr{{}, {Op: ir.FRet}},
		PosTab:   []token.Pos{{}},
		Checks:   []ir.FlatCheck{{Orig: &ir.Check{}}},
		Calls:    []ir.CallInfo{{Target: 0}},
		Builtins: []ir.BuiltinInfo{{E: &ir.BuiltinCall{Name: "yield"}}},
	}
	prog := &ir.Program{
		Funcs: []*ir.Func{{Name: "f", FrameSize: 1}},
		Flat:  &ir.FlatProgram{Funcs: []*ir.FlatFunc{ff}},
	}
	// stepOnce runs op with every operand 0 (register 0, slot 0, side-table
	// entry 0, jump target 0) from a state where slot 0 holds 5, and returns
	// the engine and the states merged into successors.
	stepOnce := func(op ir.Op) (*engine, []*aState) {
		ff.Code[0] = ir.Instr{Op: op}
		e := newEngine(prog, 0, nil, nil, nil, 1, defaultStepBudget)
		st := e.initState()
		e.write(st, e.numRegs, cst(5))
		var out []*aState
		e.step(0, st, func(_ int, ns *aState) { out = append(out, ns) })
		return e, out
	}
	for op := ir.Op(0); int(op) < ir.NumOps; op++ {
		if e, _ := stepOnce(op); e.unknownOps != 0 {
			t.Errorf("opcode %v falls through to the havoc default", op)
		}
	}
	e, out := stepOnce(ir.Op(ir.NumOps))
	if e.unknownOps != 1 || len(out) != 1 {
		t.Fatalf("garbage opcode: %d unknown steps, %d successors; want 1, 1", e.unknownOps, len(out))
	}
	if v := out[0].vals[e.numRegs]; !v.isTop() {
		t.Errorf("garbage opcode kept slot 0 = %+v; want it havocked", v)
	}
}

// TestFusedTransfersComposeHalves: each indexed-access and
// constant-operand superinstruction leaves every register and frame slot
// the fixpoint tracks exactly as the pair it replaces does, the pair's
// dead temporary r4 aside. r0 is unknown, r1 = 1, r2 = &slot 0, r3 = 7,
// r5 = 0 until the pair writes it, and slot 1 holds 5.
func TestFusedTransfersComposeHalves(t *testing.T) {
	prologue := []ir.Instr{
		{Op: ir.FConst, A: 1, Imm: 1},
		{Op: ir.FFrame, A: 2, B: 0},
		{Op: ir.FConst, A: 3, Imm: 7},
		{Op: ir.FStoreAcc, A: 2, B: 3},
		{Op: ir.FConst, A: 5, Imm: 5},
		{Op: ir.FFrame, A: 4, B: 1},
		{Op: ir.FStoreAcc, A: 4, B: 5},
		{Op: ir.FConst, A: 5, Imm: 0},
	}
	for _, tc := range []struct {
		name        string
		pair, fused []ir.Instr
	}{
		{"loadidx", []ir.Instr{
			{Op: ir.FAdd, A: 4, B: 2, C: 1}, {Op: ir.FLoadAcc, A: 5, B: 4},
		}, []ir.Instr{{Op: ir.FLoadIdx, A: 5, B: 2, C: 1}}},
		{"loadchkidx", []ir.Instr{
			{Op: ir.FAdd, A: 4, B: 1, C: 2}, {Op: ir.FLoadChk, A: 5, B: 4},
		}, []ir.Instr{{Op: ir.FLoadChkIdx, A: 5, B: 1, C: 2}}},
		{"storeidx", []ir.Instr{
			{Op: ir.FAdd, A: 4, B: 2, C: 1}, {Op: ir.FStoreAcc, A: 4, B: 0},
		}, []ir.Instr{{Op: ir.FStoreIdx, A: 2, B: 0, C: 1}}},
		{"storeidx to an unknown address", []ir.Instr{
			{Op: ir.FAdd, A: 4, B: 0, C: 2}, {Op: ir.FStoreAcc, A: 4, B: 3},
		}, []ir.Instr{{Op: ir.FStoreIdx, A: 0, B: 3, C: 2}}},
		{"mulimm", []ir.Instr{
			{Op: ir.FConst, A: 4, Imm: -3}, {Op: ir.FMul, A: 5, B: 4, C: 3},
		}, []ir.Instr{{Op: ir.FMulImm, A: 5, B: 3, Imm: -3}}},
		{"mulimm of an unknown", []ir.Instr{
			{Op: ir.FConst, A: 4, Imm: 4}, {Op: ir.FMul, A: 5, B: 0, C: 4},
		}, []ir.Instr{{Op: ir.FMulImm, A: 5, B: 0, Imm: 4}}},
		{"modimm", []ir.Instr{
			{Op: ir.FConst, A: 4, Imm: 6}, {Op: ir.FMod, A: 5, B: 0, C: 4},
		}, []ir.Instr{{Op: ir.FModImm, A: 5, B: 0, Imm: 6}}},
		{"modimm of a non-negative", []ir.Instr{
			{Op: ir.FConst, A: 4, Imm: 6}, {Op: ir.FMod, A: 5, B: 3, C: 4},
		}, []ir.Instr{{Op: ir.FModImm, A: 5, B: 3, Imm: 6}}},
		{"shrimm", []ir.Instr{
			{Op: ir.FConst, A: 4, Imm: 2}, {Op: ir.FShr, A: 5, B: 3, C: 4},
		}, []ir.Instr{{Op: ir.FShrImm, A: 5, B: 3, Imm: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair, pairRet := composeRun(prologue, tc.pair)
			fused, fusedRet := composeRun(prologue, tc.fused)
			for loc := 0; loc < pair.numLocs(); loc++ {
				if loc == 4 {
					continue
				}
				pv := pair.resolveExact(pairRet, pairRet.vals[loc])
				fv := fused.resolveExact(fusedRet, fusedRet.vals[loc])
				if !pv.equal(fv) {
					t.Errorf("location %d: pair leaves %+v, fused %+v", loc, pv, fv)
				}
			}
		})
	}
}

// composeRun runs the engine over prologue+body+ret with two frame slots
// and one check, and returns it with the state at the ret.
func composeRun(prologue, body []ir.Instr) (*engine, *aState) {
	code := append(append(append([]ir.Instr(nil), prologue...), body...), ir.Instr{Op: ir.FRet, A: 5})
	ff := &ir.FlatFunc{
		NumRegs: 6,
		Code:    code,
		PosTab:  []token.Pos{{}},
		Checks:  []ir.FlatCheck{{Orig: &ir.Check{Kind: ir.CheckDynamic}}},
	}
	prog := &ir.Program{
		Funcs: []*ir.Func{{Name: "f", FrameSize: 2}},
		Flat:  &ir.FlatProgram{Funcs: []*ir.FlatFunc{ff}},
	}
	e := newEngine(prog, 0, nil, nil, nil, 1, defaultStepBudget)
	e.run()
	return e, e.states[len(code)-1]
}

// TestRotatedLoopKeepsBound: linearize tests a while or for loop at the
// bottom, entering it through a jmp to the test. Widening must happen
// where a depth-first walk closes the cycle: at the test when the entry
// jmp stays (firstNeg, fillBox), before the test refines the index, so the
// index stored in the body keeps the bound the test proves. Widening at
// the body, the target of the backward branch, would lose firstNeg's
// interval: the body's join would widen i's upper bound after the
// refinement. When the test is a single branch the thread pass turns the
// entry jmp into that branch (fill); the cycle then closes at the body, as
// it did when loops were tested at the top, and the join there keeps
// i - n <= 0.
func TestRotatedLoopKeepsBound(t *testing.T) {
	src := `
struct box { int n; };
int fill(int *a, int n) {
	for (int i = 0; i < n; i++) a[i] = i;
	return 0;
}
int firstNeg(int *a) {
	for (int i = 0; i < 8 && a[i] >= 0; i++) a[i] = i;
	return 0;
}
int fillBox(int *a, struct box *b) {
	int i = 0;
	while (i < b->n) { a[i] = i; i++; }
	return 0;
}
int main(void) {
	int *a = malloc(8 * sizeof(int));
	struct box *b = malloc(sizeof(struct box));
	b->n = 8;
	return fill(a, 8) + firstNeg(a) + fillBox(a, b);
}
`
	prog := flatProgram(t, src)
	for _, tc := range []struct {
		fn  string
		hi  int64 // upper bound of i at the store
		rel int64 // bound of i - n at the store; 1 requires no relation
	}{
		{"fill", posInf, 0},
		{"firstNeg", 7, 1},
		{"fillBox", posInf, -1},
	} {
		eng := newEngine(prog, prog.FuncIdx[tc.fn], nil, nil, nil, 1, defaultStepBudget)
		eng.run()
		if eng.gaveUp {
			t.Fatalf("%s: gave up", tc.fn)
		}
		stores := 0
		for pc, in := range eng.ff.Code {
			if in.Op != ir.FStoreIdx && in.Op != ir.FStoreAcc {
				continue
			}
			stores++
			st := eng.states[pc]
			if st == nil {
				t.Fatalf("%s: store at pc %d unreachable", tc.fn, pc)
			}
			i := symReg(in.B) // the stored value is i itself
			if lo, hi := eng.boundForm(st, form{i: 1}, 0, 0); lo != 0 || hi != tc.hi {
				t.Errorf("%s: i in [%d, %d] at the store, want [0, %d]", tc.fn, lo, hi, tc.hi)
			}
			if tc.rel == 1 {
				continue
			}
			bounded := false
			for _, c := range st.cons {
				if c.f[i] == 1 && len(c.f) == 2 && c.b <= tc.rel {
					for s, k := range c.f {
						bounded = bounded || s != i && k == -1
					}
				}
			}
			if !bounded {
				t.Errorf("%s: no constraint i - n <= %d at the store; constraints %v", tc.fn, tc.rel, st.cons)
			}
		}
		if stores != 1 {
			t.Fatalf("%s: %d stores, want 1", tc.fn, stores)
		}
	}
}
