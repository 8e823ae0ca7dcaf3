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
