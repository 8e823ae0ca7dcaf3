package compile_test

import (
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parser"
)

// buildFunc compiles src with the default options and returns function
// name's tree and flat forms.
func buildFunc(t *testing.T, src, name string) (*ir.Func, *ir.FlatFunc) {
	t.Helper()
	a, err := core.Analyze(parser.Source{Name: "t.shc", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	i, ok := p.FuncIdx[name]
	if !ok {
		t.Fatalf("no function %s", name)
	}
	return p.Funcs[i], p.Flat.Funcs[i]
}

// TestPromotionDisqualifiers: each runtime path that reads or writes a
// frame cell directly keeps the slot in the frame, and RC-tracked pointer
// slots that are only read and assigned move to registers. Slot numbers
// follow declaration order, parameters first.
func TestPromotionDisqualifiers(t *testing.T) {
	// The cast on an int block in main makes every int * slot RC-tracked.
	const castInMain = `
int main(void) {
	int *b = malloc(8);
	int dynamic *d = SCAST(int dynamic *, b);
	return f(malloc(8));
}
`
	for _, tc := range []struct {
		name     string
		src      string   // built with the default options, or
		tree     *ir.Func // linearized as the program's only function
		slot     int
		rc       bool // the slot is an RC-tracked pointer cell
		promoted bool
	}{
		{"parameter in a lock expression", `
struct s { mutex *m; int locked(m) v; };
int f(struct s *d) { mutexLock(d->m); d->v = 1; mutexUnlock(d->m); return 0; }
int main(void) {
	struct s *d = malloc(sizeof(struct s));
	d->m = mutexNew();
	return f(d);
}
`, nil, 0, false, false},
		{"parameter as sharing-cast operand", `
int f(int *p) { int dynamic *q = SCAST(int dynamic *, p); return q == NULL; }
int main(void) { int *b = malloc(8); return f(b); }
`, nil, 0, true, false},
		{"RC parameter under ++", `
int f(int *p) { p++; return p == NULL; }
` + castInMain, nil, 0, true, false},
		{"RC local under +=", `
int f(int *p) { int *q = p; q += 1; return q == NULL; }
` + castInMain, nil, 1, true, false},
		{"assigned RC parameter", `
int f(int *p) { int *q = p; p = NULL; return (q == NULL) + (p == NULL); }
` + castInMain, nil, 0, true, true},
		{"assigned RC local", `
int f(int *p) { int *q = p; p = NULL; return (q == NULL) + (p == NULL); }
` + castInMain, nil, 1, true, true},
		{"plain parameter", `
int f(int x) { x = x + 1; return x; }
int main(void) { return f(1); }
`, nil, 0, false, true},
		// The checker rejects &x on a local, so the escape is built in the
		// tree IR: f(x) { p = &x; return *p + x; } with p in slot 1.
		{"address-taken parameter", "", &ir.Func{
			Name: "f", NumParams: 1, FrameSize: 2, ParamSlots: []int{0}, RCSlotSet: make([]bool, 2),
			Body: []ir.Stmt{
				&ir.SExpr{E: &ir.Store{Addr: &ir.FrameAddr{Slot: 1}, Val: &ir.FrameAddr{Slot: 0}}},
				&ir.SReturn{E: &ir.Bin{Op: ir.OpAdd,
					L: &ir.Load{Addr: &ir.Load{Addr: &ir.FrameAddr{Slot: 1}}},
					R: &ir.Load{Addr: &ir.FrameAddr{Slot: 0}}}},
			},
		}, 0, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fn *ir.Func
			var ff *ir.FlatFunc
			if tc.tree != nil {
				p := &ir.Program{Funcs: []*ir.Func{tc.tree}}
				compile.Linearize(p)
				fn, ff = tc.tree, p.Flat.Funcs[0]
				if !slices.Contains(compile.PromotedSlots(fn), 1) {
					t.Errorf("slot 1 (the pointer local) is not promoted")
				}
			} else {
				fn, ff = buildFunc(t, tc.src, "f")
			}
			if got := fn.RCSlotSet[tc.slot]; got != tc.rc {
				t.Fatalf("slot %d RC-tracked = %v, want %v", tc.slot, got, tc.rc)
			}
			if got := slices.Contains(compile.PromotedSlots(fn), tc.slot); got != tc.promoted {
				t.Errorf("slot %d promoted = %v, want %v", tc.slot, got, tc.promoted)
			}
			if tc.slot < fn.NumParams {
				if got := ff.ParamRegs[tc.slot] >= 0; got != tc.promoted {
					t.Errorf("parameter %d register %d, promoted = %v", tc.slot, ff.ParamRegs[tc.slot], tc.promoted)
				}
			}
		})
	}
}

// TestNoFrameReadOfPromotableSlot is the promotion postcondition: on every
// corpus program and every Table-1 model at both scales, checked and
// uninstrumented, every FLoadFrame left reads a slot that the final code
// itself pins to memory (UnpinnedFrameReads restates the reasons over the
// flat form).
func TestNoFrameReadOfPromotableSlot(t *testing.T) {
	var params, rcPromoted, frameReads int
	for _, pr := range corpusAndModels(t) {
		a, err := core.Analyze(parser.Source{Name: pr.name, Text: pr.src})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, opts := range []compile.Options{compile.DefaultOptions(), {}} {
			p, err := a.Build(opts)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			for i, ff := range p.Flat.Funcs {
				fn := p.Funcs[i]
				for _, pc := range compile.UnpinnedFrameReads(fn, ff) {
					t.Errorf("%s %s (RC %v) pc %d: %v reads a slot nothing pins to memory", pr.name, fn.Name, opts.RC, pc, ff.Code[pc])
				}
				for _, r := range ff.ParamRegs {
					if r >= 0 {
						params++
					}
				}
				for _, s := range compile.PromotedSlots(fn) {
					if fn.RCSlotSet[s] {
						rcPromoted++
					}
				}
				for _, in := range ff.Code {
					if in.Op == ir.FLoadFrame {
						frameReads++
					}
				}
			}
		}
	}
	// Non-vacuous on both sides: parameters and RC slots are promoted, and
	// some frame reads survive for the matcher to pin.
	if params == 0 || rcPromoted == 0 || frameReads == 0 {
		t.Errorf("promoted parameters %d, promoted RC slots %d, frame reads left %d; want each > 0", params, rcPromoted, frameReads)
	}
}
