package interp_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

// TestPromotedRCLocalWritesThrough: a reference-counted pointer local kept
// in a register is still written to its frame cell, so the reference it
// holds counts at a sharing cast. q (slot 1 of main) is reassigned before
// the object is also stored in a heap cell: the cast of the heap cell must
// see two references, and none once q is NULL again.
func TestPromotedRCLocalWritesThrough(t *testing.T) {
	const prefix = `
struct box { int *p; };
int main(void) {
	struct box *b = malloc(sizeof(struct box));
	int *q = NULL;
	q = malloc(4);
	b->p = q;
`
	for _, tc := range []struct {
		name, body string
		fails      bool
	}{
		{"second reference in the local", `
	int dynamic *d = SCAST(int dynamic *, b->p);
	return q != NULL;
}`, true},
		{"local nulled before the cast", `
	q = NULL;
	int dynamic *d = SCAST(int dynamic *, b->p);
	return q == NULL;
}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := buildProg(t, prefix+tc.body)
			i := p.FuncIdx["main"]
			reads := slices.ContainsFunc(p.Flat.Funcs[i].Code, func(in ir.Instr) bool {
				return in.Op == ir.FLoadFrame && in.B == 1
			})
			if !p.Funcs[i].RCSlotSet[1] || reads {
				t.Fatalf("q must be RC-tracked and read from its register: RC slots %v, frame reads %v", p.Funcs[i].RCPtrSlots, reads)
			}
			rt := interp.New(p, interp.DefaultConfig())
			exit, err := rt.Run()
			if err != nil || exit != 1 {
				t.Fatalf("exit %d, error %v; want 1, nil", exit, err)
			}
			one := rt.ReportsOfKind(interp.ReportOneRef)
			if !tc.fails {
				if len(one) != 0 {
					t.Fatalf("unexpected oneref failure: %v", one)
				}
				return
			}
			if len(one) != 1 || !strings.Contains(one[0].Msg, "2 references") {
				t.Fatalf("want one failure naming 2 references; got %v", one)
			}
		})
	}
}

// TestPromotedParamsSurviveRecursion: parameters live in the register
// window, which a deep call chain reallocates; each activation must still
// read its own arguments after its callee returns.
func TestPromotedParamsSurviveRecursion(t *testing.T) {
	p := buildProg(t, `
int sum(int n, int step) {
	if (n == 0) return 0;
	int r = sum(n - step, step);
	return r + n * step;
}
int main(void) { return sum(300, 1) - sum(40, 2); }
`)
	for _, r := range p.Flat.Funcs[p.FuncIdx["sum"]].ParamRegs {
		if r < 0 {
			t.Fatalf("sum's parameters must be promoted: %v", p.Flat.Funcs[p.FuncIdx["sum"]].ParamRegs)
		}
	}
	exit, err := interp.New(p, interp.DefaultConfig()).Run()
	// 1+..+300 = 45150; 2*(2+4+..+40) = 840.
	if err != nil || exit != 45150-840 {
		t.Fatalf("exit %d, error %v; want %d", exit, err, 45150-840)
	}
}
