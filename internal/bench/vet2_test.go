package bench

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/vet"
)

// TestVet2Smoke is the vet v2 acceptance gate over the six Table-1
// benchmarks: with the absint tier on, the statically avoided check
// fraction must exceed 90% on every row, the discharged build must
// reproduce the default checked build's exit value and reports byte-identically
// (Match), and no finding may survive (absint resolves the
// corpus's would-be may races). `make vet2-smoke` runs exactly this test.
func TestVet2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark twice")
	}
	for i := range Benchmarks {
		b := &Benchmarks[i]
		t.Run(b.Name, func(t *testing.T) {
			row, err := RunVet(b, Quick, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !row.Match {
				t.Errorf("discharged build diverged from the checked build")
			}
			if row.AvoidedFracDischarge <= 0.90 {
				t.Errorf("avoided fraction %.3f, want > 0.90", row.AvoidedFracDischarge)
			}
			if row.MustFindings != 0 || row.MayFindings != 0 {
				t.Errorf("%d must + %d may findings survive; absint should resolve them",
					row.MustFindings, row.MayFindings)
			}
			if row.DischargedAbsint == 0 {
				t.Errorf("no absint-provenance discharges; the tier did not run")
			}
		})
	}
}

// TestDischargeOnlyAvoidedFraction pins the check accounting of a build
// with discharge and no other check removal: full-scale pfscan discharges
// 20 of its 21 check sites and keeps one dynamic check, so the avoided
// fraction is 20/21, not 1.
func TestDischargeOnlyAvoidedFraction(t *testing.T) {
	a, err := core.Analyze(parser.Source{Name: "pfscan.shc", Text: PfscanSource(Full)})
	if err != nil {
		t.Fatal(err)
	}
	opts := compile.DefaultOptions()
	opts.Discharge = vet.Analyze(a.World, a.Inf).Discharge()
	prog, err := a.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	el := prog.Elision
	if el.TotalDynamic+el.TotalLocked != 1 || el.Discharged() != 20 {
		t.Errorf("stats %+v, want 1 surviving check and 20 discharged", el)
	}
	if got, want := el.AvoidedFraction(), 20.0/21; got != want {
		t.Errorf("avoided fraction %.4f, want %.4f", got, want)
	}
}
