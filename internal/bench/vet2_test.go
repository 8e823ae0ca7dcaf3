package bench

import "testing"

// TestVet2Smoke is the vet v2 acceptance gate over the six Table-1
// benchmarks: with the absint tier on, the statically avoided check
// fraction must exceed 90% on every row, the discharged build must
// reproduce the elide-only build's exit value and reports byte-identically
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
				t.Errorf("discharged build diverged from the elide-only build")
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
