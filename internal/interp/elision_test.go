package interp_test

import (
	"sort"
	"testing"

	"repro/internal/compile"
	"repro/internal/interp"
)

func sortedReports(rt *interp.Runtime) []string {
	var msgs []string
	for _, r := range rt.Reports() {
		msgs = append(msgs, r.Msg)
	}
	sort.Strings(msgs)
	return msgs
}

// TestCorpusElisionSound runs every testdata program with full checks and
// on its discharged build, demanding identical exit values and
// byte-identical conflict reports. The corpus is annotation-clean, so the
// strong form of the property is that neither build reports anything.
func TestCorpusElisionSound(t *testing.T) {
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			compiled := buildCorpus(t, tc.file, compile.DefaultOptions())
			discharged := buildDischarged(t, tc.file)

			rtOff := interp.New(compiled, interp.DefaultConfig())
			exitOff, err := rtOff.Run()
			if err != nil {
				t.Fatalf("full checks: %v", err)
			}
			baseReports := sortedReports(rtOff)

			rt := interp.New(discharged, interp.DefaultConfig())
			exit, err := rt.Run()
			if err != nil {
				t.Fatalf("discharge: %v", err)
			}
			if exit != exitOff {
				t.Errorf("discharge: exit = %d, full checks = %d", exit, exitOff)
			}
			got := sortedReports(rt)
			if len(got) != len(baseReports) {
				t.Fatalf("discharge: %d reports, full checks had %d:\n got  %q\n want %q",
					len(got), len(baseReports), got, baseReports)
			}
			for i := range got {
				if got[i] != baseReports[i] {
					t.Errorf("discharge: report %d differs:\n got  %q\n want %q",
						i, got[i], baseReports[i])
				}
			}
		})
	}
}
