package interp_test

import (
	"sort"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/shadow"
)

// elisionConfigs is the check-removal matrix: every corpus program must
// behave identically under every combination of static discharge and the
// runtime cache.
var elisionConfigs = []struct {
	name      string
	discharge bool
	cache     bool
}{
	{"discharge", true, false},
	{"cache", false, true},
	{"discharge+cache", true, true},
}

func sortedReports(rt *interp.Runtime) []string {
	var msgs []string
	for _, r := range rt.Reports() {
		msgs = append(msgs, r.Msg)
	}
	sort.Strings(msgs)
	return msgs
}

// TestCorpusElisionSound runs every testdata program with full checks and
// under each check-removal configuration, demanding identical exit values and
// byte-identical conflict reports. The corpus is annotation-clean, so the
// strong form of the property is that every configuration reports nothing.
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

			for _, ec := range elisionConfigs {
				prog := compiled
				if ec.discharge {
					prog = discharged
				}
				cfg := interp.DefaultConfig()
				cfg.CheckCache = ec.cache

				rt := interp.New(prog, cfg)
				exit, err := rt.Run()
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				if exit != exitOff {
					t.Errorf("%s: exit = %d, full checks = %d", ec.name, exit, exitOff)
				}
				got := sortedReports(rt)
				if len(got) != len(baseReports) {
					t.Errorf("%s: %d reports, full checks had %d:\n got  %q\n want %q",
						ec.name, len(got), len(baseReports), got, baseReports)
					continue
				}
				for i := range got {
					if got[i] != baseReports[i] {
						t.Errorf("%s: report %d differs:\n got  %q\n want %q",
							ec.name, i, got[i], baseReports[i])
					}
				}
			}
		})
	}
}

// TestCorpusElisionStateEncoding runs the cache under the state-machine
// shadow encoding: the cache fast path must compose with either encoding.
func TestCorpusElisionStateEncoding(t *testing.T) {
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			src := readCorpus(t, tc.file)

			cfg := interp.DefaultConfig()
			cfg.ShadowEncoding = shadow.EncodingState
			cfg.CheckCache = true

			rt, exit, err := core.BuildAndRun(src, compile.DefaultOptions(), cfg)
			if err != nil {
				t.Fatalf("state+cache: %v", err)
			}
			if tc.exit >= 0 && exit != tc.exit {
				t.Errorf("exit = %d, want %d", exit, tc.exit)
			}
			for _, r := range rt.Reports() {
				t.Errorf("report: %s", r)
			}
		})
	}
}
