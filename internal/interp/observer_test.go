package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
)

// TestObserverWarningsPinned pins what the baseline detectors conclude on
// the corpus and the quick Table-1 models: the Eraser and happens-before
// warnings of every program under fixed schedules must match
// testdata/golden/detectors.golden. An Observer sees memory accesses only;
// a frame slot the compiler keeps in a VM register is not memory, so
// moving a slot into a register may lower Events() but must never add,
// drop or change a warning. Event counts are therefore logged, not pinned.
func TestObserverWarningsPinned(t *testing.T) {
	type program struct {
		name string
		prog *ir.Program
	}
	var progs []program
	for _, file := range allCorpusFiles {
		progs = append(progs, program{file, buildCorpus(t, file, compile.DefaultOptions())})
	}
	for _, b := range bench.Benchmarks {
		progs = append(progs, program{b.Name + ".quick.shc", buildProg(t, b.Source(bench.Quick))})
	}
	var sb strings.Builder
	for _, p := range progs {
		for _, seed := range []int64{1, 12} {
			eraser, hb := baseline.NewEraser(), baseline.NewHB()
			for _, obs := range []interp.Observer{eraser, hb} {
				cfg := interp.DefaultConfig()
				cfg.Sched = sched.New(sched.NewRandom(seed), sched.Options{})
				cfg.Observer = obs
				if _, err := interp.New(p.prog, cfg).Run(); err != nil {
					t.Fatalf("%s seed %d: %v", p.name, seed, err)
				}
			}
			fmt.Fprintf(&sb, "== %s seed=%d\n", p.name, seed)
			for _, w := range eraser.Races() {
				fmt.Fprintf(&sb, "%s\n", w)
			}
			for _, w := range hb.Races() {
				fmt.Fprintf(&sb, "%s\n", w)
			}
			t.Logf("%s seed %d: %d eraser events, %d hb events", p.name, seed, eraser.Events(), hb.Events())
		}
	}
	checkEngineGolden(t, "detectors.golden", sb.String())
}
