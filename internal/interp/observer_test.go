package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
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

// mallocLog records every Malloc an HB detector sees.
type mallocLog struct {
	*baseline.HB
	blocks [][2]int64 // thread, base
}

func (m *mallocLog) Malloc(tid int, base, size int64) {
	m.blocks = append(m.blocks, [2]int64{int64(tid), base})
	m.HB.Malloc(tid, base, size)
}

// TestDilloHBRaceIsShutdown pins what the happens-before detector reports
// on the dillo model: main writes the racy field dnsq.shutdown outside the
// lock after its last unlock, while a resolver woken by that unlock reads
// it under the lock; no release-acquire edge orders the read before the
// write, so the race is real. It shows on every seeded schedule of the
// quick model tried here and on some free-running full-scale runs. The
// reported address must be that field of the queue main allocates first,
// and nothing else.
func TestDilloHBRaceIsShutdown(t *testing.T) {
	a, err := core.Analyze(parser.Source{Name: "dillo.shc", Text: bench.DilloSource(bench.Quick)})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Build(compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	off := a.World.Structs["dnsq"].Field("shutdown").Offset
	for _, seed := range []int64{1, 2, 3} {
		hb := &mallocLog{HB: baseline.NewHB()}
		cfg := interp.DefaultConfig()
		cfg.Sched = sched.New(sched.NewRandom(seed), sched.Options{})
		cfg.Observer = hb
		if _, err := interp.New(prog, cfg).Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(hb.blocks) == 0 || hb.blocks[0][0] != 1 {
			t.Fatalf("seed %d: main did not allocate first: %v", seed, hb.blocks)
		}
		want := fmt.Sprintf(" race on 0x%x between threads ", hb.blocks[0][1]+int64(off))
		races := hb.Races()
		if len(races) != 1 || !strings.Contains(races[0], want) {
			t.Fatalf("seed %d: HB reports %q, want one race on dnsq.shutdown (%q)", seed, races, want)
		}
	}
}
