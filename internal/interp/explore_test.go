package interp_test

// The explorer's determinism contract, tested three ways:
//
//  1. Worker-count independence: the full summary (JSON) and the merged
//     event trace are byte-identical for workers ∈ {1, 2, 8}, strategies
//     with few and many duplicates, and varied GOMAXPROCS.
//  2. Sequential equivalence: `Workers: 1` matches an independent
//     in-test sequential reference — a plain loop with no goroutines that
//     executes every schedule, duplicates included — on the full corpus.
//  3. Process isolation: two different programs explored concurrently
//     (metrics and tracing on) each produce exactly their solo output,
//     proving no shared mutable state across interp/sched/shadow/telemetry.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
)

// exploreBytes renders everything observable from an exploration: the
// summary JSON plus the merged trace JSONL (empty when tracing is off).
func exploreBytes(t *testing.T, sum *interp.ExploreSummary) (string, string) {
	t.Helper()
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if sum.Trace != nil {
		if err := sum.Trace.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
	}
	return string(data), trace.String()
}

// TestExploreWorkerCountIndependence pins the contract the explorer rests
// on: same seed ⇒ byte-identical output for every worker count and
// GOMAXPROCS value. The rr strategy repeats four identities, so most of its
// schedules are duplicates copied at the merge while metrics and a tracer
// ring are on.
func TestExploreWorkerCountIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, file := range []string{"racy_pair.shc", "racy_handoff.shc", "bank.shc"} {
		file := file
		t.Run(file, func(t *testing.T) {
			prog := buildCorpus(t, file, compile.DefaultOptions())
			cfg := interp.DefaultConfig()
			cfg.Metrics = true
			cfg.TraceCapacity = 512 // smaller than the event stream: the ring-tail merge is exercised
			for _, kind := range []string{"mix", "rr"} {
				run := func(workers int) (string, string) {
					sum := interp.Explore(prog, cfg, interp.ExploreOptions{
						Schedules: 40, Strategy: kind, Seed: 3, Workers: workers,
					})
					if kind == "rr" && sum.Duplicates == 0 {
						t.Fatal("rr: no duplicate schedules; the copy-at-merge path is untested")
					}
					return exploreBytes(t, sum)
				}
				baseSum, baseTrace := run(1)
				if baseTrace == "" {
					t.Fatal("tracing produced no events")
				}
				for _, workers := range []int{2, 8} {
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						sumJSON, trace := run(workers)
						if sumJSON != baseSum {
							t.Errorf("%s workers=%d procs=%d: summary JSON diverges from workers=1",
								kind, workers, procs)
						}
						if trace != baseTrace {
							t.Errorf("%s workers=%d procs=%d: merged trace diverges from workers=1",
								kind, workers, procs)
						}
					}
				}
			}
		})
	}
}

// referenceStrategy is an independent copy of the explorer's strategy
// derivation, pinned here so a drive-by change to the generator surfaces
// as a test failure rather than silently reshaping every exploration.
func referenceStrategy(kind string, seed int64, i int, horizon int64) sched.Strategy {
	if horizon < 16 {
		horizon = 4096
	}
	derived := seed*1_000_003 + int64(i)
	switch kind {
	case "random":
		return sched.NewRandom(derived)
	case "pct":
		return sched.NewPCT(derived, 3, horizon)
	case "rr":
		return sched.NewRoundRobin(int64(1 + i%4))
	default:
		switch i % 4 {
		case 0:
			return sched.NewRoundRobin(int64(1 + (i/4)%4))
		case 1, 2:
			return sched.NewPCT(derived, 3, horizon)
		default:
			return sched.NewRandom(derived)
		}
	}
}

// referenceExplore is the sequential reference: one schedule at a time, no
// goroutines, no copying — every schedule executes, duplicates included.
// The explorer must match it exactly.
func referenceExplore(t *testing.T, build func(ctl *sched.Controller) *interp.Runtime, kind string, seed int64, schedules int) *interp.ExploreSummary {
	t.Helper()
	sum := &interp.ExploreSummary{Schedules: schedules}
	seen := make(map[string]bool)
	firstOf := make(map[string]int)
	var horizon int64
	for i := 0; i < schedules; i++ {
		h := horizon
		if i == 0 {
			h = 0 // calibration: schedule 0 runs under the default horizon
		}
		strat := referenceStrategy(kind, seed, i, h)
		ctl := sched.New(strat, sched.Options{})
		rt := build(ctl)
		rt.Run()
		if i == 0 {
			horizon = ctl.Decisions()
		}
		identity := fmt.Sprintf("%s|%d", strat.Name(), strat.Seed())
		dup := false
		if j, ok := firstOf[identity]; ok && j < i {
			dup = true
		} else {
			firstOf[identity] = i
		}
		sum.Decisions += ctl.Decisions()
		if dup {
			sum.Duplicates++
		}
		out := interp.ScheduleOutcome{
			Index:     i,
			Strategy:  strat.Name(),
			Seed:      strat.Seed(),
			Deadlock:  ctl.Deadlocked(),
			Duplicate: dup,
		}
		for _, r := range rt.Reports() {
			out.Reports++
			key := fmt.Sprintf("%d|%s:%d:%d", r.Kind, r.Pos.File, r.Pos.Line, r.Pos.Col)
			if seen[key] {
				continue
			}
			seen[key] = true
			out.New++
			sum.Findings = append(sum.Findings, interp.Finding{
				Kind:     r.Kind,
				KindName: r.Kind.String(),
				Pos:      r.Pos,
				Site:     fmt.Sprintf("%s:%d:%d", r.Pos.File, r.Pos.Line, r.Pos.Col),
				Msg:      r.Msg,
				Schedule: i,
				Strategy: strat.Name(),
				Seed:     strat.Seed(),
			})
		}
		sum.Outcomes = append(sum.Outcomes, out)
	}
	return sum
}

// TestExploreSequentialEquivalence pins Workers:1 (and, transitively via
// the independence test, every worker count) against the sequential
// reference on the full corpus.
func TestExploreSequentialEquivalence(t *testing.T) {
	for _, file := range allCorpusFiles {
		file := file
		t.Run(file, func(t *testing.T) {
			prog := buildCorpus(t, file, compile.DefaultOptions())
			for _, kind := range []string{"mix", "rr"} {
				got := interp.Explore(prog, interp.DefaultConfig(), interp.ExploreOptions{
					Schedules: 24, Strategy: kind, Seed: 5, Workers: 1,
				})
				want := referenceExplore(t, func(ctl *sched.Controller) *interp.Runtime {
					cfg := interp.DefaultConfig()
					cfg.Sched = ctl
					return interp.New(prog, cfg)
				}, kind, 5, 24)
				gj, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wj, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if string(gj) != string(wj) {
					t.Errorf("%s: portfolio Workers:1 diverges from the sequential reference\ngot:  %s\nwant: %s",
						kind, gj, wj)
				}
			}
		})
	}
}

// TestExploreProcessIsolation explores two different programs concurrently
// with full instrumentation and demands each produces exactly its solo
// output — the multiple-checked-programs-in-one-process guarantee.
func TestExploreProcessIsolation(t *testing.T) {
	progA := buildCorpus(t, "racy_pair.shc", compile.DefaultOptions())
	progB := buildCorpus(t, "bank.shc", compile.DefaultOptions())
	cfg := interp.DefaultConfig()
	cfg.Metrics = true
	cfg.TraceCapacity = 256
	run := func(p *ir.Program) (string, string) {
		sum := interp.Explore(p, cfg, interp.ExploreOptions{
			Schedules: 20, Seed: 7, Workers: 4,
		})
		return exploreBytes(t, sum)
	}
	soloA1, soloA2 := run(progA)
	soloB1, soloB2 := run(progB)
	var wg sync.WaitGroup
	var concA1, concA2, concB1, concB2 string
	wg.Add(2)
	go func() { defer wg.Done(); concA1, concA2 = run(progA) }()
	go func() { defer wg.Done(); concB1, concB2 = run(progB) }()
	wg.Wait()
	if concA1 != soloA1 || concA2 != soloA2 {
		t.Error("racy_pair: concurrent exploration diverges from its solo run")
	}
	if concB1 != soloB1 || concB2 != soloB2 {
		t.Error("bank: concurrent exploration diverges from its solo run")
	}
}
