// Command sharc-bench regenerates the paper's evaluation: Table 1 (six
// legacy-program models measured for annotation burden, runtime overhead,
// memory overhead, and dynamic-access fraction) and the §6 comparison
// against the Eraser-style lockset and vector-clock happens-before
// detectors.
//
// Usage:
//
//	sharc-bench                         run Table 1 at quick scale
//	sharc-bench -scale full -reps 5     the full-size workloads
//	sharc-bench -run dillo              one row only
//	sharc-bench -detectors              the detector comparison
//	sharc-bench -explore                systematic schedule exploration on
//	                                    the seeded-racy programs, compared
//	                                    against free-running detection, also
//	                                    written to BENCH_explore.json
//	sharc-bench -obs                    telemetry overhead tiers (off /
//	                                    metrics / metrics+trace), also
//	                                    written to BENCH_obs.json
//	sharc-bench -vet                    static check discharge (checked
//	                                    vs checked + vet discharge), also
//	                                    written to BENCH_vet.json
//	sharc-bench -ablate                 absint tier ablation: avoided-check
//	                                    fraction under lockset only, +MHP
//	                                    phase rules, +interval certification,
//	                                    +cross-function summaries, also
//	                                    written to BENCH_ablation.json
//	sharc-bench -serve                  load-generate against the checked
//	                                    execution service (closed/open loop,
//	                                    bursts, connection churn, slowloris),
//	                                    also written to BENCH_serve.json; an
//	                                    in-process server is started unless
//	                                    -serve-addr points at a running one
//	sharc-bench -serve-smoke            assertion harness: 1000 sequential +
//	                                    100 concurrent mixed requests, all
//	                                    replies byte-deterministic; exits
//	                                    non-zero on the first violation
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	reps := flag.Int("reps", 3, "timing repetitions per configuration")
	runOne := flag.String("run", "", "run a single benchmark by name")
	detectors := flag.Bool("detectors", false, "compare against Eraser and happens-before detectors")
	ladder := flag.Bool("ladder", false, "measure the incremental-annotation claim: unannotated vs annotated")
	explore := flag.Bool("explore", false, "compare schedule exploration against free-running detection and write BENCH_explore.json")
	exploreOut := flag.String("explore-out", "BENCH_explore.json", "output path for the exploration JSON")
	obs := flag.Bool("obs", false, "measure telemetry overhead tiers and write BENCH_obs.json")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "output path for the telemetry-overhead JSON")
	vetFlag := flag.Bool("vet", false, "measure static check discharge and write BENCH_vet.json")
	vetOut := flag.String("vet-out", "BENCH_vet.json", "output path for the discharge JSON")
	ablate := flag.Bool("ablate", false, "measure the absint tier ladder (lockset / +mhp / +intervals / +summaries) and write BENCH_ablation.json")
	ablateOut := flag.String("ablate-out", "BENCH_ablation.json", "output path for the ablation JSON")
	schedules := flag.Int("schedules", 100, "schedules per program in -explore mode")
	serveBench := flag.Bool("serve", false, "load-generate against the execution service and write BENCH_serve.json")
	serveSmoke := flag.Bool("serve-smoke", false, "run the serve assertion harness (1000 sequential + 100 concurrent requests)")
	serveAddr := flag.String("serve-addr", "", "host:port of a running sharc serve; empty starts one in-process")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "output path for the serve load JSON")
	serveReqs := flag.Int("serve-requests", 400, "per-scenario request budget in -serve mode")
	serveConc := flag.Int("serve-concurrency", 8, "closed-loop worker count in -serve mode")
	obsSmoke := flag.Bool("obs-smoke", false, "run the observability assertion harness (request IDs, /metrics, slow capture, drain flip)")
	obsPID := flag.Int("obs-pid", 0, "serve process to SIGTERM for the -obs-smoke drain assertion (0 skips)")
	obsCaptureDir := flag.String("obs-capture-dir", "", "the target's -capture-dir, where -obs-smoke expects the slow-request capture")
	flag.Parse()

	scale := bench.Quick
	if *scaleFlag == "full" {
		scale = bench.Full
	} else if *scaleFlag != "quick" {
		fmt.Fprintln(os.Stderr, "sharc-bench: -scale must be quick or full")
		os.Exit(2)
	}
	if *runOne != "" && bench.ByName(*runOne) == nil {
		fmt.Fprintf(os.Stderr, "sharc-bench: unknown benchmark %q (have %v)\n", *runOne, bench.Names())
		os.Exit(2)
	}
	if *schedules <= 0 {
		fmt.Fprintln(os.Stderr, "sharc-bench: -schedules must be positive")
		os.Exit(2)
	}

	if *serveSmoke {
		if err := bench.RunServeSmoke(*serveAddr, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println("serve smoke: PASS")
		return
	}

	if *obsSmoke {
		err := bench.RunObsSmoke(bench.ObsSmokeOptions{
			Addr:       *serveAddr,
			PID:        *obsPID,
			CaptureDir: *obsCaptureDir,
		}, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Println("obs smoke: PASS")
		return
	}

	if *serveBench {
		rep, err := bench.RunServeBench(bench.ServeOptions{
			Addr:        *serveAddr,
			Requests:    *serveReqs,
			Concurrency: *serveConc,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Serve load scenarios (req/s over OK replies; latencies include queueing):")
		fmt.Print(bench.FormatServe(rep))
		data, err := bench.ServeJSON(rep)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*serveOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *serveOut)
		return
	}

	if *ladder {
		var rows []bench.LadderRow
		for i := range bench.Benchmarks {
			b := &bench.Benchmarks[i]
			if *runOne != "" && b.Name != *runOne {
				continue
			}
			r, err := bench.AnnotationLadder(b, scale, *reps)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r)
		}
		fmt.Println("Annotation ladder (false warnings and overhead, unannotated vs annotated):")
		fmt.Print(bench.FormatLadder(rows))
		return
	}

	if *obs {
		var rows []bench.ObsRow
		for i := range bench.Benchmarks {
			b := &bench.Benchmarks[i]
			if *runOne != "" && b.Name != *runOne {
				continue
			}
			r, err := bench.RunObs(b, scale, *reps)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r)
		}
		fmt.Println("Telemetry overhead (vs checked baseline; off tier should sit in the noise):")
		fmt.Print(bench.FormatObs(rows))
		data, err := bench.ObsJSON(rows)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*obsOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *obsOut)
		return
	}

	if *vetFlag {
		var rows []bench.VetRow
		for i := range bench.Benchmarks {
			b := &bench.Benchmarks[i]
			if *runOne != "" && b.Name != *runOne {
				continue
			}
			r, err := bench.RunVet(b, scale, *reps)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r)
		}
		fmt.Println("Static check discharge (checked vs checked + vet discharge):")
		fmt.Print(bench.FormatVet(rows))
		data, err := bench.VetJSON(rows)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*vetOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *vetOut)
		return
	}

	if *ablate {
		var rows []bench.AblationRow
		for i := range bench.Benchmarks {
			b := &bench.Benchmarks[i]
			if *runOne != "" && b.Name != *runOne {
				continue
			}
			r, err := bench.RunAblation(b, scale)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r)
		}
		fmt.Println("Absint ablation (statically avoided checks as the tiers come on):")
		fmt.Print(bench.FormatAblation(rows))
		data, err := bench.AblationJSON(rows)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*ablateOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *ablateOut)
		return
	}

	if *explore {
		rows, err := bench.ExploreTable(1, *schedules, 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Schedule exploration (free-running detection vs systematic schedules):")
		fmt.Print(bench.FormatExplore(rows))
		data, err := bench.ExploreJSON(rows)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*exploreOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *exploreOut)
		return
	}

	if *detectors {
		var rows []bench.DetectorRow
		for i := range bench.Benchmarks {
			b := &bench.Benchmarks[i]
			if *runOne != "" && b.Name != *runOne {
				continue
			}
			r, err := bench.RunDetectors(b, scale, *reps)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r)
		}
		fmt.Println("Detector comparison (times; distinct racy locations reported):")
		fmt.Print(bench.FormatDetectors(rows))
		return
	}

	var rows []bench.Row
	if *runOne != "" {
		b := bench.ByName(*runOne)
		if b == nil {
			fmt.Fprintf(os.Stderr, "sharc-bench: unknown benchmark %q (have %v)\n", *runOne, bench.Names())
			os.Exit(2)
		}
		r, err := bench.Run(b, scale, *reps)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, r)
	} else {
		var err error
		rows, err = bench.Table1(scale, *reps)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Println("Table 1 (reproduction):")
	fmt.Print(bench.FormatTable(rows))
	for _, r := range rows {
		if r.Races+r.LockViolations+r.OneRefFails > 0 {
			fmt.Printf("NOTE: %s reported %d races, %d lock violations, %d oneref failures\n",
				r.Name, r.Races, r.LockViolations, r.OneRefFails)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sharc-bench:", err)
	os.Exit(1)
}
