// Command benchmark is the repository's benchmark: four workloads that
// each stress different layers of SharC-Go, measured end to end and, in a
// traced run, layer by layer.
//
//	table1   free-running Table-1 models, checked and uninstrumented builds
//	explore  systematic schedule exploration, 20 schedules on 2 workers
//	compile  cold parse, check, vet and build of an 18-program corpus
//	serve    an in-process sharc serve under closed- then open-loop load
//
// Run it from the repository root with benchmark/run.sh, which builds this
// package and passes its arguments on:
//
//	sh benchmark/run.sh -workload all -seed 1
//	sh benchmark/run.sh -workload serve -seed 3 -trace 1
//	sh benchmark/run.sh -workload compile -trace-out compile.trace.json
//	sh benchmark/run.sh -workload all -repeat 5
//
// A single run prints two JSON lines: an info line (provenance, sample
// counts, derived values) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics and traced runs the per-layer ones; BENCHMARK.json
// lists both with their bounds. See README.md for what each metric should
// move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Each burst of set-ups before and after the window times at least
// defaultSetups of them and lasts at least defaultSetupBudget, so the
// set-ups of a few milliseconds are timed hundreds of times.
const (
	defaultSetups      = 5
	defaultSetupBudget = 1500 * time.Millisecond
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: table1, explore, compile, serve, or all")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's Chrome trace here; without -trace 1, first run untraced with the same seed and print the tracing overhead")
	repeat := fs.Int("repeat", 1, "run each workload this many times, seeds seed..seed+N-1, and report the spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s or all)\n", n, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	switch {
	case *seconds <= 0:
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	case *repeat < 1:
		fmt.Fprintln(stderr, "benchmark: -repeat must be at least 1")
		return 2
	case *repeat > 1 && (*trace == 1 || *traceOut != ""):
		fmt.Fprintln(stderr, "benchmark: -repeat measures untraced runs; drop -trace and -trace-out")
		return 2
	}
	common := []string{"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
	// traceFile names a workload's trace; with several workloads each gets
	// its own file, the workload's name before the extension.
	traceFile := func(workload string) string {
		if *traceOut == "" || len(names) == 1 {
			return *traceOut
		}
		ext := filepath.Ext(*traceOut)
		return strings.TrimSuffix(*traceOut, ext) + "." + workload + ext
	}

	switch {
	case *repeat > 1:
		return repeatRuns(names, *seed, *repeat, common, stdout, stderr)
	case *traceOut != "" && *trace == 0:
		code := 0
		for _, n := range names {
			if c := tracedAgainstUntraced(n, *seed, traceFile(n), common, stdout, stderr); c != 0 {
				code = c
			}
		}
		return code
	case len(names) > 1:
		// Every workload runs in a fresh process, so none inherits another's
		// heap, caches or goroutines.
		code := 0
		for _, n := range names {
			args := append([]string{"-workload", n, "-seed", fmt.Sprint(*seed), "-trace", fmt.Sprint(*trace)}, common...)
			if *traceOut != "" {
				args = append(args, "-trace-out", traceFile(n))
			}
			lines, err := child(args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
				code = 1
				continue
			}
			fmt.Fprintln(stdout, string(lines.info))
			fmt.Fprintln(stdout, string(lines.result))
			if !lines.correct() {
				code = 1
			}
		}
		return code
	}
	c := config{
		workload:    *workload,
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		trace:       *trace == 1,
		setups:      defaultSetups,
		setupBudget: defaultSetupBudget,
	}
	return single(c, *traceOut, stdout, stderr)
}

// single measures one workload in this process and prints its two lines.
func single(c config, traceOut string, stdout, stderr io.Writer) int {
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	c.exp = exp
	o, err := measure(c)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res := o.result()
	writeSummary(stderr, o, res)
	if c.trace {
		writeSelfTimes(stderr, c.workload, selfTimes(o.spans))
	}
	if traceOut != "" {
		data, err := chromeTrace(o.spans)
		if err == nil {
			err = os.WriteFile(traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: trace: %v\n", err)
			return 1
		}
	}
	infoLine, err := json.Marshal(o.info)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(infoLine))
	fmt.Fprintln(stdout, string(resLine))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeSummary(w io.Writer, o *outcome, res result) {
	fmt.Fprintf(w, "%s seed %d: %d ops, %d failed\n", o.info.Workload, o.info.Provenance.Seed, res.Attempted, res.Failed)
	for _, f := range o.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range sortedKeys(o.info.Derived) {
		fmt.Fprintf(w, "  %-32s %14.4f (derived)\n", n, o.info.Derived[n])
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// childLines are the two lines a single run prints.
type childLines struct{ info, result []byte }

func (l childLines) correct() bool {
	var r result
	return json.Unmarshal(l.result, &r) == nil && r.Correct
}

// child runs this binary on args in a fresh process, passing its standard
// error through, and returns its last two output lines.
func child(args []string, stderr io.Writer) (childLines, error) {
	exe, err := os.Executable()
	if err != nil {
		return childLines{}, err
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var lines [][]byte
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines = append(lines, slices.Clone(sc.Bytes()))
	}
	if len(lines) < 2 {
		if runErr == nil {
			runErr = errors.New("no result printed")
		}
		return childLines{}, runErr
	}
	// A run that printed its result but failed operations exits 1; the
	// result says so itself.
	return childLines{info: lines[len(lines)-2], result: lines[len(lines)-1]}, nil
}

// tracedAgainstUntraced runs a workload untraced and then traced with the
// same seed, each in a fresh process, writes the traced run's Chrome trace,
// and prints the tracing overhead.
func tracedAgainstUntraced(workload string, seed int64, out string, common []string, stdout, stderr io.Writer) int {
	base := append([]string{"-workload", workload, "-seed", fmt.Sprint(seed)}, common...)
	plain, err := child(append(slices.Clone(base), "-trace", "0"), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s untraced: %v\n", workload, err)
		return 1
	}
	traced, err := child(append(slices.Clone(base), "-trace", "1", "-trace-out", out), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s traced: %v\n", workload, err)
		return 1
	}
	var pi, ti info
	if err := json.Unmarshal(plain.info, &pi); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := json.Unmarshal(traced.info, &ti); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	// The two runs are compared as on the reference host, so a drift of the
	// host between them does not count as overhead.
	tracedMS := ti.Derived["op_ms_p50"] / ti.Derived["host_factor"]
	plainMS := pi.Derived["op_ms_p50"] / pi.Derived["host_factor"]
	overhead := 100 * (tracedMS/plainMS - 1)
	fmt.Fprintf(stderr, "%s: trace_overhead_pct %.2f (op_ms_p50 %.4f traced, %.4f untraced); trace written to %s\n",
		workload, overhead, tracedMS, plainMS, out)
	for _, l := range [][]byte{plain.info, plain.result, traced.info, traced.result} {
		fmt.Fprintln(stdout, string(l))
	}
	fmt.Fprintf(stdout, "{\"workload\":%q,\"trace_overhead_pct\":%g}\n", workload, overhead)
	return 0
}
