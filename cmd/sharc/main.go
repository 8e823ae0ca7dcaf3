// Command sharc is the SharC checker CLI: it parses ShC sources (the
// C-with-sharing-modes dialect), runs qualifier inference and the static
// checker, and can execute programs under the instrumented runtime.
//
// Usage:
//
//	sharc check  file.shc...   static checking; prints errors, warnings,
//	                           and SCAST suggestions
//	sharc infer  file.shc...   print the inferred sharing modes for every
//	                           struct, global, and function (Figure 2 view)
//	sharc vet    file.shc...   whole-program points-to + lockset analysis:
//	                           report statically provable races (must) and
//	                           possible ones (may), ranked; -json writes the
//	                           full report to a path; -explain file:line:col
//	                           prints one site's proof chain (lockset →
//	                           points-to → absint tier) and exits 0 when
//	                           the site has a static verdict, 1 when it
//	                           keeps its runtime check
//	sharc run    file.shc...   execute with full instrumentation; prints
//	                           program output, then any violation reports
//	sharc run -unchecked ...   execute without instrumentation ("Orig")
//	sharc run -seed N ...      execute under the deterministic cooperative
//	                           scheduler: the same (program, seed) pair
//	                           reproduces the identical run
//	sharc run -record t.json -seed N ...
//	                           additionally record the schedule to a trace
//	sharc run -replay t.json ...
//	                           re-execute a recorded schedule exactly (also
//	                           across -elide/-cache/-discharge configs: the
//	                           elision soundness oracle)
//	sharc explore file.shc...  run many controlled schedules (PCT, random,
//	                           round-robin sweep) and summarize the distinct
//	                           violations found and which schedule first
//	                           exposed each
//	sharc profile file.shc...  execute under a fixed seed with per-site
//	                           telemetry and print the hot-site report: the
//	                           checks each site executed, how many were
//	                           avoided (elision + cache), the threads that
//	                           touched it, the sharing mode the §4.1
//	                           heuristics would suggest, and the static vet
//	                           verdict for the site (mismatches flagged !)
//	sharc serve [file.shc...]  run the long-lived checked-execution service:
//	                           clients POST programs (inline source or a
//	                           cached handle) to /run and get the report/
//	                           exit/stats reply as JSON; compilation happens
//	                           once per distinct program. Positional files
//	                           are preloaded into the cache at startup.
//	                           Flags: -addr, -addr-file, -max-sessions,
//	                           -queue, -timeout-ms, -cache-cap (0 disables
//	                           the cache), -drain-ms (SIGTERM grace).
//	                           Observability (default on, -obs=false to
//	                           disable): every request gets a span tree
//	                           over admission-wait/resolve/schedule/
//	                           execute/telemetry-merge and an
//	                           X-Sharc-Request id; GET /metrics serves
//	                           Prometheus text; -access-log writes JSONL
//	                           records ("-" = stderr) gated by -log-level;
//	                           -slow-ms N or -slow-quantile q with
//	                           -capture-dir dumps any slower request's
//	                           span tree plus its program-level event ring
//	                           to the dir (at most -capture-max captures,
//	                           each with a Chrome trace_event twin);
//	                           -drain-grace-ms keeps the listener open
//	                           after SIGTERM with /healthz and /readyz
//	                           answering 503 so load balancers see the
//	                           drain before connections fail.
//
// run and explore also accept -metrics (print a telemetry summary) and
// -trace-out/-trace-chrome (export the structured event stream as JSONL
// or a Chrome trace_event file).
//
// run, explore, and profile execute on the register VM over the flat
// instruction form. They also accept -discharge, which runs the vet
// analysis at build time and removes the dynamic checks it proves can
// never fail.
//
// Exit codes are uniform across subcommands (see exitFor):
//
//	0  clean: check passed, explore/vet found nothing
//	1  findings: check/build errors, explore found a violation, vet
//	   reported a must finding; run instead propagates the program's
//	   own exit status masked to 0..255
//	2  usage error: unknown subcommand or flag, no input files
//	3  valid flags in a conflicting combination
//	4  a flag with a nonsensical value
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obsrv"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	exitUsage    = 2 // unknown subcommand / flag, missing files
	exitConflict = 3 // mutually exclusive flags
	exitBadValue = 4 // flag value out of range
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sharc {check|infer|vet|run|explore|profile|serve} [flags] file.shc...\n")
	os.Exit(exitUsage)
}

// cliFlags is the union of every subcommand's flags. Each subcommand
// registers only the subset it understands, so an unsupported flag is a
// parse error (exit 2), not a silent no-op; the zero value of the rest is
// inert. One struct means one validation table and one options builder.
type cliFlags struct {
	// run only
	unchecked bool
	stats     bool
	record    string
	replay    string
	// explore only
	schedules int
	strategy  string
	workers   int
	share     string
	// profile only
	top int
	// vet only
	explain string
	// serve only
	addr         string
	addrFile     string
	maxSessions  int
	queue        int
	timeoutMS    int
	cacheCap     int
	drainMS      int
	preload      int // count of positional preload files (set after Parse)
	obs          bool
	slowMS       int
	slowQuantile float64
	captureDir   string
	captureMax   int
	accessLog    string
	logLevel     string
	drainGraceMS int
	// shared between execution subcommands
	seed        int64
	elide       bool
	cache       bool
	discharge   bool
	metrics     bool
	jsonOut     string
	traceOut    string
	traceChrome string
	traceCap    int
}

// badSite explains what is wrong with a file:line:col site key, or returns
// "" for a well-formed one.
func badSite(site string) string {
	// The file part may contain colons, so parse from the right.
	i := strings.LastIndexByte(site, ':')
	if i < 0 {
		return fmt.Sprintf("-explain %q is not file:line:col", site)
	}
	j := strings.LastIndexByte(site[:i], ':')
	if j <= 0 {
		return fmt.Sprintf("-explain %q is not file:line:col", site)
	}
	line, err1 := strconv.Atoi(site[j+1 : i])
	col, err2 := strconv.Atoi(site[i+1:])
	if err1 != nil || err2 != nil || line < 1 || col < 1 {
		return fmt.Sprintf("-explain %q needs positive line and column numbers", site)
	}
	return ""
}

// badAddr explains what is wrong with a TCP listen address, or returns ""
// for a usable one. Port 0 is legal (the kernel picks; -addr-file reads
// the result back).
func badAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Sprintf("-addr %q is not host:port", addr)
	}
	_ = host // empty host = all interfaces, fine
	n, err := strconv.Atoi(port)
	if err != nil || n < 0 || n > 65535 {
		return fmt.Sprintf("-addr port %q is not a TCP port (0-65535)", port)
	}
	return ""
}

// cliRules is the single flag-validation table for every subcommand. Each
// rule names the subcommands it applies to, the exit code a violation
// earns, and a predicate returning the error message (empty = ok). The
// rules run in order and the first violation wins, so conflicts (exit 3)
// are listed before bad values (exit 4), matching the historical per-
// subcommand validators this table replaced.
var cliRules = []struct {
	cmds string // space-separated subcommands the rule applies to
	code int
	bad  func(*cliFlags) string
}{
	{"vet", exitConflict, func(f *cliFlags) string {
		if f.explain != "" && f.jsonOut != "" {
			return "-explain prints one site's proof chain; it cannot combine with the full -json report"
		}
		return ""
	}},
	{"vet", exitBadValue, func(f *cliFlags) string {
		if f.explain != "" {
			return badSite(f.explain)
		}
		return ""
	}},
	{"run", exitConflict, func(f *cliFlags) string {
		if f.record != "" && f.replay != "" {
			return "-record and -replay are mutually exclusive"
		}
		return ""
	}},
	{"run", exitConflict, func(f *cliFlags) string {
		if f.replay != "" && f.seed >= 0 {
			return "-replay re-executes a recorded schedule; -seed conflicts with it"
		}
		return ""
	}},
	{"run", exitConflict, func(f *cliFlags) string {
		if f.unchecked && (f.record != "" || f.replay != "") {
			return "-unchecked changes the instrumentation and with it the scheduling points; it cannot record or replay traces"
		}
		return ""
	}},
	{"run", exitConflict, func(f *cliFlags) string {
		if f.unchecked && (f.metrics || f.traceOut != "" || f.traceChrome != "") {
			return "-unchecked removes the instrumentation telemetry observes; it cannot combine with -metrics or trace export"
		}
		return ""
	}},
	{"run", exitConflict, func(f *cliFlags) string {
		if f.unchecked && f.discharge {
			return "-unchecked removes every check already; -discharge has nothing to prove away"
		}
		return ""
	}},
	{"run", exitBadValue, func(f *cliFlags) string {
		if f.seed < -1 {
			return fmt.Sprintf("-seed must be >= 0 (or omitted for free running), got %d", f.seed)
		}
		return ""
	}},
	{"explore profile", exitBadValue, func(f *cliFlags) string {
		if f.seed < 0 {
			return fmt.Sprintf("-seed must be >= 0, got %d", f.seed)
		}
		return ""
	}},
	{"explore", exitBadValue, func(f *cliFlags) string {
		if f.schedules <= 0 {
			return fmt.Sprintf("-schedules must be positive, got %d", f.schedules)
		}
		return ""
	}},
	{"explore", exitBadValue, func(f *cliFlags) string {
		switch f.strategy {
		case "mix", "random", "pct", "rr":
			return ""
		}
		return fmt.Sprintf("-strategy must be one of mix, random, pct, rr; got %q", f.strategy)
	}},
	{"explore", exitBadValue, func(f *cliFlags) string {
		if f.workers <= 0 {
			return fmt.Sprintf("-workers must be positive, got %d", f.workers)
		}
		return ""
	}},
	{"explore", exitBadValue, func(f *cliFlags) string {
		if !portfolio.ValidKind(f.share) {
			return fmt.Sprintf("-share must be one of %s; got %q", strings.Join(portfolio.Kinds, ", "), f.share)
		}
		return ""
	}},
	{"profile", exitBadValue, func(f *cliFlags) string {
		if f.top <= 0 {
			return fmt.Sprintf("-top must be positive, got %d", f.top)
		}
		return ""
	}},
	{"run explore profile", exitBadValue, func(f *cliFlags) string {
		if f.traceCap <= 0 {
			return fmt.Sprintf("-trace-events must be positive, got %d", f.traceCap)
		}
		return ""
	}},
	{"serve", exitConflict, func(f *cliFlags) string {
		if f.preload > 0 && f.cacheCap == 0 {
			return "-cache-cap 0 disables the program cache; preloading files into it is contradictory"
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		return badAddr(f.addr)
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.maxSessions <= 0 {
			return fmt.Sprintf("-max-sessions must be positive, got %d", f.maxSessions)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.queue < 0 {
			return fmt.Sprintf("-queue must be >= 0, got %d", f.queue)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.timeoutMS <= 0 {
			return fmt.Sprintf("-timeout-ms must be positive, got %d", f.timeoutMS)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.cacheCap < 0 {
			return fmt.Sprintf("-cache-cap must be >= 0 (0 disables caching), got %d", f.cacheCap)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.drainMS <= 0 {
			return fmt.Sprintf("-drain-ms must be positive, got %d", f.drainMS)
		}
		return ""
	}},
	{"serve", exitConflict, func(f *cliFlags) string {
		if !f.obs && (f.slowMS != 0 || f.slowQuantile != 0 || f.captureDir != "" || f.accessLog != "") {
			return "-obs=false disables the observability layer; -slow-ms, -slow-quantile, -capture-dir, and -access-log have nothing to act on"
		}
		return ""
	}},
	{"serve", exitConflict, func(f *cliFlags) string {
		if (f.slowMS > 0 || f.slowQuantile > 0) && f.captureDir == "" {
			return "a slow-request threshold needs -capture-dir to say where captures go"
		}
		return ""
	}},
	{"serve", exitConflict, func(f *cliFlags) string {
		if f.captureDir != "" && f.slowMS == 0 && f.slowQuantile == 0 {
			return "-capture-dir without -slow-ms or -slow-quantile would never capture anything"
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.slowMS < 0 {
			return fmt.Sprintf("-slow-ms must be >= 0 (0 disables the fixed threshold), got %d", f.slowMS)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.slowQuantile < 0 || f.slowQuantile >= 1 {
			return fmt.Sprintf("-slow-quantile must be in [0, 1), got %g", f.slowQuantile)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.captureMax <= 0 {
			return fmt.Sprintf("-capture-max must be positive, got %d", f.captureMax)
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if _, err := obsrv.ParseLevel(f.logLevel); err != nil {
			return "-log-level: " + err.Error()
		}
		return ""
	}},
	{"serve", exitBadValue, func(f *cliFlags) string {
		if f.drainGraceMS < 0 {
			return fmt.Sprintf("-drain-grace-ms must be >= 0, got %d", f.drainGraceMS)
		}
		return ""
	}},
}

// validate runs cmd's slice of the rule table. It returns a non-zero exit
// code and message on the first violated rule.
func validate(cmd string, f *cliFlags) (int, string) {
	for _, r := range cliRules {
		applies := false
		for _, c := range strings.Fields(r.cmds) {
			if c == cmd {
				applies = true
				break
			}
		}
		if !applies {
			continue
		}
		if msg := r.bad(f); msg != "" {
			return r.code, msg
		}
	}
	return 0, ""
}

// exitFor is the one outcome table run, explore, and vet share: run
// propagates the program's exit status (masked to a byte, as a shell
// would), while the analysis subcommands exit 1 when they found anything
// and 0 when clean. findings is ignored for run; programExit for the rest.
func exitFor(cmd string, programExit int64, findings int) int {
	switch cmd {
	case "run":
		return int(programExit) & 0xff
	case "explore", "vet":
		if findings > 0 {
			return 1
		}
	}
	return 0
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	switch cmd {
	case "check", "infer", "vet", "run", "explore", "profile", "serve":
	default:
		fmt.Fprintf(os.Stderr, "sharc: unknown subcommand %q\n", cmd)
		usage()
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var f cliFlags
	elisionFlags := func() {
		fs.BoolVar(&f.elide, "elide", false, "enable static redundant-check elision")
		fs.BoolVar(&f.cache, "cache", false, "enable the runtime check cache")
		fs.BoolVar(&f.discharge, "discharge", false, "statically discharge checks the vet analysis proves safe")
	}
	traceCapFlag := func() {
		fs.IntVar(&f.traceCap, "trace-events", telemetry.DefaultTraceCapacity, "event ring-buffer capacity for trace export")
	}
	switch cmd {
	case "vet":
		fs.StringVar(&f.jsonOut, "json", "", "also write the vet report as JSON to this path")
		fs.StringVar(&f.explain, "explain", "", "print the proof chain for one site (file:line:col) instead of the report")
	case "run":
		fs.BoolVar(&f.unchecked, "unchecked", false, "run without instrumentation (Orig)")
		fs.BoolVar(&f.stats, "stats", false, "print execution statistics")
		fs.Int64Var(&f.seed, "seed", -1, "deterministic scheduler seed (-1: free-running Go scheduler)")
		fs.StringVar(&f.record, "record", "", "record the schedule to this trace file (implies -seed 0 unless set)")
		fs.StringVar(&f.replay, "replay", "", "replay a recorded schedule from this trace file")
		elisionFlags()
		fs.BoolVar(&f.metrics, "metrics", false, "collect per-site telemetry and print a summary")
		fs.StringVar(&f.traceOut, "trace-out", "", "export the structured event trace as JSONL to this path")
		fs.StringVar(&f.traceChrome, "trace-chrome", "", "export the event trace in Chrome trace_event format to this path")
		traceCapFlag()
	case "explore":
		fs.IntVar(&f.schedules, "schedules", 100, "number of schedules to run")
		fs.StringVar(&f.strategy, "strategy", "mix", "schedule generator: mix, random, pct, rr")
		fs.Int64Var(&f.seed, "seed", 1, "base exploration seed")
		fs.IntVar(&f.workers, "workers", 1, "concurrent explorer workers (output is identical for any count)")
		fs.StringVar(&f.share, "share", "local", "cross-worker sharing topology: none, local, global")
		elisionFlags()
		fs.StringVar(&f.jsonOut, "json", "", "also write the summary as JSON to this path")
		fs.BoolVar(&f.metrics, "metrics", false, "aggregate per-site telemetry across schedules and print a summary")
		fs.StringVar(&f.traceOut, "trace-out", "", "export the cross-schedule event trace as JSONL to this path")
		traceCapFlag()
	case "profile":
		fs.Int64Var(&f.seed, "seed", 0, "deterministic scheduler seed for the profiled run")
		fs.IntVar(&f.top, "top", 10, "number of hot sites to list")
		elisionFlags()
		fs.StringVar(&f.jsonOut, "json", "", "also write the telemetry snapshot as JSON to this path")
		fs.StringVar(&f.traceOut, "trace-out", "", "export the structured event trace as JSONL to this path")
		fs.StringVar(&f.traceChrome, "trace-chrome", "", "export the event trace in Chrome trace_event format to this path")
		traceCapFlag()
	case "serve":
		fs.StringVar(&f.addr, "addr", "127.0.0.1:7077", "TCP listen address (port 0 picks an ephemeral port)")
		fs.StringVar(&f.addrFile, "addr-file", "", "write the bound address to this file once listening")
		fs.IntVar(&f.maxSessions, "max-sessions", 4, "concurrent checked executions")
		fs.IntVar(&f.queue, "queue", 64, "requests allowed to wait for a session slot before 503")
		fs.IntVar(&f.timeoutMS, "timeout-ms", 10000, "per-request execution timeout (ms)")
		fs.IntVar(&f.cacheCap, "cache-cap", 128, "compiled-program cache entries (0 disables caching)")
		fs.IntVar(&f.drainMS, "drain-ms", 10000, "graceful-drain deadline after SIGTERM/SIGINT (ms)")
		fs.BoolVar(&f.obs, "obs", true, "request observability: spans, /metrics, request IDs")
		fs.IntVar(&f.slowMS, "slow-ms", 0, "capture any request slower than this many ms (0 disables)")
		fs.Float64Var(&f.slowQuantile, "slow-quantile", 0, "capture requests above this trailing-window latency quantile, e.g. 0.99 (0 disables)")
		fs.StringVar(&f.captureDir, "capture-dir", "", "directory for slow-request captures (span tree + program trace)")
		fs.IntVar(&f.captureMax, "capture-max", 32, "most recent slow-request captures kept on disk")
		fs.StringVar(&f.accessLog, "access-log", "", "JSONL access-log path (\"-\" for stderr, empty disables)")
		fs.StringVar(&f.logLevel, "log-level", "info", "access-log level: off, error, info, debug")
		fs.IntVar(&f.drainGraceMS, "drain-grace-ms", 0, "keep the listener open this long after SIGTERM with /healthz answering 503, so health checks observe the drain")
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(exitUsage)
	}
	files := fs.Args()
	// serve takes positional files as optional cache preloads; every other
	// subcommand needs at least one input.
	if len(files) == 0 && cmd != "serve" {
		usage()
	}
	f.preload = len(files)

	// Validate flag combinations before touching the filesystem.
	if code, msg := validate(cmd, &f); code != 0 {
		fmt.Fprintln(os.Stderr, "sharc:", msg)
		os.Exit(code)
	}

	if cmd == "serve" {
		runServe(&f, files)
		return
	}

	var sources []sharc.Source
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		sources = append(sources, sharc.Source{Name: file, Text: string(data)})
	}

	a, err := sharc.Check(sources...)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "check":
		for _, e := range a.Errors() {
			fmt.Println("error:", e)
		}
		for _, w := range a.Warnings() {
			fmt.Println("warning:", w)
		}
		for _, s := range a.Suggestions() {
			fmt.Println("suggestion:", s)
		}
		if !a.OK() {
			os.Exit(1)
		}
		fmt.Println("ok")

	case "infer":
		if !a.OK() {
			for _, e := range a.Errors() {
				fmt.Println("error:", e)
			}
			os.Exit(1)
		}
		fmt.Print(a.InferredAnnotations())

	case "vet":
		if !a.OK() {
			for _, e := range a.Errors() {
				fmt.Println("error:", e)
			}
			os.Exit(1)
		}
		rep := a.Vet()
		if f.explain != "" {
			fmt.Print(rep.Explain(f.explain))
			if _, classified := rep.Verdicts()[f.explain]; !classified {
				os.Exit(1) // the site keeps its runtime check: a finding
			}
			os.Exit(0)
		}
		fmt.Print(rep.Format())
		if f.jsonOut != "" {
			data, err := rep.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(f.jsonOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", f.jsonOut)
		}
		os.Exit(exitFor(cmd, 0, rep.MustCount()))

	case "run":
		opts := buildOpts(&f, os.Stdout)
		opts.Metrics = f.metrics
		if f.traceOut != "" || f.traceChrome != "" {
			opts.TraceEvents = f.traceCap
		}
		p := buildOrDie(a, opts)
		var res *sharc.Result
		var runErr error
		switch {
		case f.replay != "":
			tr, err := sched.ReadTraceFile(f.replay)
			if err != nil {
				fatal(err)
			}
			var diverged bool
			res, diverged, runErr = p.RunReplay(tr)
			if diverged {
				fmt.Fprintln(os.Stderr, "sharc: replay diverged from the recorded schedule (different program or instrumentation?)")
			}
		case f.record != "":
			seed := f.seed
			if seed < 0 {
				seed = 0
			}
			var tr *sched.Trace
			res, tr, runErr = p.RunRecorded(seed)
			if err := sched.WriteTraceFile(f.record, tr); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "recorded %d scheduling decisions to %s\n", tr.Decisions, f.record)
		case f.seed >= 0:
			res, runErr = p.RunSeeded(f.seed)
		default:
			res, runErr = p.Run()
		}
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "runtime error:", runErr)
		}
		if res.Deadlock {
			fmt.Fprintln(os.Stderr, "sharc: deadlock detected (all threads blocked)")
		}
		for _, r := range res.Reports {
			fmt.Fprintln(os.Stderr, r.Msg)
		}
		if f.stats {
			st := res.Stats
			fmt.Fprintf(os.Stderr, "accesses=%d dynamic=%d lockchecks=%d barriers=%d collections=%d threads=%d\n",
				st.TotalAccesses, st.DynamicAccesses, st.LockChecks, st.Barriers, st.Collections, st.MaxThreads)
		}
		if f.metrics {
			fmt.Fprint(os.Stderr, telemetry.FormatSummary(res.Telemetry))
		}
		writeTraces(res.Trace, f.traceOut, f.traceChrome)
		os.Exit(exitFor(cmd, res.Exit, len(res.Reports)))

	case "explore":
		opts := buildOpts(&f, io.Discard)
		opts.Metrics = f.metrics
		if f.traceOut != "" {
			opts.TraceEvents = f.traceCap
		}
		p := buildOrDie(a, opts)
		sum := p.Explore(sharc.ExploreOptions{
			Schedules: f.schedules,
			Strategy:  f.strategy,
			Seed:      f.seed,
			Workers:   f.workers,
			Share:     f.share,
		})
		// Portfolio mechanics go to stderr: stdout and -json are pinned
		// byte-identical across worker counts, and skip counts are not.
		fmt.Fprintf(os.Stderr, "portfolio: %d worker(s), share=%s, %d duplicate schedule(s), %d execution(s) skipped\n",
			sum.Workers, sum.Share, sum.Duplicates, sum.SkippedExecutions)
		fmt.Printf("explored %d schedules (%d scheduling decisions): %d distinct finding(s)\n",
			sum.Schedules, sum.Decisions, len(sum.Findings))
		for _, fd := range sum.Findings {
			fmt.Printf("[%s] %s — first at schedule %d (%s, seed %d)\n",
				fd.KindName, fd.Site, fd.Schedule, fd.Strategy, fd.Seed)
			fmt.Println(indent(fd.Msg))
		}
		if f.jsonOut != "" {
			data, err := sharc.ExploreSummaryJSON(sum)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(f.jsonOut, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", f.jsonOut)
		}
		if f.metrics {
			fmt.Print(telemetry.FormatSummary(sum.Telemetry))
		}
		writeTraces(sum.Trace, f.traceOut, "")
		os.Exit(exitFor(cmd, 0, len(sum.Findings)))

	case "profile":
		// Program output is discarded: the deliverable is the hot-site
		// report, computed from a deterministic seeded run so the table is
		// byte-identical across invocations.
		opts := buildOpts(&f, io.Discard)
		opts.Metrics = true
		if f.traceOut != "" || f.traceChrome != "" {
			opts.TraceEvents = f.traceCap
		}
		p := buildOrDie(a, opts)
		res, runErr := p.RunSeeded(f.seed)
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "runtime error:", runErr)
		}
		if res.Deadlock {
			fmt.Fprintln(os.Stderr, "sharc: deadlock detected (all threads blocked)")
		}
		fmt.Print(telemetry.FormatProfileVet(res.Telemetry, f.top, a.Vet().Verdicts()))
		if f.jsonOut != "" {
			data, err := json.MarshalIndent(res.Telemetry, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(f.jsonOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", f.jsonOut)
		}
		writeTraces(res.Trace, f.traceOut, f.traceChrome)
	}
}

// runServe runs the checked-execution service until a termination signal,
// then drains: in-flight requests finish (up to -drain-ms), new ones are
// refused, and past the deadline stragglers are interrupted.
func runServe(f *cliFlags, files []string) {
	cacheCap := f.cacheCap
	if cacheCap == 0 {
		cacheCap = -1 // CLI 0 = disabled; Config negative = disabled
	}
	obsCfg := obsrv.Config{
		Enabled:       f.obs,
		SlowThreshold: time.Duration(f.slowMS) * time.Millisecond,
		SlowQuantile:  f.slowQuantile,
		CaptureDir:    f.captureDir,
		CaptureMax:    f.captureMax,
	}
	obsCfg.LogLevel, _ = obsrv.ParseLevel(f.logLevel) // validated above
	switch f.accessLog {
	case "":
	case "-":
		obsCfg.AccessLog = os.Stderr
	default:
		lf, err := os.OpenFile(f.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer lf.Close()
		obsCfg.AccessLog = lf
	}
	srv := serve.New(serve.Config{
		Addr:        f.addr,
		MaxSessions: f.maxSessions,
		QueueDepth:  f.queue,
		Timeout:     time.Duration(f.timeoutMS) * time.Millisecond,
		CacheCap:    cacheCap,
		DrainGrace:  time.Duration(f.drainGraceMS) * time.Millisecond,
		Obs:         obsCfg,
	})
	if err := srv.Listen(); err != nil {
		fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		handle, err := srv.Preload(file, string(data))
		if err != nil {
			fatal(fmt.Errorf("preload %s: %w", file, err))
		}
		fmt.Fprintf(os.Stderr, "sharc serve: preloaded %s as %s\n", file, handle)
	}
	if f.addrFile != "" {
		if err := os.WriteFile(f.addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "sharc serve: listening on %s (%d session(s), queue %d, timeout %dms)\n",
		srv.Addr(), f.maxSessions, f.queue, f.timeoutMS)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sharc serve: %v: draining (deadline %dms)\n", sig, f.drainMS)
		// The drain-grace window (listener open, health checks 503) runs
		// before the drain proper; give the deadline room for both.
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(f.drainMS+f.drainGraceMS)*time.Millisecond)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sharc serve: drain deadline exceeded; interrupted remaining runs")
		}
		<-done
		fmt.Fprintln(os.Stderr, "sharc serve: shutdown complete")
	}
}

// writeTraces exports the event stream in the requested formats.
func writeTraces(tr *telemetry.Tracer, jsonl, chrome string) {
	if tr == nil {
		return
	}
	export := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace event(s) to %s (%d dropped)\n",
			tr.Total()-tr.Dropped(), path, tr.Dropped())
	}
	if jsonl != "" {
		export(jsonl, tr.WriteJSONL)
	}
	if chrome != "" {
		export(chrome, tr.WriteChrome)
	}
}

// buildOpts assembles the instrumentation options for the execution
// subcommands from the shared flag struct.
func buildOpts(f *cliFlags, stdout io.Writer) sharc.Options {
	opts := sharc.DefaultOptions()
	if f.unchecked {
		opts = sharc.Options{}
	}
	opts.ElideChecks = f.elide
	opts.CheckCache = f.cache
	opts.StaticDischarge = f.discharge
	opts.Stdout = stdout
	return opts
}

func buildOrDie(a *sharc.Analysis, opts sharc.Options) *sharc.Program {
	if !a.OK() {
		for _, e := range a.Errors() {
			fmt.Println("error:", e)
		}
		for _, s := range a.Suggestions() {
			fmt.Println("suggestion:", s)
		}
		os.Exit(1)
	}
	p, err := a.Build(opts)
	if err != nil {
		fatal(err)
	}
	return p
}

func indent(s string) string {
	out := "    "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "    "
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sharc:", err)
	os.Exit(1)
}
