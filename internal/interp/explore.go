package interp

// Portfolio schedule exploration: K concurrent explorer workers, each with
// a fully instance-scoped stack (controller, strategy stream, runtime,
// shadow state, telemetry instruments), coordinated through the pluggable
// sharing layer in internal/portfolio.
//
// Determinism contract. The merged output is byte-identical for every
// worker count and GOMAXPROCS value, because everything timing-dependent
// is advisory:
//
//   - Schedule i's strategy is a pure function of (Strategy, Seed, i) and
//     the calibration horizon, which is fixed by schedule 0 before any
//     worker starts. Two schedules are *duplicates* when their strategy
//     identities (name + seed) are equal — a static property computed up
//     front — which makes their decision traces, reports, and decision
//     counts equal by construction.
//   - A worker reaching a duplicate first consults the sharing layer for
//     the original's memo and skips execution when one is visible; when
//     the memo has not propagated yet (racy by design in the global
//     topology) it falls back to executing the schedule with throwaway
//     instruments. Both paths yield the identical outcome row, and
//     neither contributes telemetry or trace events, so the merged output
//     cannot depend on which path was taken.
//   - Shared violation sites may reorder a worker's remaining queue (PCT
//     schedules are promoted once findings exist), never change what runs.
//   - The merge stage canonicalizes by ascending schedule index: findings
//     dedupe to their minimum schedule, counters sum, gauges take maxima,
//     and trace events re-sequence by (schedule, emission order).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// ExploreOptions configures systematic schedule exploration.
type ExploreOptions struct {
	// Schedules is the number of schedules to run (default 100).
	Schedules int
	// Strategy selects the schedule generator: "random", "pct", "rr", or
	// "mix" (default), which interleaves a bounded round-robin sweep with
	// PCT random-priority schedules and uniform random schedules.
	Strategy string
	// Seed perturbs the whole exploration; schedule i derives its own seed
	// from (Seed, i).
	Seed int64
	// Workers is the number of concurrent explorer workers (default 1).
	// The merged output is identical for every worker count.
	Workers int
	// Share selects the cross-worker sharing topology: "none", "local"
	// (default), or "global"; see portfolio.New. Unknown values fall back
	// to "local" — callers wanting strict validation use
	// portfolio.ValidKind first.
	Share string
}

// ScheduleOutcome summarizes one explored schedule.
type ScheduleOutcome struct {
	Index    int    `json:"index"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	Deadlock bool   `json:"deadlock,omitempty"`
	Reports  int    `json:"reports"`
	New      int    `json:"new"`
	// Duplicate marks a schedule whose strategy identity repeats an
	// earlier index: its results are equal to the original's by
	// construction, and the portfolio may skip executing it.
	Duplicate bool `json:"dup,omitempty"`
}

// Finding is one distinct violation discovered during exploration,
// deduplicated by (site, kind) across schedules.
type Finding struct {
	Kind     ReportKind `json:"-"`
	KindName string     `json:"kind"`
	Pos      token.Pos  `json:"-"`
	Site     string     `json:"site"`
	Msg      string     `json:"msg"`
	Schedule int        `json:"schedule"` // first schedule that exposed it
	Strategy string     `json:"strategy"`
	Seed     int64      `json:"seed"`
}

// ExploreSummary is the coverage report of an exploration run.
type ExploreSummary struct {
	Schedules int   `json:"schedules"`
	Decisions int64 `json:"decisions"`
	// Duplicates counts schedules whose strategy identity repeated an
	// earlier index (a static property of the strategy family and seed).
	Duplicates int               `json:"duplicates"`
	Findings   []Finding         `json:"findings"`
	Outcomes   []ScheduleOutcome `json:"outcomes"`
	// Telemetry aggregates per-site metrics across every schedule (nil
	// unless the template config enabled Metrics).
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Trace is the merged event tracer spanning all schedules (nil unless
	// tracing was enabled); events carry the schedule index they ran in.
	Trace *telemetry.Tracer `json:"-"`

	// The fields below describe how the portfolio ran, not what it found.
	// They are excluded from JSON because they vary with worker count and
	// timing, and the JSON output is pinned byte-identical across both.

	// Workers is the worker count the exploration actually used.
	Workers int `json:"-"`
	// Share is the sharing topology the exploration actually used.
	Share string `json:"-"`
	// SkippedExecutions counts duplicate schedules discharged from a
	// shared memo without executing (≤ Duplicates; the rest of the
	// duplicates re-executed because no memo was visible in time).
	SkippedExecutions int `json:"-"`
	// ShareStats reports the sharing layer's transport counters.
	ShareStats portfolio.Stats `json:"-"`
	// FirstFinding is the wall-clock time from the start of exploration to
	// the first schedule observed with at least one report (0 if none).
	FirstFinding time.Duration `json:"-"`
}

// findingKey dedupes reports by (site, kind): the same violation rediscovered
// under another interleaving is not a new finding.
func findingKey(r Report) string {
	return fmt.Sprintf("%d|%s:%d:%d", r.Kind, r.Pos.File, r.Pos.Line, r.Pos.Col)
}

// exploreStrategy builds schedule i's strategy. The round-robin sweep uses
// quanta 1..4; PCT uses 3 change points over the calibrated decision
// horizon.
func exploreStrategy(kind string, seed int64, i int, horizon int64) sched.Strategy {
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
	default: // mix
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

// pctSchedule reports whether schedule i of the strategy family is a PCT
// schedule — the kind whose priority-demotion search benefits from knowing
// which sites already produced findings, so workers promote these when the
// sharing layer has sites.
func pctSchedule(kind string, i int) bool {
	return kind == "pct" || (kind == "mix" && (i%4 == 1 || i%4 == 2))
}

// schedResult is one schedule's contribution to the canonical merge.
type schedResult struct {
	name      string
	seed      int64
	decisions int64
	deadlock  bool
	// reports are the schedule's reports in the runtime's deterministic
	// emission order, in the engine-independent carrier form.
	reports []portfolio.Finding
	dup     bool
	skipped bool // duplicate discharged from a memo without executing
	// global holds the schedule's substrate gauges and counter totals
	// (hasGlobal set); duplicates never contribute one.
	global    telemetry.GlobalStats
	hasGlobal bool
}

// instruments is one worker's instance-scoped telemetry stack.
type instruments struct {
	tel    *telemetry.Collector
	tracer *telemetry.Tracer
}

// exploration carries the per-run state shared by the calibration run and
// the workers.
type exploration struct {
	prog    *ir.Program
	cfg     Config
	opt     ExploreOptions
	info    []telemetry.SiteInfo
	metrics bool
	tracing bool
	horizon int64

	sharing portfolio.Sharing
	results []schedResult

	start        time.Time
	firstFinding atomic.Int64 // nanoseconds since start; 0 = none yet
	skipped      atomic.Int64
}

// carryReports converts a runtime's reports to the memo carrier form.
func carryReports(reports []Report) []portfolio.Finding {
	if len(reports) == 0 {
		return nil
	}
	out := make([]portfolio.Finding, len(reports))
	for i, r := range reports {
		out[i] = portfolio.Finding{
			Kind:     int(r.Kind),
			KindName: r.Kind.String(),
			File:     r.Pos.File,
			Line:     r.Pos.Line,
			Col:      r.Pos.Col,
			Site:     fmt.Sprintf("%s:%d:%d", r.Pos.File, r.Pos.Line, r.Pos.Col),
			Msg:      r.Msg,
		}
	}
	return out
}

// distinctSites returns each report site once, in first-appearance order.
func distinctSites(reports []portfolio.Finding) []string {
	var out []string
	seen := make(map[string]bool)
	for _, f := range reports {
		if !seen[f.Site] {
			seen[f.Site] = true
			out = append(out, f.Site)
		}
	}
	return out
}

// noteFindings stamps the time-to-first-finding clock and publishes the
// schedule's violation sites.
func (e *exploration) noteFindings(reports []portfolio.Finding) {
	if len(reports) == 0 {
		return
	}
	e.firstFinding.CompareAndSwap(0, int64(time.Since(e.start))+1)
	e.sharing.PublishSites(distinctSites(reports))
}

// execute runs schedule i on a fresh runtime wired to ins (both fields may
// be nil: a throwaway run) and returns the result row plus the recorded
// decision trace.
func (e *exploration) execute(i int, ins instruments, withGlobal bool) (schedResult, *sched.Trace) {
	strat := exploreStrategy(e.opt.Strategy, e.opt.Seed, i, e.horizon)
	ctl := sched.New(strat, sched.Options{Record: true})
	c := e.cfg
	c.Sched = ctl
	c.Telemetry = ins.tel
	c.Tracer = ins.tracer
	c.Counters = new(telemetry.Counters) // per-schedule spine → per-schedule totals
	if ins.tracer != nil {
		ins.tracer.SetSchedule(i)
		// Reset the decision stamp: events before the schedule's first
		// decision must not inherit the previous schedule's count, which
		// would differ with the worker's queue and break worker-count
		// independence.
		ins.tracer.SetStep(-1)
	}
	rt := New(e.prog, c)
	rt.Run() // thread failures surface as reports
	res := schedResult{
		name:      strat.Name(),
		seed:      strat.Seed(),
		decisions: ctl.Decisions(),
		deadlock:  ctl.Deadlocked(),
		reports:   carryReports(rt.Reports()),
	}
	if withGlobal {
		res.global = rt.globalStats()
		res.hasGlobal = true
	}
	return res, ctl.Trace()
}

// runPrimary executes a first-occurrence schedule with the worker's real
// instruments and publishes its memo.
func (e *exploration) runPrimary(i int, identity string, ins instruments, memos map[string]portfolio.Memo) {
	res, tr := e.execute(i, ins, e.metrics)
	m := portfolio.Memo{
		Digest:    portfolio.DigestTrace(tr),
		Decisions: res.decisions,
		Deadlock:  res.deadlock,
		Reports:   len(res.reports),
		Findings:  res.reports,
	}
	memos[identity] = m
	e.sharing.Publish(identity, m)
	e.noteFindings(res.reports)
	e.results[i] = res
}

// runDuplicate discharges schedule i, a duplicate of an earlier index,
// from a memo when one is visible, re-executing with throwaway instruments
// otherwise. Either way the result row is identical and no telemetry is
// contributed.
func (e *exploration) runDuplicate(i int, identity string, memos map[string]portfolio.Memo) {
	m, ok := memos[identity]
	if !ok {
		m, ok = e.sharing.Lookup(identity)
	}
	if ok {
		strat := exploreStrategy(e.opt.Strategy, e.opt.Seed, i, e.horizon)
		e.results[i] = schedResult{
			name:      strat.Name(),
			seed:      strat.Seed(),
			decisions: m.Decisions,
			deadlock:  m.Deadlock,
			reports:   m.Findings,
			dup:       true,
			skipped:   true,
		}
		e.skipped.Add(1)
		e.noteFindings(m.Findings)
		return
	}
	res, _ := e.execute(i, instruments{}, false)
	res.dup = true
	e.noteFindings(res.reports)
	e.results[i] = res
}

// worker runs the ascending index queue, promoting PCT schedules to the
// front once shared findings exist. Reordering is disabled while tracing:
// the merged ring window is byte-identical to the sequential one only when
// every worker appends in ascending schedule order.
func (e *exploration) worker(queue []int, dupOf []int, identities []string, ins instruments, memos map[string]portfolio.Memo) {
	promoted := e.tracing // already-promoted sentinel doubles as the disable flag
	for n := 0; n < len(queue); n++ {
		if !promoted && e.sharing.SiteCount() > 0 {
			promoted = true
			queue = promotePCT(queue[:n:n], queue[n:], e.opt.Strategy)
		}
		i := queue[n]
		if dupOf[i] >= 0 {
			e.runDuplicate(i, identities[i], memos)
		} else {
			e.runPrimary(i, identities[i], ins, memos)
		}
	}
}

// promotePCT stably partitions the remaining queue with PCT schedules
// first, preserving ascending order within each class.
func promotePCT(done, rest []int, kind string) []int {
	out := done
	for _, i := range rest {
		if pctSchedule(kind, i) {
			out = append(out, i)
		}
	}
	for _, i := range rest {
		if !pctSchedule(kind, i) {
			out = append(out, i)
		}
	}
	return out
}

// Explore runs the program under opt.Schedules controlled schedules —
// distributed over opt.Workers concurrent workers — and aggregates the
// distinct findings. cfg is used as a template; its Sched, Telemetry,
// Tracer, and Counters fields are overwritten per schedule so every worker
// owns an instance-scoped stack.
func Explore(prog *ir.Program, cfg Config, opt ExploreOptions) *ExploreSummary {
	if opt.Schedules <= 0 {
		opt.Schedules = 100
	}
	if opt.Strategy == "" {
		opt.Strategy = "mix"
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.Workers > opt.Schedules {
		opt.Workers = opt.Schedules
	}
	if !portfolio.ValidKind(opt.Share) {
		opt.Share = "local"
	}
	sharing, _ := portfolio.New(opt.Share, opt.Workers)

	e := &exploration{
		prog:    prog,
		cfg:     cfg,
		opt:     opt,
		info:    siteInfos(prog),
		metrics: cfg.Metrics || cfg.Telemetry != nil,
		tracing: cfg.TraceCapacity > 0 || cfg.Tracer != nil,
		sharing: sharing,
		results: make([]schedResult, opt.Schedules),
		start:   time.Now(),
	}
	// The template's shared-instance fields are replaced by per-worker
	// instances below; drop them so runtimes never alias across workers.
	e.cfg.Telemetry, e.cfg.Tracer, e.cfg.Counters = nil, nil, nil

	// Strategy identities are pure functions of (Strategy, Seed, index), so
	// the duplicate structure of the whole exploration is static: dupOf[i]
	// is the first earlier index with the same identity, or -1.
	identities := make([]string, opt.Schedules)
	dupOf := make([]int, opt.Schedules)
	first := make(map[string]int)
	for i := range identities {
		s := exploreStrategy(opt.Strategy, opt.Seed, i, 4096)
		identities[i] = fmt.Sprintf("%s|%d", s.Name(), s.Seed())
		if j, ok := first[identities[i]]; ok {
			dupOf[i] = j
		} else {
			dupOf[i] = -1
			first[identities[i]] = i
		}
	}

	// Calibration: schedule 0 runs first, alone, under the default horizon;
	// its decision count fixes the PCT horizon for every later schedule, so
	// strategy construction never depends on execution order.
	workerIns := make([]instruments, opt.Workers) // [0] doubles as the calibration run's
	newIns := func() instruments {
		var ins instruments
		if e.metrics {
			ins.tel = telemetry.NewCollector(e.info)
		}
		if e.tracing {
			ins.tracer = telemetry.NewTracer(cfg.TraceCapacity, e.info)
		}
		return ins
	}
	workerIns[0] = newIns()
	memos0 := make(map[string]portfolio.Memo)
	e.runPrimary(0, identities[0], workerIns[0], memos0)
	e.horizon = e.results[0].decisions

	// Workers: worker w owns indices {i ≥ 1 : (i-1) mod Workers == w},
	// executed in ascending order (modulo the output-neutral PCT
	// promotion). Worker 0 inherits the calibration run's instruments and
	// memos, so with one worker the run degenerates to the sequential
	// single-collector exploration.
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		var queue []int
		for i := 1 + w; i < opt.Schedules; i += opt.Workers {
			queue = append(queue, i)
		}
		ins, memos := workerIns[0], memos0
		if w > 0 {
			ins = newIns()
			workerIns[w] = ins
			memos = make(map[string]portfolio.Memo)
		}
		wg.Add(1)
		go func(queue []int, ins instruments, memos map[string]portfolio.Memo) {
			defer wg.Done()
			e.worker(queue, dupOf, identities, ins, memos)
		}(queue, ins, memos)
	}
	wg.Wait()
	sharing.Close()

	// Canonical merge: ascending schedule index, findings attributed to
	// their minimum index. Identical for every worker count by the
	// determinism contract above.
	sum := &ExploreSummary{
		Schedules:         opt.Schedules,
		Workers:           opt.Workers,
		Share:             opt.Share,
		SkippedExecutions: int(e.skipped.Load()),
		ShareStats:        sharing.Stats(),
	}
	if ns := e.firstFinding.Load(); ns > 0 {
		sum.FirstFinding = time.Duration(ns - 1)
	}
	seen := make(map[string]bool)
	for i, r := range e.results {
		sum.Decisions += r.decisions
		if r.dup {
			sum.Duplicates++
		}
		out := ScheduleOutcome{
			Index:     i,
			Strategy:  r.name,
			Seed:      r.seed,
			Deadlock:  r.deadlock,
			Reports:   len(r.reports),
			Duplicate: r.dup,
		}
		for _, f := range r.reports {
			key := fmt.Sprintf("%d|%s:%d:%d", f.Kind, f.File, f.Line, f.Col)
			if seen[key] {
				continue
			}
			seen[key] = true
			out.New++
			sum.Findings = append(sum.Findings, Finding{
				Kind:     ReportKind(f.Kind),
				KindName: f.KindName,
				Pos:      token.Pos{File: f.File, Line: f.Line, Col: f.Col},
				Site:     f.Site,
				Msg:      f.Msg,
				Schedule: i,
				Strategy: r.name,
				Seed:     r.seed,
			})
		}
		sum.Outcomes = append(sum.Outcomes, out)
	}

	// Telemetry merge: per-site counters fold into one collector
	// (commutative sums and mask ORs), per-schedule substrate totals fold
	// in ascending index order, and the per-worker trace rings merge into
	// one frozen ring re-sequenced by (schedule, emission order).
	if e.metrics {
		master := cfg.Telemetry
		if master == nil {
			master = telemetry.NewCollector(e.info)
		}
		for _, ins := range workerIns {
			if ins.tel != nil && ins.tel != master {
				master.Merge(ins.tel)
			}
		}
		globals := make([]telemetry.GlobalStats, 0, opt.Schedules)
		for _, r := range e.results {
			if r.hasGlobal {
				globals = append(globals, r.global)
			}
		}
		sum.Telemetry = master.Snapshot(telemetry.MergeGlobalStats(globals...), elisionInfo(prog))
	}
	if e.tracing {
		parts := make([]*telemetry.Tracer, 0, len(workerIns))
		for _, ins := range workerIns {
			if ins.tracer != nil {
				parts = append(parts, ins.tracer)
			}
		}
		sum.Trace = telemetry.MergeTracers(cfg.TraceCapacity, e.info, parts...)
	}
	return sum
}
