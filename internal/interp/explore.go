package interp

// Schedule exploration: K concurrent explorer workers, each with a fully
// instance-scoped stack (controller, strategy stream, runtime, shadow
// state, telemetry instruments).
//
// Determinism contract. The merged output is byte-identical for every
// worker count and GOMAXPROCS value:
//
//   - Schedule i's strategy is a pure function of (Strategy, Seed, i) and
//     the calibration horizon, which is fixed by schedule 0 before any
//     worker starts. Two schedules are *duplicates* when their strategy
//     identities (name + seed) are equal — a static property computed up
//     front — which makes their decision counts, deadlock flags, and
//     reports equal by construction.
//   - Only first occurrences run. Workers claim them in ascending index
//     order through one shared cursor, so every worker's tracer ring
//     receives its schedules in ascending order however the claims
//     interleave. A duplicate never runs: the merge copies its row from
//     the schedule it repeats, and it contributes no telemetry or trace
//     events.
//   - The merge stage canonicalizes by ascending schedule index: findings
//     dedupe to their minimum schedule, counters sum, gauges take maxima,
//     and trace events re-sequence by (schedule, emission order).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
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
	// Workers is the number of concurrent explorer workers (default 1),
	// capped at the number of distinct schedules after schedule 0. The
	// merged output is identical for every worker count.
	Workers int
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
	// construction, so it is copied from the original instead of run.
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
	// Workers is the worker count the exploration actually used. It is
	// excluded from JSON, which is pinned byte-identical across worker
	// counts.
	Workers int `json:"-"`
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

// schedResult is one schedule's contribution to the canonical merge.
type schedResult struct {
	name      string
	seed      int64
	decisions int64
	deadlock  bool
	// reports are the schedule's reports in the runtime's deterministic
	// emission order.
	reports []Report
	// global holds the schedule's substrate gauges and counter totals
	// (metrics only); duplicates never contribute one.
	global telemetry.GlobalStats
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
	metrics bool
	horizon int64
	results []schedResult
}

// run executes schedule i on a fresh runtime wired to the worker's
// instruments and stores its result row.
func (e *exploration) run(i int, ins instruments) {
	strat := exploreStrategy(e.opt.Strategy, e.opt.Seed, i, e.horizon)
	ctl := sched.New(strat, sched.Options{})
	c := e.cfg
	c.Sched = ctl
	c.Telemetry = ins.tel
	c.Tracer = ins.tracer
	c.Counters = new(telemetry.Counters) // per-schedule spine → per-schedule totals
	if ins.tracer != nil {
		ins.tracer.SetSchedule(i)
		// Reset the decision stamp: events before the schedule's first
		// decision must not inherit the previous schedule's count, which
		// would differ with the worker's claims and break worker-count
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
		reports:   rt.Reports(),
	}
	if e.metrics {
		res.global = rt.globalStats()
	}
	rt.Release()
	e.results[i] = res
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

	// Strategy identities are pure functions of (Strategy, Seed, index), so
	// the duplicate structure of the whole exploration is static: dupOf[i]
	// is the first earlier index with the same identity, or -1. primaries
	// lists the first occurrences after schedule 0 in ascending order.
	type identity struct {
		name string
		seed int64
	}
	dupOf := make([]int, opt.Schedules)
	first := make(map[identity]int)
	var primaries []int
	for i := range dupOf {
		s := exploreStrategy(opt.Strategy, opt.Seed, i, 4096)
		id := identity{s.Name(), s.Seed()}
		if j, ok := first[id]; ok {
			dupOf[i] = j
			continue
		}
		dupOf[i] = -1
		first[id] = i
		if i > 0 {
			primaries = append(primaries, i)
		}
	}
	opt.Workers = min(opt.Workers, len(primaries))
	if opt.Workers <= 0 {
		opt.Workers = 1
	}

	info := siteInfos(prog)
	tracing := cfg.TraceCapacity > 0 || cfg.Tracer != nil
	e := &exploration{
		prog:    prog,
		cfg:     cfg,
		opt:     opt,
		metrics: cfg.Metrics || cfg.Telemetry != nil,
		results: make([]schedResult, opt.Schedules),
	}
	// The template's shared-instance fields are replaced by per-worker
	// instances below; drop them so runtimes never alias across workers.
	e.cfg.Telemetry, e.cfg.Tracer, e.cfg.Counters = nil, nil, nil

	workerIns := make([]instruments, opt.Workers)
	for w := range workerIns {
		if e.metrics {
			workerIns[w].tel = telemetry.NewCollector(info)
		}
		if tracing {
			workerIns[w].tracer = telemetry.NewTracer(cfg.TraceCapacity, info)
		}
	}

	// Calibration: schedule 0 runs first, alone, under the default horizon
	// on worker 0's instruments; its decision count fixes the PCT horizon
	// for every later schedule, so strategy construction never depends on
	// execution order.
	e.run(0, workerIns[0])
	e.horizon = e.results[0].decisions

	// Workers claim first occurrences in ascending order from one cursor.
	// With one worker the run degenerates to the sequential
	// single-collector exploration.
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, ins := range workerIns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(primaries) {
					return
				}
				e.run(primaries[n], ins)
			}
		}()
	}
	wg.Wait()

	// Canonical merge: ascending schedule index, duplicates copied from the
	// schedule they repeat, findings attributed to their minimum index.
	// Identical for every worker count by the determinism contract above.
	sum := &ExploreSummary{Schedules: opt.Schedules, Workers: opt.Workers}
	seen := make(map[string]bool)
	for i := range e.results {
		r := &e.results[i]
		dup := dupOf[i] >= 0
		if dup {
			src := e.results[dupOf[i]]
			strat := exploreStrategy(opt.Strategy, opt.Seed, i, e.horizon)
			r.name, r.seed = strat.Name(), strat.Seed()
			r.decisions, r.deadlock, r.reports = src.decisions, src.deadlock, src.reports
			sum.Duplicates++
		}
		sum.Decisions += r.decisions
		out := ScheduleOutcome{
			Index:     i,
			Strategy:  r.name,
			Seed:      r.seed,
			Deadlock:  r.deadlock,
			Reports:   len(r.reports),
			Duplicate: dup,
		}
		for _, rep := range r.reports {
			key := findingKey(rep)
			if seen[key] {
				continue
			}
			seen[key] = true
			out.New++
			sum.Findings = append(sum.Findings, Finding{
				Kind:     rep.Kind,
				KindName: rep.Kind.String(),
				Pos:      rep.Pos,
				Site:     fmt.Sprintf("%s:%d:%d", rep.Pos.File, rep.Pos.Line, rep.Pos.Col),
				Msg:      rep.Msg,
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
			master = telemetry.NewCollector(info)
		}
		for _, ins := range workerIns {
			master.Merge(ins.tel)
		}
		globals := make([]telemetry.GlobalStats, 0, len(primaries)+1)
		for i, r := range e.results {
			if dupOf[i] < 0 {
				globals = append(globals, r.global)
			}
		}
		sum.Telemetry = master.Snapshot(telemetry.MergeGlobalStats(globals...))
	}
	if tracing {
		parts := make([]*telemetry.Tracer, len(workerIns))
		for w, ins := range workerIns {
			parts[w] = ins.tracer
		}
		sum.Trace = telemetry.MergeTracers(cfg.TraceCapacity, info, parts...)
	}
	return sum
}
