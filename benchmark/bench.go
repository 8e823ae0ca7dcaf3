package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names with their direction and bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms"},
	{"types.world_ms", "ms"},
	{"qualinfer.infer_ms", "ms"},
	{"check.check_ms", "ms"},
	{"pointsto.analyze_ms", "ms"},
	{"vet.analyze_ms", "ms"},
	{"absint.steps", "count"},
	{"absint.gave_up_frac", "ratio"},
	{"compile.compile_ms", "ms"},
	{"compile.flat_instrs", "count"},
	{"compile.check_sites", "count"},
	{"compile.avoided_frac", "ratio"},
	{"interp.new_ms", "ms"},
	{"interp.new_mb", "MB"},
	{"interp.run_ms", "ms"},
	{"interp.run_ms_orig", "ms"},
	{"interp.accesses", "count"},
	{"shadow.dynamic_checks", "count"},
	{"locklog.lock_checks", "count"},
	{"refcount.barriers", "count"},
	{"refcount.collections", "count"},
	{"shadow.pages", "count"},
	{"interp.heap_pages", "count"},
	{"sched.run_ms", "ms"},
	{"sched.decisions_per_schedule", "count"},
	{"portfolio.dup_frac", "ratio"},
	{"serve.admission_wait_ms_p50", "ms"},
	{"serve.admission_wait_ms_p99", "ms"},
	{"serve.resolve_ms_p50", "ms"},
	{"serve.resolve_ms_p99", "ms"},
	{"serve.schedule_ms_p50", "ms"},
	{"serve.schedule_ms_p99", "ms"},
	{"serve.execute_ms_p50", "ms"},
	{"serve.execute_ms_p99", "ms"},
	{"serve.merge_ms_p50", "ms"},
	{"serve.merge_ms_p99", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.open_ms_p99", "ms"},
	{"http.client_overhead_ms", "ms"},
	{"gc.cycles_per_op", "count"},
	{"gc.pause_ms_per_op", "ms"},
}

const mb = 1e6

// workload is one of the benchmark's workloads: the function that runs it,
// and its host sensitivity, the exponent by which its times follow the
// host's speed as the calibration measures it (see host.go). A workload
// whose times grow by s^k when the calibration's grow by s has sensitivity
// k; its times are divided by slowdown^k.
type workload struct {
	run             func(*bench) error
	hostSensitivity float64
}

// workloads maps each workload name to its workload; workloadNames is the
// order -workload all runs them in. Each sensitivity is the quarter that
// left the least spread between ten runs on the reference host: table1 and
// compile compute in user space as the calibration does, explore spends
// much of its time zeroing its runtimes' arenas, and serve in the network
// stack.
var (
	workloadNames = []string{"table1", "explore", "compile", "serve"}
	workloads     = map[string]workload{
		"table1":  {runTable1, 1},
		"explore": {runExplore, 0.75},
		"compile": {runCompile, 0.75},
		"serve":   {runServe, 0.25},
	}
)

// config selects one measured run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// The workload's set-up is timed in two bursts, one before the window
	// and one after it, each of at least setups set-ups and setupBudget;
	// setup_s is the median of both.
	setups      int
	setupBudget time.Duration
	exp         *expected
}

// procs is the GOMAXPROCS every measurement runs at. On a host of a few
// shared virtual CPUs, handing goroutines between CPUs makes a run wait for
// the host to schedule an idle one, and that wait, not the program, sets
// the time. With one P the models' threads, the explore workers and the
// serve clients still interleave, so every lock, queue and hand-off path
// runs; only parallel speed-up goes unmeasured.
const procs = 1

// bench is the state of one run: its configuration, what the workload
// recorded, and the tracer when traced.
type bench struct {
	config
	tr     *tracer
	rec    *recorder
	open   *recorder // serve's open-loop requests; nil elsewhere
	layers *means    // per-layer samples, traced runs only
	// setUpFn is the workload's set-up; setup is the time of each call, in
	// seconds.
	setUpFn func() error
	setup   []timed
	cal     *calibration
	use     usage // the measured window
	// rates is the throughput of each round of a concurrent loop's window,
	// in operations per second; a round is one rotation of the workload's
	// operation mix. ops_per_s is their median, so a stall of the host moves
	// a few rounds, not the result. A single caller leaves it empty.
	rates []timed
	// layerValues are per-layer values a workload computes whole, such as
	// quantiles read from the server, rather than as means of samples.
	layerValues map[string]float64
	derived     map[string]float64
	samples     map[string]float64
}

// setUp times a burst of set-ups with fn before the window and keeps fn for
// the burst after it, setUpAgain. fn must leave the state of its last call
// ready for the window. A shared host slows a process for seconds at a time,
// at random; with half the set-ups timed half a minute after the others,
// such a spell slows too few of them to move their median.
func (b *bench) setUp(fn func() error) error {
	b.setUpFn = fn
	return b.setUpAgain()
}

// setUpAgain times a burst of set-ups: at least b.setups and until
// b.setupBudget has passed, each after a collection, so every one starts
// from the same heap. The host is calibrated between set-ups. A workload
// returns it once its window has closed.
func (b *bench) setUpAgain() error {
	begin := time.Now()
	for n := 0; n < b.setups || time.Since(begin) < b.setupBudget; n++ {
		runtime.GC()
		start := time.Now()
		if err := b.setUpFn(); err != nil {
			return fmt.Errorf("%s set-up: %w", b.workload, err)
		}
		d := time.Since(start)
		b.setup = append(b.setup, timed{start.Add(d / 2), d.Seconds()})
		b.cal.calibrate()
	}
	return nil
}

// rotate runs op, one operation after another, until window has passed and
// the current rotation of rotation operations is complete, so every program
// of the mix is measured equally often. The host is calibrated between
// operations, outside their times.
func (b *bench) rotate(window time.Duration, rotation int, op func(lane int)) usage {
	m, calAlloc := b.startMeter()
	deadline := time.Now().Add(window)
	for n := 0; time.Now().Before(deadline) || n%rotation != 0; n++ {
		op(0)
		b.cal.calibrate()
	}
	return b.stopMeter(m, calAlloc)
}

// loop runs op on lanes goroutines, each starting its next operation as
// soon as the previous one ends, until window has passed. Operations in
// flight when it closes finish and count. Every rotation operations that
// end make one round. The host is calibrated as operations end, outside the
// rounds.
func (b *bench) loop(lanes int, window time.Duration, rotation int, op func(lane int)) usage {
	m, calAlloc := b.startMeter()
	deadline := time.Now().Add(window)
	var (
		mu     sync.Mutex
		ended  int
		round  = m.start
		paused time.Duration
		wg     sync.WaitGroup
	)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(lane)
				mu.Lock()
				if ended++; ended%rotation == 0 {
					b.addRound(rotation, round, paused)
					round, paused = time.Now(), 0
				}
				// On one P the calibration runs to its end before another
				// goroutine runs, so it times the host alone.
				paused += b.cal.calibrate()
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	if len(b.rates) == 0 { // a window shorter than one round
		b.addRound(ended, round, paused)
	}
	return b.stopMeter(m, calAlloc)
}

// addRound records the rate of a round of n operations that began at begin
// and ends now, paused of it spent calibrating.
func (b *bench) addRound(n int, begin time.Time, paused time.Duration) {
	d := time.Since(begin)
	b.rates = append(b.rates, timed{begin.Add(d / 2), float64(n) / (d - paused).Seconds()})
}

// startMeter and stopMeter measure a window; the calibrations' allocations
// in it are not the workload's and are left out.
func (b *bench) startMeter() (*meter, uint64) { return startMeter(), b.cal.alloc }

func (b *bench) stopMeter(m *meter, calAlloc uint64) usage {
	u := m.stop()
	u.allocBytes -= b.cal.alloc - calAlloc
	return u
}

// allocMark reads the heap-allocation counter in traced runs, where it
// attributes allocation to one layer call; untraced runs skip the read.
func (b *bench) allocMark() uint64 {
	if b.tr == nil {
		return 0
	}
	return allocBytes()
}

// outcome is everything a finished run reports.
type outcome struct {
	info      info
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	spans     []span
}

// info is the line printed before the result: where the numbers came from
// and the values no bound applies to.
type info struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Samples    map[string]float64 `json:"samples"`
	Derived    map[string]float64 `json:"derived"`
	Failures   []string           `json:"failures,omitempty"`
}

type provenance struct {
	Revision   string  `json:"vcs.revision"`
	Modified   bool    `json:"vcs.modified"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Setups     int     `json:"setups"`
}

func buildProvenance(c config) provenance {
	p := provenance{
		Revision:   "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       c.seed,
		WindowS:    c.window.Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// measure runs one workload once.
func measure(c config) (*outcome, error) {
	w, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", c.workload, workloadNames)
	}
	b := &bench{
		config:      c,
		rec:         newRecorder(),
		cal:         newCalibration(w.hostSensitivity),
		layerValues: make(map[string]float64),
		derived:     make(map[string]float64),
		samples:     make(map[string]float64),
	}
	if c.trace {
		b.tr = newTracer()
		b.layers = newMeans()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if err := w.run(b); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

func (b *bench) finish() *outcome {
	ops := float64(b.rec.attempted)
	// Times on the result line read as on the reference host: every
	// operation, set-up and round is divided by the host factor at its
	// midpoint (see host.go). The info line keeps the raw values.
	atHost := b.rec.atHost(b.cal.factorAt)
	// A single caller's throughput is its mix at each program's median time;
	// concurrent callers' is measured, as the median of the rounds' rates.
	opsPerS, opsPerSRaw := atHost.medianRate(), b.rec.medianRate()
	if len(b.rates) > 0 {
		opsPerS, opsPerSRaw = b.medianAtHost(b.rates, true)
	}
	setupS, setupRaw := b.medianAtHost(b.setup, false)
	opMS, opMSRaw := atHost.balancedMedian(), b.rec.balancedMedian()
	p99, p99used := b.rec.balancedTail(99)
	o := &outcome{
		attempted: b.rec.attempted,
		failed:    b.rec.failed,
		failures:  b.rec.failures,
		e2e: map[string]float64{
			"setup_s":         setupS,
			"ops_per_s":       opsPerS,
			"op_ms_p50":       opMS,
			"alloc_mb_per_op": float64(b.use.allocBytes) / mb / ops,
		},
		layer: make(map[string]float64),
	}
	if b.open != nil {
		o.attempted += b.open.attempted
		o.failed += b.open.failed
		o.failures = append(o.failures, b.open.failures...)
	}
	for _, m := range perLayer {
		o.layer[m.name] = b.layers.mean(m.name)
	}
	for k, v := range b.layerValues {
		o.layer[k] = v
	}
	o.layer["gc.cycles_per_op"] = float64(b.use.gcCycles) / ops
	o.layer["gc.pause_ms_per_op"] = ms(b.use.gcPause) / ops
	// Per-layer times are corrected by the run's median host factor: some,
	// such as the server's phase quantiles, have no time of their own.
	host := b.cal.factor()
	for _, m := range perLayer {
		if m.unit == "ms" {
			o.layer[m.name] /= host
		}
	}
	b.samples["ops"] = ops
	if len(b.rates) > 0 {
		b.samples["rounds"] = float64(len(b.rates))
	}
	b.samples["calibrations"] = float64(len(b.cal.samples))
	b.samples["op_ms_p99_percentile"] = p99used
	b.samples["window_wall_s"] = b.use.wall.Seconds()
	// The info line's times are raw, as measured, beside the run's median
	// slowdown and host factor.
	b.derived["slowdown"] = b.cal.slowdown()
	b.derived["host_factor"] = host
	b.derived["setup_s"] = setupRaw
	b.derived["ops_per_s"] = opsPerSRaw
	b.derived["op_ms_p50"] = opMSRaw
	// The tail is a diagnostic: a window holds too few slow operations for
	// it to repeat within a bound.
	b.derived["op_ms_p99"] = p99
	prov := buildProvenance(b.config)
	prov.Setups = len(b.setup)
	o.info = info{
		Workload:   b.workload,
		Trace:      b.trace,
		Provenance: prov,
		Samples:    b.samples,
		Derived:    b.derived,
		Failures:   o.failures,
	}
	if b.tr != nil {
		o.spans = b.tr.snapshot()
	}
	return o
}

// medianAtHost returns the median of xs with each value divided by the
// host factor at its time, multiplied for rates, and the raw median.
func (b *bench) medianAtHost(xs []timed, rate bool) (atHost, raw float64) {
	vs, raws := make([]float64, len(xs)), make([]float64, len(xs))
	for i, x := range xs {
		f := b.cal.factorAt(x.at)
		if rate {
			f = 1 / f
		}
		vs[i], raws[i] = x.v/f, x.v
	}
	return median(vs), median(raws)
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one.
func (o *outcome) result() result {
	defs, vals := endToEnd, o.e2e
	if o.info.Trace {
		defs, vals = perLayer, o.layer
	}
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return r
}
