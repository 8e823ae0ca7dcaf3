package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// median returns the middle of xs, the mean of the two middle values for an
// even count, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank percentile p of xs, lowered to the highest
// percentile that still has tailBeyond samples above it, and the
// percentile it used.
func tail(xs []float64, p float64) (value, used float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	k := int(math.Ceil(p/100*float64(n))) - 1
	k = min(k, n-1-tailBeyond)
	k = max(k, 0)
	return s[k], 100 * float64(k+1) / float64(n)
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (its default, "exclusive").
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects per-operation outcomes. Latencies are kept per kind (a
// program, or a program and build) so the median can be balanced over the
// mix; failed operations count as attempted but have no latency.
type recorder struct {
	mu     sync.Mutex
	byKind map[string][]float64
	// mids are the midpoints of the operations of byKind, in the same order.
	mids      map[string][]time.Time
	kinds     []string // in first-seen order
	attempted int
	failed    int
	failures  []string
}

const keptFailures = 5

func newRecorder() *recorder {
	return &recorder{byKind: make(map[string][]float64), mids: make(map[string][]time.Time)}
}

// record counts one operation, which ended now after d.
func (r *recorder) record(kind string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < keptFailures {
			r.failures = append(r.failures, err.Error())
		}
		return
	}
	if _, ok := r.byKind[kind]; !ok {
		r.kinds = append(r.kinds, kind)
	}
	r.byKind[kind] = append(r.byKind[kind], ms(d))
	r.mids[kind] = append(r.mids[kind], time.Now().Add(-d/2))
}

// atHost returns a copy of r's latencies, each divided by f at the
// operation's midpoint: with f the host factor, the latencies as they would
// read on the reference host.
func (r *recorder) atHost(f func(time.Time) float64) *recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := newRecorder()
	c.kinds, c.attempted, c.failed = r.kinds, r.attempted, r.failed
	for k, xs := range r.byKind {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x / f(r.mids[k][i])
		}
		c.byKind[k] = ys
	}
	return c
}

// all returns every successful latency in ms.
func (r *recorder) all() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, k := range r.kinds {
		out = append(out, r.byKind[k]...)
	}
	return out
}

// balancedTail is the tail percentile p of a typical operation: every
// latency is divided by its kind's median, the tail is taken over all those
// ratios, and the result is scaled by balancedMedian. Taken over raw
// latencies, the tail of a mix falls on whichever program is slowest and
// jumps between programs as their sample counts shift.
func (r *recorder) balancedTail(p float64) (value, used float64) {
	r.mu.Lock()
	var ratios, meds []float64
	for _, k := range r.kinds {
		m := median(r.byKind[k])
		meds = append(meds, m)
		for _, x := range r.byKind[k] {
			ratios = append(ratios, x/m)
		}
	}
	r.mu.Unlock()
	t, used := tail(ratios, p)
	return t * geomean(meds), used
}

// kindMedian returns the median latency of one kind.
func (r *recorder) kindMedian(kind string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.byKind[kind])
}

// balancedMedian is the geometric mean over kinds of each kind's median
// latency: every program weighs the same however long it runs, and a window
// that ends part-way through a rotation does not shift it.
func (r *recorder) balancedMedian() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var meds []float64
	for _, k := range r.kinds {
		meds = append(meds, median(r.byKind[k]))
	}
	return geomean(meds)
}

// medianRate is the throughput, in operations per second, of one caller
// running the mix at each kind's median latency: the number of kinds over
// the sum of their medians. A stall of the host lengthens a few operations,
// which the medians leave out, where a measured rate would count them.
func (r *recorder) medianRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := 0.0
	for _, k := range r.kinds {
		sum += median(r.byKind[k])
	}
	if sum == 0 {
		return 0
	}
	return 1000 * float64(len(r.kinds)) / sum
}

// timed is a value measured over an interval, stamped with the interval's
// midpoint.
type timed struct {
	at time.Time
	v  float64
}

// usage is what the process spent over a measured interval.
type usage struct {
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// meter measures usage from its creation to stop.
type meter struct {
	start   time.Time
	alloc   uint64
	cycles  uint64
	pauseNs uint64
}

func readCounters() (alloc, cycles uint64) {
	s := slices.Clone(usageSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	a, _ := readCounters()
	return a
}

func pauseTotal() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

func startMeter() *meter {
	m := &meter{pauseNs: pauseTotal()}
	m.alloc, m.cycles = readCounters()
	m.start = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.start)
	alloc, cycles := readCounters()
	return usage{
		wall:       wall,
		allocBytes: alloc - m.alloc,
		gcCycles:   cycles - m.cycles,
		gcPause:    time.Duration(pauseTotal() - m.pauseNs),
	}
}

// means accumulates per-layer values and reports their mean per sample.
type means struct {
	mu  sync.Mutex
	sum map[string]float64
	n   map[string]int
}

func newMeans() *means { return &means{sum: make(map[string]float64), n: make(map[string]int)} }

// add records one sample; a nil *means (an untraced run) drops it.
func (m *means) add(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sum[name] += v
	m.n[name]++
	m.mu.Unlock()
}

func (m *means) mean(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n[name] == 0 {
		return 0
	}
	return m.sum[name] / float64(m.n[name])
}
