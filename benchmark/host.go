package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// The host's speed drifts. On the shared virtual machines this benchmark
// was written on, the host switched between a fast and a slow state every
// few seconds, and in the slow state every workload's operations took up to
// twice as long. The slowdown hit code with a large footprint of
// instructions and allocation, such as SharC-Go's front end and runtime,
// far harder than a tight loop over a cached table. So the benchmark
// measures the host's speed with a fixed piece of work of the former kind,
// the calibration, between operations and between set-ups, and reports
// every time as it would read on the reference host: a time measured while
// the calibrations nearest to it ran slower by a factor s is divided by
// s^k, k the workload's host sensitivity. The info line keeps the raw
// values beside the run's median s and s^k.
//
// The calibration runs only the Go standard library on inputs fixed here,
// so no change to the repository can move it.

// calibrationRefMS is the calibration's median time on the reference host,
// the 2-vCPU Intel Xeon virtual machine of the README's baseline.
const calibrationRefMS = 2.0

// calibrationEvery is the least time between two calibrations; one takes
// about 2 ms, so they cost about 1% of the window.
const calibrationEvery = 250 * time.Millisecond

// calibrationNearest is how many calibrations, the nearest in time, give
// the host's speed at a moment: their median, so one calibration that a
// collection or a stall lengthened does not count.
const calibrationNearest = 5

// calibration is the fixed work, its inputs and the times it took.
type calibration struct {
	src     string // Go source to parse
	records []calRecord
	text    string // text to scan
	re      *regexp.Regexp
	last    time.Time
	sink    int
	// sensitivity is the workload's host sensitivity.
	sensitivity float64
	// samples are the calibrations in the order they ran; alloc is the heap
	// bytes they allocated, which are not the workload's.
	samples []calSample
	alloc   uint64
}

// calSample is one calibration: when it ended and how long it took, in ms.
type calSample struct {
	at time.Time
	ms float64
}

type calRecord struct {
	Name  string            `json:"name"`
	Vals  []int             `json:"vals"`
	Attrs map[string]string `json:"attrs"`
}

func newCalibration(sensitivity float64) *calibration {
	var src strings.Builder
	src.WriteString("package cal\n\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, `type T%[1]d struct {
	a, b int
	s    string
	m    map[string]int
}

func (t *T%[1]d) F(x int, y []string) (int, error) {
	for i, s := range y {
		if len(s) > x+i {
			t.m[s] += i * %[1]d
		} else if x%%2 == 0 {
			t.a++
		} else {
			return i, nil
		}
	}
	switch t.b {
	case 1:
		t.s = "a"
	case 2:
		t.s = y[0] + t.s
	default:
		t.b = x * %[1]d
	}
	return t.a + t.b, nil
}

`, i)
	}
	c := &calibration{
		src:         src.String(),
		text:        strings.Repeat("the quick brown fox 12345 jumps over the lazy dog on 2024-01-02, mail fox@example.com ", 120),
		re:          regexp.MustCompile(`[a-z]+@[a-z]+\.[a-z]+|\d{4}-\d{2}-\d{2}`),
		sensitivity: sensitivity,
	}
	for i := 0; i < 100; i++ {
		r := calRecord{Name: fmt.Sprintf("record %d", i), Attrs: make(map[string]string)}
		for j := 0; j < 8; j++ {
			r.Vals = append(r.Vals, i*j)
			r.Attrs[fmt.Sprintf("k%d", j)] = fmt.Sprintf("v%d", i+j)
		}
		c.records = append(c.records, r)
	}
	return c
}

// run times one pass of the work: parse the source and walk its syntax
// tree, encode the records as JSON and decode them again, and find every
// match of the pattern in the text.
func (c *calibration) run() float64 {
	start := time.Now()
	f, err := parser.ParseFile(token.NewFileSet(), "cal.go", c.src, 0)
	if err != nil {
		panic(fmt.Sprintf("calibration source: %v", err)) // the input is fixed
	}
	ast.Inspect(f, func(ast.Node) bool { c.sink++; return true })
	data, err := json.Marshal(c.records)
	var back []calRecord
	if err == nil {
		err = json.Unmarshal(data, &back)
	}
	if err != nil {
		panic(fmt.Sprintf("calibration records: %v", err))
	}
	c.sink += len(back) + len(c.re.FindAllStringIndex(c.text, -1))
	c.last = time.Now()
	return ms(c.last.Sub(start))
}

// calibrate runs the calibration between operations or set-ups, at most
// once per calibrationEvery, and returns the time it took, which the caller
// leaves out of what it measures.
func (c *calibration) calibrate() time.Duration {
	if time.Since(c.last) < calibrationEvery {
		return 0
	}
	a0, start := allocBytes(), time.Now()
	v := c.run()
	c.samples = append(c.samples, calSample{c.last, v})
	c.alloc += allocBytes() - a0
	return time.Since(start)
}

// slowdown is how many times slower than on the reference host the
// calibration ran, by the median of all its times; 1 without any.
func (c *calibration) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	ms := make([]float64, len(c.samples))
	for i, s := range c.samples {
		ms[i] = s.ms
	}
	return median(ms) / calibrationRefMS
}

// factor is the run's median slowdown raised to the workload's host
// sensitivity.
func (c *calibration) factor() float64 {
	return math.Pow(c.slowdown(), c.sensitivity)
}

// factorAt is the host factor at moment t: the median time of the
// calibrationNearest calibrations nearest to t, over calibrationRefMS,
// raised to the workload's host sensitivity; 1 without calibrations.
func (c *calibration) factorAt(t time.Time) float64 {
	s := c.samples
	if len(s) == 0 {
		return 1
	}
	// Widen [lo, hi) from the insertion point of t, one nearest sample at
	// a time; samples are in time order.
	hi := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
	lo := hi
	near := make([]float64, 0, calibrationNearest)
	for len(near) < calibrationNearest && (lo > 0 || hi < len(s)) {
		if hi == len(s) || (lo > 0 && t.Sub(s[lo-1].at) < s[hi].at.Sub(t)) {
			lo--
			near = append(near, s[lo].ms)
		} else {
			near = append(near, s[hi].ms)
			hi++
		}
	}
	return math.Pow(median(near)/calibrationRefMS, c.sensitivity)
}
