package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/sched"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func testConfig(t *testing.T, workload string, window time.Duration, trace bool) config {
	t.Helper()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: 7, window: window, trace: trace, setups: 1, exp: exp}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload traced for a second and checks it reports
// every metric BENCHMARK.json names, with its unit, and a trace whose spans
// nest.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	sameDefs(t, "end_to_end", bj.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", bj.PerLayer, perLayer)

	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			o, err := measure(testConfig(t, w, time.Second, true))
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("%d attempted, %d failed: %v", o.attempted, o.failed, o.failures)
			}
			for _, d := range endToEnd {
				if v := o.e2e[d.name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
				}
			}
			traced := o.result()
			o.info.Trace = false
			plain := o.result()
			for _, c := range []struct {
				res  result
				defs []metricDef
			}{{traced, perLayer}, {plain, endToEnd}} {
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("result has %d metrics, want %d", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if m, ok := c.res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			}
			checkTrace(t, o.spans)
		})
	}
}

func sameDefs(t *testing.T, list string, want []boundDef, got []metricDef) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", list, len(want), len(got))
	}
	for i, d := range got {
		if !metricName.MatchString(d.name) {
			t.Errorf("%s: bad metric name %q", list, d.name)
		}
		if want[i].Name != d.name || want[i].Unit != d.unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", list, i, want[i].Name, want[i].Unit, d.name, d.unit)
		}
	}
}

// checkTrace parses the Chrome export and checks that every child span
// lies within its parent.
func checkTrace(t *testing.T, spans []span) {
	t.Helper()
	data, err := chromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int `json:"id"`
				Parent int `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
		SelfTime []selfRow `json:"selfTime"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 || len(f.SelfTime) == 0 {
		t.Fatalf("trace has %d events and %d self-time rows", len(f.TraceEvents), len(f.SelfTime))
	}
	type iv struct{ a, b float64 }
	byID := make(map[int]iv)
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		byID[e.Args.ID] = iv{e.TS, e.TS + e.Dur}
	}
	const slack = 1e-3 // µs of float rounding
	for _, e := range f.TraceEvents {
		if e.Args.Parent < 0 {
			continue
		}
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Fatalf("%s: parent %d missing", e.Name, e.Args.Parent)
		}
		if e.TS < p.a-slack || e.TS+e.Dur > p.b+slack {
			t.Fatalf("%s [%f, %f] outlives its parent [%f, %f]", e.Name, e.TS, e.TS+e.Dur, p.a, p.b)
		}
	}
}

// TestWrongExpectationFails pins a wrong vet verdict and checks the
// operations on that program count as failed.
func TestWrongExpectationFails(t *testing.T) {
	c := testConfig(t, "compile", 300*time.Millisecond, false)
	a := c.exp.Programs["testdata/bank"]
	a.Vet = "must"
	c.exp.Programs["testdata/bank"] = a
	o, err := measure(c)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.result().Correct {
		t.Fatalf("%d of %d operations failed, want some", o.failed, o.attempted)
	}
}

// inputDigest hashes the first n operations a workload generates for a
// seed: equal digests mean equal inputs.
func inputDigest(workload string, seed int64, n int) string {
	g := newGenerator(workload, seed, len(programSets[workload]))
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%+v\n", g.next())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestInputDigest(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := inputDigest(w, 1, 200), inputDigest(w, 1, 200), inputDigest(w, 2, 200)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

// TestPinnedExits runs every snapshot program's uninstrumented build and
// checks the pinned exit value: free-running for programs without races,
// under a seeded schedule for racy ones, whose free runs sleep.
func TestPinnedExits(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for id := range exp.Programs {
		ids = append(ids, id)
	}
	progs, err := loadPrograms(exp, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		prog, err := buildProgram(p, compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := interp.DefaultConfig()
		cfg.RC = interp.RCOff
		if len(p.want.RaceSites) > 0 {
			cfg.Sched = sched.New(sched.NewRandom(1), sched.Options{})
		}
		exit, err := interp.New(prog, cfg).Run()
		if err != nil || exit != p.want.Exit {
			t.Errorf("%s orig: exit %d, %v; pinned %d", p.id, exit, err, p.want.Exit)
		}
	}
}

// TestPfscanCount checks pfscan's pinned exits against an independent
// count: the model plants the needle in every even-numbered file.
func TestPfscanCount(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	files := regexp.MustCompile(`char \*files\[(\d+)\]`)
	for _, id := range []string{"table1/pfscan.full", "table1/pfscan.quick"} {
		src, err := inputFS.ReadFile("programs/" + id + ".shc")
		if err != nil {
			t.Fatal(err)
		}
		m := files.FindSubmatch(src)
		if m == nil {
			t.Fatalf("%s: no file table", id)
		}
		n, _ := strconv.Atoi(string(m[1]))
		if want := int64((n + 1) / 2); exp.Programs[id].Exit != want {
			t.Errorf("%s: pinned exit %d, %d files hold the needle", id, exp.Programs[id].Exit, want)
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	var many []float64
	for i := 1; i <= 100; i++ {
		many = append(many, float64(i))
	}
	if v, used := tail(many, 99); v != 90 || used != 90 {
		t.Errorf("tail of 100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, used)
	}
	if v := median([]float64{4, 1, 3, 2}); v != 2.5 {
		t.Errorf("median = %v, want 2.5", v)
	}
	cal := &calibration{sensitivity: 0.5}
	if s, f := cal.slowdown(), cal.factor(); s != 1 || f != 1 {
		t.Errorf("without samples: slowdown %v, factor %v, want 1 and 1", s, f)
	}
	// Ten calibrations a second apart: four times as slow as the reference
	// host for five seconds, then as fast, with one stalled calibration.
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		v := 4 * calibrationRefMS
		if i >= 5 {
			v = calibrationRefMS
		}
		if i == 8 {
			v = 100 * calibrationRefMS
		}
		cal.samples = append(cal.samples, calSample{t0.Add(time.Duration(i) * time.Second), v})
	}
	if s, f := cal.slowdown(), cal.factor(); s != 4 || f != 2 {
		t.Errorf("slowdown %v, factor %v, want 4 and 2", s, f)
	}
	for _, c := range []struct {
		after time.Duration
		want  float64
	}{
		{-time.Second, 2}, {0, 2}, {2 * time.Second, 2}, {4600 * time.Millisecond, 1}, {9 * time.Second, 1}, {20 * time.Second, 1},
	} {
		if f := cal.factorAt(t0.Add(c.after)); f != c.want {
			t.Errorf("factor %v after the first calibration = %v, want %v", c.after, f, c.want)
		}
	}
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 10 * time.Millisecond},
		{name: "a", parent: 0, start: 1 * time.Millisecond, end: 4 * time.Millisecond},
		{name: "b", parent: 0, start: 3 * time.Millisecond, end: 6 * time.Millisecond},
	}
	for _, r := range selfTimes(spans) {
		if r.Name == "op" && r.SelfMS != 5 {
			t.Errorf("op self time %v ms, want 5", r.SelfMS)
		}
	}
}
