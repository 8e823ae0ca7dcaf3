package obsrv

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestDisabledObserverIsNil(t *testing.T) {
	o := New(Config{})
	if o != nil {
		t.Fatalf("disabled config should yield nil Observer")
	}
	// Every downstream call must be a no-op, not a panic.
	r := o.Begin("run")
	if r != nil {
		t.Fatalf("nil observer returned non-nil Req")
	}
	s := r.StartSpan("resolve")
	s.End()
	r.SetField("k", 1)
	r.SetHandle("h")
	o.End(r, Outcome{Status: 200})
	if o.TraceCapacity() != 0 {
		t.Fatalf("nil observer TraceCapacity = %d, want 0", o.TraceCapacity())
	}
	if err := o.WriteMetrics(os.Stderr); err != nil {
		t.Fatalf("nil WriteMetrics: %v", err)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	o := New(Config{Enabled: true})
	r := o.Begin("run")
	if !strings.HasPrefix(r.ID, "r-") {
		t.Fatalf("request id %q lacks r- prefix", r.ID)
	}
	a := r.StartSpan("admission-wait")
	a.End()
	ex := r.StartSpan("execute")
	inner := r.StartSpan("inner")
	inner.End()
	ex.End()
	o.End(r, Outcome{Status: 200})

	if got := len(r.root.Children); got != 2 {
		t.Fatalf("root children = %d, want 2", got)
	}
	if r.root.Children[1].Name != "execute" || len(r.root.Children[1].Children) != 1 {
		t.Fatalf("execute span lost its child: %+v", r.root.Children[1])
	}
	for _, s := range []*Span{r.root, a, ex, inner} {
		if s.DurNS < 0 {
			t.Fatalf("span %q left open (dur %d)", s.Name, s.DurNS)
		}
	}
}

func TestCloseAllEndsAbandonedSpans(t *testing.T) {
	o := New(Config{Enabled: true})
	r := o.Begin("run")
	r.StartSpan("resolve") // never ended: error path bails mid-phase
	o.End(r, Outcome{Status: 400})
	if r.root.Children[0].DurNS < 0 {
		t.Fatalf("End did not close abandoned span")
	}
}

func TestSpanJSONLExport(t *testing.T) {
	o := New(Config{Enabled: true})
	r := o.Begin("run")
	r.StartSpan("execute").End()
	o.End(r, Outcome{Status: 200})
	var buf bytes.Buffer
	if err := r.WriteSpanJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line not JSON: %q: %v", ln, err)
		}
		if rec["req"] != r.ID {
			t.Fatalf("line missing request id: %q", ln)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	o := New(Config{Enabled: true})
	for i := 0; i < 3; i++ {
		r := o.Begin("run")
		r.StartSpan("execute").End()
		o.End(r, Outcome{Status: 200})
	}
	r := o.Begin("run")
	o.End(r, Outcome{Status: 503})
	// An off-list status code must fall back to a dynamically registered
	// series rather than vanish.
	r = o.Begin("run")
	o.End(r, Outcome{Status: 418})

	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	for _, want := range []string{
		`sharc_requests_total{code="200",endpoint="run"} 3`,
		`sharc_requests_total{code="503",endpoint="run"} 1`,
		`sharc_requests_total{code="418",endpoint="run"} 1`,
		`sharc_admission_refused_total 1`,
		`sharc_phase_duration_seconds_count{phase="execute"} 3`,
		"sharc_build_info",
		"sharc_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The Go runtime gauges are live readings, not placeholders.
	for _, name := range GoRuntimeMetrics {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("exposition missing Go runtime gauge %s", name)
		}
	}
	if v := sampleValue(t, out, "go_goroutines"); v < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", v)
	}
	runtime.GC()
	buf.Reset()
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if v := sampleValue(t, buf.String(), "go_gc_cycles_total"); v < 1 {
		t.Errorf("go_gc_cycles_total = %v after runtime.GC, want >= 1", v)
	}
}

// sampleValue returns the value of the unlabeled sample name in a
// Prometheus text exposition.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s", name)
	return 0
}

func TestValidatePrometheusRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		[]byte("not a metric line at all!\n"),
		[]byte("# neither HELP nor TYPE\n"),
		[]byte(`metric{unquoted=value} 1` + "\n"),
		[]byte("metric 1\nmetric notanumber\n"),
		[]byte(""),
	}
	for _, b := range bad {
		if _, err := ValidatePrometheus(b); err == nil {
			t.Errorf("ValidatePrometheus accepted %q", b)
		}
	}
	good := []byte("# HELP m help\n# TYPE m counter\nm{a=\"b,c\"} 1\nm2 +Inf\n")
	if n, err := ValidatePrometheus(good); err != nil || n != 2 {
		t.Errorf("ValidatePrometheus(good) = %d, %v", n, err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	h.Observe(5 * time.Microsecond)  // below first bound -> bucket 0
	h.Observe(15 * time.Microsecond) // (10µs, 20µs] -> bucket 1
	h.Observe(100 * time.Second)     // beyond all bounds -> +Inf slot
	if got := h.buckets[0].Load(); got != 1 {
		t.Errorf("bucket[0] = %d, want 1", got)
	}
	if got := h.buckets[1].Load(); got != 1 {
		t.Errorf("bucket[1] = %d, want 1", got)
	}
	if got := h.buckets[len(histBounds)].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
}

func TestLoggerLevelsAndFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Log(LevelDebug, "dropped")
	l.Log(LevelInfo, "kept", Field{"a", 1}, Field{"b", "x"})
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("debug record leaked at info level: %q", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("record not JSON: %q: %v", out, err)
	}
	if rec["event"] != "kept" || rec["a"] != float64(1) || rec["b"] != "x" {
		t.Fatalf("record fields wrong: %v", rec)
	}
	ia := strings.Index(out, `"a"`)
	ib := strings.Index(out, `"b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("field order not preserved: %q", out)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"off": LevelOff, "error": LevelError, "info": LevelInfo, "debug": LevelDebug,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("chatty"); err == nil {
		t.Errorf("ParseLevel accepted garbage")
	}
}

func captureObserver(t *testing.T, cfg Config) (*Observer, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.Enabled = true
	cfg.CaptureDir = dir
	return New(cfg), dir
}

func TestSlowCaptureFixedThreshold(t *testing.T) {
	o, dir := captureObserver(t, Config{SlowThreshold: time.Nanosecond})
	tr := telemetry.NewTracer(16, nil)
	tr.Append(telemetry.KindChkRead, 0, -1, 42, 0)
	r := o.Begin("run")
	r.SetHandle("sha-test")
	for _, ph := range PhaseNames {
		r.StartSpan(ph).End()
	}
	time.Sleep(time.Millisecond)
	o.End(r, Outcome{Status: 200, Tracer: tr, Decisions: 7})

	path := filepath.Join(dir, r.ID+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("capture file missing: %v", err)
	}
	var cf captureFile
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatalf("capture not JSON: %v", err)
	}
	if len(cf.Phases) != len(PhaseNames) {
		t.Fatalf("capture has %d phases, want %d", len(cf.Phases), len(PhaseNames))
	}
	for i, ph := range PhaseNames {
		if cf.Phases[i].Name != ph {
			t.Errorf("phase %d = %q, want %q", i, cf.Phases[i].Name, ph)
		}
	}
	if cf.Decisions != 7 || cf.Handle != "sha-test" {
		t.Errorf("capture metadata wrong: %+v", cf)
	}
	if cf.Trace == nil || len(cf.Trace.Events) != 1 {
		t.Fatalf("capture lost the tracer ring: %+v", cf.Trace)
	}
	// The embedded events must be the PR-3 JSONL schema verbatim.
	var ev map[string]any
	if err := json.Unmarshal(cf.Trace.Events[0], &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "chkread" || ev["addr"] != float64(42) {
		t.Errorf("embedded event not in tracer schema: %v", ev)
	}

	cb, err := os.ReadFile(filepath.Join(dir, r.ID+".chrome.json"))
	if err != nil {
		t.Fatalf("chrome capture missing: %v", err)
	}
	var chrome []map[string]any
	if err := json.Unmarshal(cb, &chrome); err != nil {
		t.Fatalf("chrome capture not JSON: %v", err)
	}
	slices, instants := 0, 0
	for _, e := range chrome {
		switch e["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if slices != len(PhaseNames)+1 || instants != 1 {
		t.Errorf("chrome capture has %d slices / %d instants, want %d / 1",
			slices, instants, len(PhaseNames)+1)
	}
}

func TestFastRequestNotCaptured(t *testing.T) {
	o, dir := captureObserver(t, Config{SlowThreshold: time.Hour})
	r := o.Begin("run")
	o.End(r, Outcome{Status: 200})
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("fast request produced %d capture files", len(ents))
	}
}

func TestCaptureDirBounded(t *testing.T) {
	o, dir := captureObserver(t, Config{SlowThreshold: time.Nanosecond, CaptureMax: 2})
	for i := 0; i < 5; i++ {
		r := o.Begin("run")
		time.Sleep(time.Millisecond)
		o.End(r, Outcome{Status: 200})
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 4 { // 2 captures x (json + chrome.json)
		t.Fatalf("capture dir holds %d files, want <= 4", len(ents))
	}
}

func TestQuantileThresholdWarmsUp(t *testing.T) {
	o, dir := captureObserver(t, Config{
		SlowQuantile: 0.9, SlowWindow: 8, SlowMin: time.Nanosecond,
	})
	// Cold window: nothing may fire regardless of latency.
	r := o.Begin("run")
	time.Sleep(2 * time.Millisecond)
	o.End(r, Outcome{Status: 200})
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("capture fired on a cold window")
	}
	// Warm the window with fast requests, then one outlier must fire.
	for i := 0; i < 8; i++ {
		o.End(o.Begin("run"), Outcome{Status: 200})
	}
	r = o.Begin("run")
	time.Sleep(5 * time.Millisecond)
	o.End(r, Outcome{Status: 200})
	if ents, _ := os.ReadDir(dir); len(ents) == 0 {
		t.Fatalf("outlier not captured after warm-up")
	}
}

func TestAccessLogRecords(t *testing.T) {
	var buf bytes.Buffer
	o := New(Config{Enabled: true, AccessLog: &buf, LogLevel: LevelInfo})
	r := o.Begin("run")
	r.SetHandle("h-1")
	r.SetField("cache", "hit")
	o.End(r, Outcome{Status: 200})
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("access log line not JSON: %q: %v", buf.String(), err)
	}
	for k, want := range map[string]any{
		"event": "request", "req": r.ID, "endpoint": "run",
		"status": float64(200), "handle": "h-1", "cache": "hit",
	} {
		if rec[k] != want {
			t.Errorf("access log %s = %v, want %v", k, rec[k], want)
		}
	}
	if _, ok := rec["latency_ns"]; !ok {
		t.Errorf("access log missing latency_ns: %v", rec)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	o := New(Config{Enabled: true})
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		r := o.Begin("run")
		if seen[r.ID] {
			t.Fatalf("duplicate request id %q", r.ID)
		}
		seen[r.ID] = true
		o.End(r, Outcome{Status: 200})
	}
}

func TestContextRoundTrip(t *testing.T) {
	o := New(Config{Enabled: true})
	r := o.Begin("run")
	ctx := NewContext(t.Context(), r)
	if got := FromContext(ctx); got != r {
		t.Fatalf("FromContext = %v, want %v", got, r)
	}
	if got := FromContext(t.Context()); got != nil {
		t.Fatalf("FromContext on bare ctx = %v, want nil", got)
	}
	if ctx := NewContext(t.Context(), nil); FromContext(ctx) != nil {
		t.Fatalf("nil Req should not be stored")
	}
}

// BenchmarkDisabledPath pins the observability-off cost: a nil Observer
// walked through the full per-request call sequence must stay in the
// single-nanosecond range, mirroring PR 3's disabled-telemetry bar.
func BenchmarkDisabledPath(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := o.Begin("run")
		s := r.StartSpan("execute")
		s.End()
		o.End(r, Outcome{Status: 200})
	}
}
