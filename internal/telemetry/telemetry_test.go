package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreMax(t *testing.T) {
	var a atomic.Int64
	StoreMax(&a, 5)
	StoreMax(&a, 3)
	StoreMax(&a, 9)
	StoreMax(&a, 9)
	if got := a.Load(); got != 9 {
		t.Fatalf("StoreMax sequence left %d, want 9", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			for j := int64(0); j <= v; j++ {
				StoreMax(&a, j*10)
			}
		}(int64(i))
	}
	wg.Wait()
	if got := a.Load(); got != 70 {
		t.Fatalf("concurrent StoreMax left %d, want 70", got)
	}
}

// TestNilSafety: every Collector and Tracer method must be a no-op on a nil
// receiver — that IS the disabled path the interpreter takes per check.
func TestNilSafety(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector claims enabled")
	}
	c.DynamicCheck(1, 0, true, true, true)
	c.LockedCheck(1, 0, true)
	c.ElidedCheck(1, 0)
	c.CacheLookup(1, 0, true)
	c.Scast(1, 0, true)
	if c.Snapshot(GlobalStats{}, Elision{}) != nil {
		t.Fatal("nil collector snapshot must be nil")
	}

	var tr *Tracer
	tr.Append(KindChkRead, 1, 0, 2, 3)
	tr.SetStep(7)
	tr.SetSchedule(7)
	if tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if FormatSummary(nil) != "" {
		t.Fatal("nil snapshot summary must be empty")
	}
	if !strings.Contains(FormatProfile(nil, 5), "disabled") {
		t.Fatal("nil snapshot profile must say disabled")
	}
}

// TestCollectorOutOfRange: the -1 "no site" marker and out-of-range indices
// must be silent no-ops.
func TestCollectorOutOfRange(t *testing.T) {
	c := NewCollector(make([]SiteInfo, 2))
	c.DynamicCheck(0, -1, false, false, false)
	c.DynamicCheck(0, 2, false, false, false)
	c.LockedCheck(0, 99, false)
	c.Scast(0, -1, true)
	if snap := c.Snapshot(GlobalStats{}, Elision{}); len(snap.Sites) != 0 {
		t.Fatalf("out-of-range updates produced %d sites", len(snap.Sites))
	}
}

func TestSnapshotRollups(t *testing.T) {
	c := NewCollector([]SiteInfo{{LValue: "a"}, {LValue: "b"}, {LValue: "c"}, {LValue: "d"}})

	// Site 0: reads by tids 1,2 plus writes by tid 1 — a reader-writer must
	// not be double counted by Threads().
	c.DynamicCheck(1, 0, false, false, false)
	c.DynamicCheck(2, 0, false, false, false)
	c.DynamicCheck(1, 0, true, true, false)
	// Site 1: locked checks, one violated.
	c.LockedCheck(1, 1, false)
	c.LockedCheck(2, 1, true)
	// Site 2: elided executions and a cache hit.
	c.ElidedCheck(1, 2)
	c.ElidedCheck(1, 2)
	c.CacheLookup(1, 2, true)
	// Site 3: untouched — must not appear.

	snap := c.Snapshot(GlobalStats{DynamicChecks: 3}, Elision{TotalDynamic: 4, ElidedDynamic: 1})
	if len(snap.Sites) != 3 {
		t.Fatalf("got %d sites, want 3", len(snap.Sites))
	}
	// Hottest first: site 0 (3 checks), then ties by activity.
	if snap.Sites[0].LValue != "a" {
		t.Fatalf("hottest site is %q, want a", snap.Sites[0].LValue)
	}
	s0 := snap.Sites[0]
	if s0.Reads != 2 || s0.Writes != 1 || s0.UnderLock != 1 {
		t.Fatalf("site a counts: %+v", s0)
	}
	if s0.Threads() != 2 || s0.ReadThreads != 2 || s0.WriteThreads != 1 {
		t.Fatalf("site a threads: distinct=%d r=%d w=%d, want 2/2/1",
			s0.Threads(), s0.ReadThreads, s0.WriteThreads)
	}

	modes := map[string]ModeStats{}
	for _, m := range snap.Modes {
		modes[m.Mode] = m
	}
	if m := modes["dynamic"]; m.Sites != 2 || m.Checks != 3 || m.Elided != 2 || m.CacheHits != 1 {
		t.Fatalf("dynamic rollup: %+v", m)
	}
	if m := modes["locked"]; m.Sites != 1 || m.Checks != 2 || m.Violations != 1 {
		t.Fatalf("locked rollup: %+v", m)
	}
	if snap.Elision.ElidedDynamic != 1 {
		t.Fatal("elision stats not carried into snapshot")
	}
	if !strings.Contains(FormatProfile(snap, 10), "a @ ") {
		t.Fatal("profile table missing hottest site")
	}
}

func TestSuggestMode(t *testing.T) {
	cases := []struct {
		name string
		s    SiteStats
		want string
	}{
		{"private single thread", SiteStats{Reads: 4, ReadThreads: 1}, "private"},
		{"readonly multi reader", SiteStats{Reads: 9, ReadThreads: 3}, "readonly"},
		{"locked mode clean", SiteStats{Locked: 5, WriteThreads: 2}, "locked"},
		{"consistently locked writes", SiteStats{Reads: 3, Writes: 3, UnderLock: 6, ReadThreads: 2, WriteThreads: 2}, "locked(l)"},
		{"plain dynamic", SiteStats{Reads: 3, Writes: 3, UnderLock: 1, ReadThreads: 2, WriteThreads: 2}, "dynamic"},
		{"conflicts but always locked", SiteStats{Reads: 4, Writes: 4, UnderLock: 8, Conflicts: 2, ReadThreads: 2, WriteThreads: 2}, "locked(l)"},
		{"conflicts unlocked", SiteStats{Reads: 4, Writes: 4, Conflicts: 2, ReadThreads: 2, WriteThreads: 2}, "investigate"},
		{"lock violation", SiteStats{Locked: 4, LockViolations: 1, WriteThreads: 2}, "investigate"},
		{"oneref failure", SiteStats{Scasts: 2, OnerefFails: 1, ReadThreads: 1}, "investigate"},
		{"fully elided", SiteStats{Elided: 7, ReadThreads: 2}, "(elided)"},
	}
	for _, tc := range cases {
		if got := suggestMode(&tc.s); got != tc.want {
			t.Errorf("%s: suggestMode = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4, nil)
	for i := 0; i < 10; i++ {
		tr.Append(KindChkRead, 1, -1, int64(i), 0)
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", tr.Total(), tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want || e.Addr != int64(want) {
			t.Fatalf("event %d: seq=%d addr=%d, want %d (oldest-first)", i, e.Seq, e.Addr, want)
		}
	}
}

func TestTracerExportsWellFormed(t *testing.T) {
	tr := NewTracer(16, []SiteInfo{{LValue: "x"}})
	tr.SetSchedule(2)
	tr.SetStep(5)
	tr.Append(KindChkWrite, 1, 0, 100, 0)
	tr.Append(KindSchedDecision, 2, -1, 0, 1)
	tr.Append(KindConflict, 1, 0, 100, 0)

	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(jl.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl has %d lines, want 3", len(lines))
	}
	for i, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, l)
		}
		if m["sched"].(float64) != 2 || m["step"].(float64) != 5 {
			t.Fatalf("line %d missing sched/step stamps: %s", i, l)
		}
	}
	var first map[string]any
	json.Unmarshal([]byte(lines[0]), &first)
	if first["site"] != "x @ -" && first["site"] != "x @ ?" {
		// Site must render the interned l-value whatever the zero Pos prints as.
		if s, _ := first["site"].(string); !strings.HasPrefix(s, "x @ ") {
			t.Fatalf("site rendering: %v", first["site"])
		}
	}
	var second map[string]any
	json.Unmarshal([]byte(lines[1]), &second)
	if _, ok := second["point"]; !ok {
		t.Fatal("scheduler event missing point field")
	}

	var ch bytes.Buffer
	if err := tr.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ch.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	// 2 thread_name metadata lanes (tids 1 and 2) + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("chrome export has %d records, want 5", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["M"] != 2 || phases["X"] != 1 || phases["i"] != 2 {
		t.Fatalf("chrome phases: %v, want M=2 X=1 i=2", phases)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(make([]SiteInfo, 4))
	var wg sync.WaitGroup
	const perThread = 1000
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				c.DynamicCheck(tid, i%4, i%2 == 0, false, false)
			}
		}(tid)
	}
	wg.Wait()
	snap := c.Snapshot(GlobalStats{}, Elision{})
	var total int64
	for _, s := range snap.Sites {
		total += s.Reads + s.Writes
		if s.Threads() != 8 {
			t.Fatalf("site %d saw %d threads, want 8", s.Site, s.Threads())
		}
	}
	if total != 8*perThread {
		t.Fatalf("lost updates: %d checks recorded, want %d", total, 8*perThread)
	}
}

// BenchmarkDisabledPath measures what every instrumented access pays when
// telemetry is off: one nil-receiver method call each on the collector and
// tracer. This is the "disabled path is a branch-predictable no-op" claim —
// compare with BenchmarkEnabledPath.
func BenchmarkDisabledPath(b *testing.B) {
	var c *Collector
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		c.DynamicCheck(1, 3, i&1 == 0, false, false)
		tr.Append(KindChkRead, 1, 3, int64(i), 0)
	}
}

func BenchmarkEnabledPath(b *testing.B) {
	c := NewCollector(make([]SiteInfo, 8))
	tr := NewTracer(1<<12, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DynamicCheck(1, 3, i&1 == 0, false, false)
		tr.Append(KindChkRead, 1, 3, int64(i), 0)
	}
}

func BenchmarkCollectorOnly(b *testing.B) {
	c := NewCollector(make([]SiteInfo, 8))
	for i := 0; i < b.N; i++ {
		c.DynamicCheck(1, 3, i&1 == 0, false, false)
	}
}

// TestTracerRingGrowsOnDemand: the ring allocates only the events a run
// appends (TestTracerRingWrap pins the full ring).
func TestTracerRingGrowsOnDemand(t *testing.T) {
	tr := NewTracer(DefaultTraceCapacity, nil)
	for i := 0; i < 3; i++ {
		tr.Append(KindChkRead, 1, -1, int64(i), 0)
	}
	if c := cap(tr.events); c >= DefaultTraceCapacity {
		t.Fatalf("3 appends reserved %d ring slots", c)
	}
	if ev := tr.Events(); len(ev) != 3 || ev[2].Addr != 2 {
		t.Fatalf("events = %+v, want the 3 appended", ev)
	}
}
