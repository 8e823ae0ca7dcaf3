package telemetry

import (
	"bytes"
	"testing"
)

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	a.TotalAccesses.Store(10)
	a.Conflicts.Store(1)
	a.MaxThreads.Store(3)
	a.MaxLocksHeld.Store(2)
	b.TotalAccesses.Store(5)
	b.Conflicts.Store(2)
	b.MaxThreads.Store(7)
	b.MaxLocksHeld.Store(1)
	a.Merge(&b)
	if got := a.TotalAccesses.Load(); got != 15 {
		t.Errorf("TotalAccesses = %d, want 15 (sum)", got)
	}
	if got := a.Conflicts.Load(); got != 3 {
		t.Errorf("Conflicts = %d, want 3 (sum)", got)
	}
	if got := a.MaxThreads.Load(); got != 7 {
		t.Errorf("MaxThreads = %d, want 7 (max)", got)
	}
	if got := a.MaxLocksHeld.Load(); got != 2 {
		t.Errorf("MaxLocksHeld = %d, want 2 (max)", got)
	}
}

func TestCollectorMerge(t *testing.T) {
	info := []SiteInfo{{LValue: "g"}, {LValue: "h"}}
	a, b := NewCollector(info), NewCollector(info)
	a.DynamicCheck(1, 0, true, false, false) // writer tid 1 at site 0
	b.DynamicCheck(2, 0, false, false, true) // reader tid 2, conflicting
	b.DynamicCheck(3, 1, true, true, false)  // site 1 under lock
	a.Merge(b)
	snap := a.Snapshot(GlobalStats{}, Elision{})
	s0 := snap.Sites[0]
	if s0.Reads != 1 || s0.Writes != 1 || s0.Conflicts != 1 {
		t.Errorf("site 0 = reads %d writes %d conflicts %d, want 1/1/1", s0.Reads, s0.Writes, s0.Conflicts)
	}
	if s0.ReadThreads != 1 || s0.WriteThreads != 1 {
		t.Errorf("site 0 read/write threads = %d/%d, want 1/1 (masks ORed)", s0.ReadThreads, s0.WriteThreads)
	}
	if s1 := snap.Sites[1]; s1.Writes != 1 || s1.UnderLock != 1 {
		t.Errorf("site 1 = writes %d underLock %d, want 1/1", s1.Writes, s1.UnderLock)
	}
}

func TestMergeGlobalStats(t *testing.T) {
	g := MergeGlobalStats(
		GlobalStats{TotalAccesses: 4, Conflicts: 1, MaxThreads: 2, ShadowPages: 3, HeapPages: 1, RCLoggedSlots: 5},
		GlobalStats{TotalAccesses: 6, Conflicts: 0, MaxThreads: 5, ShadowPages: 2, HeapPages: 4, RCLoggedSlots: 1},
	)
	if g.TotalAccesses != 10 || g.Conflicts != 1 || g.RCLoggedSlots != 6 {
		t.Errorf("sums wrong: %+v", g)
	}
	if g.MaxThreads != 5 || g.ShadowPages != 3 || g.HeapPages != 4 {
		t.Errorf("maxima wrong: %+v", g)
	}
}

// fillTracer appends n events for the given schedule, with addr encoding
// the emission order so windows can be compared.
func fillTracer(tr *Tracer, schedule, n int, addr *int64) {
	tr.SetSchedule(schedule)
	for i := 0; i < n; i++ {
		tr.Append(KindChkRead, 1, 0, *addr, 0)
		*addr++
	}
}

// TestMergeTracersMatchesSequential pins the ring-tail property: per-part
// rings at full capacity, filled in ascending schedule order, merge to the
// byte-identical window a single sequential ring would have kept.
func TestMergeTracersMatchesSequential(t *testing.T) {
	info := []SiteInfo{{LValue: "g"}}
	const capacity = 16
	// Sequential: one ring sees schedules 0..3 in order (sizes overflow
	// the ring, so the tail window matters).
	seq := NewTracer(capacity, info)
	var addr int64
	sizes := []int{5, 9, 7, 4}
	for s, n := range sizes {
		fillTracer(seq, s, n, &addr)
	}
	// Portfolio: schedule 0 on the calibration part, odd schedules on
	// worker A, even on worker B — each part appends ascending.
	calib, wa, wb := NewTracer(capacity, info), NewTracer(capacity, info), NewTracer(capacity, info)
	addrOf := func(s int) int64 {
		var a int64
		for i := 0; i < s; i++ {
			a += int64(sizes[i])
		}
		return a
	}
	for s, part := range []*Tracer{calib, wa, wb, wa} {
		a := addrOf(s)
		fillTracer(part, s, sizes[s], &a)
	}
	merged := MergeTracers(capacity, info, calib, wa, wb)

	if got, want := merged.Total(), seq.Total(); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	if got, want := merged.Dropped(), seq.Dropped(); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	var mb, sb bytes.Buffer
	if err := merged.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if mb.String() != sb.String() {
		t.Errorf("merged window diverges from sequential:\nmerged:\n%s\nsequential:\n%s", mb.String(), sb.String())
	}
}

// TestCollectorMergeEmptySides pins the serve folding edge case: merging
// an untouched collector in (either direction) must neither change counts
// nor panic, and merging into a fresh collector must equal a copy.
func TestCollectorMergeEmptySides(t *testing.T) {
	info := []SiteInfo{{LValue: "g"}, {LValue: "h"}}

	// Non-empty <- empty: a no-op.
	a, empty := NewCollector(info), NewCollector(info)
	a.DynamicCheck(1, 0, true, false, false)
	a.DynamicCheck(2, 1, false, true, false)
	before := a.Snapshot(GlobalStats{}, Elision{})
	a.Merge(empty)
	after := a.Snapshot(GlobalStats{}, Elision{})
	for i := range before.Sites {
		if before.Sites[i] != after.Sites[i] {
			t.Errorf("site %d changed by empty merge: %+v -> %+v", i, before.Sites[i], after.Sites[i])
		}
	}

	// Empty <- non-empty: a copy.
	fresh := NewCollector(info)
	fresh.Merge(a)
	got := fresh.Snapshot(GlobalStats{}, Elision{})
	for i := range after.Sites {
		if got.Sites[i] != after.Sites[i] {
			t.Errorf("site %d after merge into fresh: %+v, want %+v", i, got.Sites[i], after.Sites[i])
		}
	}

	// Nil receiver and nil argument are both inert (a request with
	// -metrics off folds a nil collector).
	var nilC *Collector
	nilC.Merge(a)
	a.Merge(nil)
	final := a.Snapshot(GlobalStats{}, Elision{})
	for i := range after.Sites {
		if final.Sites[i] != after.Sites[i] {
			t.Errorf("site %d changed by nil merge: %+v", i, final.Sites[i])
		}
	}
}

// TestMergeGlobalStatsSingleSided pins gauge maxima when only one side has
// run: zeros on the other side must not drag maxima down, and a
// zero-value part must be the identity.
func TestMergeGlobalStatsSingleSided(t *testing.T) {
	run := GlobalStats{
		TotalAccesses: 12, DynamicChecks: 8, Conflicts: 2,
		MaxThreads: 4, MaxLocksHeld: 3, ShadowPages: 7, HeapPages: 5,
	}
	for name, g := range map[string]GlobalStats{
		"zero-left":  MergeGlobalStats(GlobalStats{}, run),
		"zero-right": MergeGlobalStats(run, GlobalStats{}),
		"single":     MergeGlobalStats(run),
	} {
		if g != run {
			t.Errorf("%s: merge with zero identity = %+v, want %+v", name, g, run)
		}
	}
	if g := MergeGlobalStats(); g != (GlobalStats{}) {
		t.Errorf("empty merge = %+v, want zero", g)
	}
	// Maxima must come from whichever single side holds them even when
	// that side is otherwise quiet.
	g := MergeGlobalStats(GlobalStats{MaxThreads: 9}, run)
	if g.MaxThreads != 9 || g.MaxLocksHeld != 3 {
		t.Errorf("single-sided maxima: MaxThreads=%d MaxLocksHeld=%d, want 9/3", g.MaxThreads, g.MaxLocksHeld)
	}
	if g.TotalAccesses != 12 {
		t.Errorf("sums with quiet side: TotalAccesses=%d, want 12", g.TotalAccesses)
	}
}

// TestMergeTracersExactCapacityBoundary pins the ring-tail window at the
// exact-fit boundaries serve's concurrent folding hits: parts that sum to
// exactly capacity (nothing dropped), one event over (exactly one
// dropped), and a single part already at capacity.
func TestMergeTracersExactCapacityBoundary(t *testing.T) {
	info := []SiteInfo{{LValue: "g"}}
	const capacity = 8

	build := func(sizes ...int) []*Tracer {
		var parts []*Tracer
		var addr int64
		for s, n := range sizes {
			tr := NewTracer(capacity, info)
			fillTracer(tr, s, n, &addr)
			parts = append(parts, tr)
		}
		return parts
	}

	// Exact fit: 3+5 = capacity. Every event retained, none dropped.
	m := MergeTracers(capacity, info, build(3, 5)...)
	if m.Total() != capacity || m.Dropped() != 0 {
		t.Errorf("exact fit: total %d dropped %d, want %d/0", m.Total(), m.Dropped(), capacity)
	}
	evs := m.Events()
	if len(evs) != capacity {
		t.Fatalf("exact fit retained %d events, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		if e.Addr != int64(i) {
			t.Errorf("exact fit event %d has addr %d, want %d (ordered, renumbered)", i, e.Addr, i)
		}
		if e.Seq != uint64(i) {
			t.Errorf("exact fit event %d has seq %d, want %d", i, e.Seq, i)
		}
	}

	// One over: 4+5 = capacity+1. The oldest event falls off the tail.
	m = MergeTracers(capacity, info, build(4, 5)...)
	if m.Total() != capacity+1 || m.Dropped() != 1 {
		t.Errorf("one over: total %d dropped %d, want %d/1", m.Total(), m.Dropped(), capacity+1)
	}
	evs = m.Events()
	if len(evs) != capacity {
		t.Fatalf("one over retained %d events, want %d", len(evs), capacity)
	}
	if evs[0].Addr != 1 {
		t.Errorf("one over: oldest retained addr %d, want 1 (addr 0 dropped)", evs[0].Addr)
	}
	if evs[0].Seq != 1 || evs[len(evs)-1].Seq != uint64(capacity) {
		t.Errorf("one over: seq window [%d, %d], want [1, %d]",
			evs[0].Seq, evs[len(evs)-1].Seq, capacity)
	}

	// A single part exactly at capacity merges to itself.
	single := build(capacity)
	var want bytes.Buffer
	if err := single[0].WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	m = MergeTracers(capacity, info, single...)
	var got bytes.Buffer
	if err := m.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("at-capacity single part not identity:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestTracerSiteLabel pins the exported site renderer against the JSONL
// export's internal one.
func TestTracerSiteLabel(t *testing.T) {
	info := []SiteInfo{{LValue: "g"}}
	tr := NewTracer(4, info)
	if got, want := tr.SiteLabel(0), info[0].String(); got != want {
		t.Errorf("SiteLabel(0) = %q, want %q", got, want)
	}
	for _, bad := range []int32{-1, 1, 99} {
		if got := tr.SiteLabel(bad); got != "" {
			t.Errorf("SiteLabel(%d) = %q, want \"\"", bad, got)
		}
	}
	var nilT *Tracer
	if got := nilT.SiteLabel(0); got != "" {
		t.Errorf("nil SiteLabel = %q, want \"\"", got)
	}
}

func TestFrozenTracerIsReadOnly(t *testing.T) {
	info := []SiteInfo{{LValue: "g"}}
	part := NewTracer(8, info)
	var addr int64
	fillTracer(part, 0, 3, &addr)
	merged := MergeTracers(8, info, part)
	before := len(merged.Events())
	merged.Append(KindChkWrite, 1, 0, 99, 0) // must be dropped
	if got := len(merged.Events()); got != before {
		t.Errorf("frozen tracer accepted an append: %d -> %d events", before, got)
	}
	if merged.Total() != 3 {
		t.Errorf("Total = %d, want 3", merged.Total())
	}
}
