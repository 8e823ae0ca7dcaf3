package sched

import (
	"reflect"
	"testing"
)

func picks(s Strategy, ready []int, cur int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.Pick(ready, cur, int64(i), PointCheck)
		cur = out[i]
	}
	return out
}

func TestRandomDeterministic(t *testing.T) {
	ready := []int{1, 2, 3, 4}
	a := picks(NewRandom(99), ready, 1, 64)
	b := picks(NewRandom(99), ready, 1, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different pick sequences")
	}
	c := picks(NewRandom(100), ready, 1, 64)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical pick sequences")
	}
	seen := map[int]bool{}
	for _, k := range a {
		seen[k] = true
	}
	if len(seen) < 3 {
		t.Fatalf("random picks covered only %d of 4 tasks in 64 draws", len(seen))
	}
}

func TestRoundRobinRotation(t *testing.T) {
	ready := []int{1, 2, 3}
	got := picks(NewRoundRobin(1), ready, 1, 6)
	want := []int{2, 3, 1, 2, 3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rr1 rotation = %v, want %v", got, want)
	}
}

func TestRoundRobinQuantum(t *testing.T) {
	ready := []int{1, 2, 3}
	got := picks(NewRoundRobin(3), ready, 1, 6)
	// Two points keep the current task, every third rotates.
	want := []int{1, 1, 2, 2, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rr3 schedule = %v, want %v", got, want)
	}
}

func TestRoundRobinSkipsNonReady(t *testing.T) {
	rr := NewRoundRobin(1)
	if got := rr.Pick([]int{1, 3}, 1, 0, PointCheck); got != 3 {
		t.Fatalf("pick after 1 among {1,3} = %d, want 3", got)
	}
	if got := rr.Pick([]int{1, 3}, 3, 1, PointCheck); got != 1 {
		t.Fatalf("cyclic pick after 3 among {1,3} = %d, want 1", got)
	}
}

func TestPCTPrioritySchedule(t *testing.T) {
	ready := []int{1, 2, 3}
	a := picks(NewPCT(7, 2, 100), ready, 1, 50)
	b := picks(NewPCT(7, 2, 100), ready, 1, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same PCT seed gave different schedules")
	}
	// With no change point hit yet, the highest-priority task runs
	// continuously: the first picks are constant until a change point.
	p := NewPCT(12, 0, 100)
	first := p.Pick(ready, 1, 0, PointCheck)
	for i := 1; i < 20; i++ {
		if got := p.Pick(ready, first, int64(i), PointCheck); got != first {
			t.Fatalf("PCT without change points switched task at decision %d", i)
		}
	}
}

func TestPCTDemotion(t *testing.T) {
	// Force a change point at decision 0 by constructing directly.
	p := &PCT{prios: make(map[int]uint64), changes: map[int64]bool{0: true}, low: 1 << 20, x: 1}
	ready := []int{1, 2}
	// Decision 0 demotes task 1 (cur); task 2 must win from then on.
	if got := p.Pick(ready, 1, 0, PointCheck); got != 2 {
		t.Fatalf("demoted task still picked: got %d", got)
	}
}

// TestPCTYieldSpinHandoff: a task spinning on yield() until a worker
// finishes must let the worker run under PCT. Without demotion at yield
// points a spinner that draws the higher priority is picked until a change
// point demotes it; the horizon here puts the change points out of reach,
// as a long calibrated horizon does in practice.
func TestPCTYieldSpinHandoff(t *testing.T) {
	const spinLimit = 10000
	for seed := int64(1); seed <= 20; seed++ {
		done := false
		spins := 0
		spinner := func(c *Controller, key int) {
			for !done && spins < spinLimit {
				spins++
				c.YieldPoint(key, PointYield)
			}
		}
		worker := func(c *Controller, key int) {
			for i := 0; i < 20; i++ {
				c.YieldPoint(key, PointCheck)
			}
			done = true
		}
		runTasks(t, NewPCT(seed, 3, 1<<40), false, spinner, worker)
		if !done || spins >= spinLimit {
			t.Fatalf("seed %d: the spinner yielded %d times without the worker finishing", seed, spins)
		}
	}
}

func TestReplayFollowsTrace(t *testing.T) {
	tr := &Trace{
		Version:   TraceVersion,
		Decisions: 5,
		Steps:     []Step{{Key: 2, N: 2}, {Key: 1, N: 1}, {Key: 3, N: 2}},
	}
	r := NewReplay(tr)
	ready := []int{1, 2, 3}
	want := []int{2, 2, 1, 3, 3}
	for i, w := range want {
		if got := r.Pick(ready, 1, int64(i), PointCheck); got != w {
			t.Fatalf("replay decision %d = %d, want %d", i, got, w)
		}
	}
	if r.Diverged() {
		t.Fatal("faithful replay marked diverged")
	}
	// Trace exhausted: deterministic fallback + divergence flag.
	if got := r.Pick(ready, 1, 5, PointCheck); got != ready[0] {
		t.Fatalf("fallback pick = %d, want %d", got, ready[0])
	}
	if !r.Diverged() {
		t.Fatal("exhausted replay not marked diverged")
	}
}

func TestReplayDivergesOnMissingKey(t *testing.T) {
	tr := &Trace{Version: TraceVersion, Decisions: 1, Steps: []Step{{Key: 9, N: 1}}}
	r := NewReplay(tr)
	if got := r.Pick([]int{1, 2}, 1, 0, PointCheck); got != 1 {
		t.Fatalf("fallback pick = %d, want 1", got)
	}
	if !r.Diverged() {
		t.Fatal("replay of unready key not marked diverged")
	}
}
