package sched

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runTasks drives n scripted tasks under a fresh controller: task i runs
// script[i](c, key) and exits when it returns. The first script is the
// "main" task (registered first, so it starts running); the others are
// registered by the harness before main starts, which is deterministic.
func runTasks(t testing.TB, s Strategy, rec bool, scripts ...func(c *Controller, key int)) *Controller {
	t.Helper()
	c := New(s, Options{Record: rec})
	for _, f := range scripts {
		c.Go(func(key int) { f(c, key) })
	}
	c.Run()
	return c
}

// TestOneTaskAtATime: unsynchronized writes to a shared slice from every
// task are safe because the driver resumes one task at a time (this test
// is part of the -race subset).
func TestOneTaskAtATime(t *testing.T) {
	var log []int
	worker := func(c *Controller, key int) {
		for i := 0; i < 50; i++ {
			log = append(log, key)
			if !c.YieldPoint(key, PointCheck) {
				t.Errorf("unexpected deadlock for task %d", key)
				return
			}
		}
	}
	runTasks(t, NewRandom(1), false, worker, worker, worker)
	if len(log) != 150 {
		t.Fatalf("log has %d entries, want 150", len(log))
	}
}

// TestLockMutualExclusion: a scheduler-modeled lock admits one holder at a
// time even under an adversarial random schedule.
func TestLockMutualExclusion(t *testing.T) {
	const lockAddr = 100
	inside := 0
	maxInside := 0
	worker := func(c *Controller, key int) {
		for i := 0; i < 20; i++ {
			if !c.Lock(key, lockAddr) {
				return
			}
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			c.YieldPoint(key, PointCheck)
			inside--
			if !c.Unlock(key, lockAddr) {
				return
			}
		}
	}
	runTasks(t, NewRandom(42), false, worker, worker, worker)
	if maxInside != 1 {
		t.Fatalf("lock admitted %d concurrent holders", maxInside)
	}
}

// TestCondSignalWakesWaiter: a waiter parked on a condition variable is
// woken by a signal and reacquires the lock.
func TestCondSignalWakesWaiter(t *testing.T) {
	const lock, cv = 100, 200
	state := 0
	waiter := func(c *Controller, key int) {
		c.Lock(key, lock)
		for state == 0 {
			if !c.Wait(key, cv, lock) {
				t.Error("waiter hit deadlock")
				return
			}
		}
		state = 2
		c.Unlock(key, lock)
	}
	signaler := func(c *Controller, key int) {
		c.Lock(key, lock)
		state = 1
		c.Unlock(key, lock)
		c.Signal(key, cv, false)
	}
	runTasks(t, NewRandom(7), false, signaler, waiter)
	if state != 2 {
		t.Fatalf("state = %d, want 2 (waiter never woke)", state)
	}
}

// TestBroadcastWakesAll: broadcast releases every waiter.
func TestBroadcastWakesAll(t *testing.T) {
	const lock, cv = 100, 200
	woken := 0
	ready := 0
	waiter := func(c *Controller, key int) {
		c.Lock(key, lock)
		ready++
		for ready < 4 { // 3 waiters + the broadcaster's mark
			if !c.Wait(key, cv, lock) {
				t.Error("waiter hit deadlock")
				return
			}
		}
		woken++
		c.Unlock(key, lock)
		c.Signal(key, cv, true) // chain the wakeup to the others
	}
	caster := func(c *Controller, key int) {
		// Let the waiters park first under round-robin.
		for i := 0; i < 20; i++ {
			c.YieldPoint(key, PointCheck)
		}
		c.Lock(key, lock)
		ready++
		c.Unlock(key, lock)
		c.Signal(key, cv, true)
	}
	runTasks(t, NewRoundRobin(1), false, caster, waiter, waiter, waiter)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

// TestJoinBlocksUntilExit: join returns only after the target's Exit, and
// joining an already-exited task does not block.
func TestJoinBlocksUntilExit(t *testing.T) {
	done := false
	var childKey int
	child := func(c *Controller, key int) {
		for i := 0; i < 10; i++ {
			c.YieldPoint(key, PointCheck)
		}
		done = true
	}
	parent := func(c *Controller, key int) {
		if !c.Join(key, childKey) {
			t.Error("join hit deadlock")
			return
		}
		if !done {
			t.Error("join returned before child exit")
		}
		// Joining again (already exited) must not block.
		if !c.Join(key, childKey) {
			t.Error("re-join hit deadlock")
		}
	}
	c := New(NewRandom(3), Options{})
	c.Go(func(key int) { parent(c, key) })
	childKey = c.Go(func(key int) { child(c, key) })
	c.Run()
}

// TestDeadlockDetection: a classic ABBA lock cycle is detected and both
// tasks are resumed with a failure status instead of hanging.
func TestDeadlockDetection(t *testing.T) {
	const a, b = 100, 200
	failures := 0
	mk := func(first, second int64) func(c *Controller, key int) {
		return func(c *Controller, key int) {
			if !c.Lock(key, first) {
				failures++
				return
			}
			for i := 0; i < 5; i++ { // give the sibling time to take its first lock
				if !c.YieldPoint(key, PointCheck) {
					failures++
					return
				}
			}
			if !c.Lock(key, second) {
				failures++
				return
			}
			c.Unlock(key, second)
			c.Unlock(key, first)
		}
	}
	c := runTasks(t, NewRoundRobin(1), false, mk(a, b), mk(b, a))
	if !c.Deadlocked() {
		t.Fatal("ABBA cycle not detected")
	}
	if failures == 0 {
		t.Fatal("no task observed the deadlock")
	}
	c.Abort() // a no-op after deadlock teardown
	if c.Aborted() {
		t.Fatal("Abort after deadlock teardown reads as Aborted")
	}
}

// TestSelfDeadlock: one task locking the same mutex twice deadlocks alone.
func TestSelfDeadlock(t *testing.T) {
	c := runTasks(t, NewRandom(1), false, func(c *Controller, key int) {
		if !c.Lock(key, 100) {
			return
		}
		if c.Lock(key, 100) {
			t.Error("recursive lock acquired")
		}
	})
	if !c.Deadlocked() {
		t.Fatal("self-deadlock not detected")
	}
}

// TestSeededDeterminism: the same seed yields the same decision sequence;
// a different seed (almost surely) differs.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		var log []int
		worker := func(c *Controller, key int) {
			for i := 0; i < 40; i++ {
				log = append(log, key)
				c.YieldPoint(key, PointCheck)
			}
		}
		runTasks(t, NewRandom(seed), false, worker, worker, worker)
		return log
	}
	a1, a2 := run(5), run(5)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed produced different interleavings")
	}
	if b := run(6); reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds produced identical interleavings (suspicious)")
	}
}

// TestRecordReplay: replaying a recorded trace reproduces the identical
// interleaving with no divergence.
func TestRecordReplay(t *testing.T) {
	var log []int
	worker := func(c *Controller, key int) {
		for i := 0; i < 30; i++ {
			log = append(log, key)
			c.YieldPoint(key, PointCheck)
		}
	}
	rec := runTasks(t, NewRandom(11), true, worker, worker, worker)
	want := append([]int(nil), log...)
	tr := rec.Trace()

	log = nil
	rep := runTasks(t, NewReplay(tr), false, worker, worker, worker)
	if rep.Diverged() {
		t.Fatal("faithful replay diverged")
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("replayed interleaving differs:\n got %v\nwant %v", log, want)
	}
}

// TestReplayDivergenceFallback: replaying a trace against a different
// program falls back deterministically and flags divergence.
func TestReplayDivergenceFallback(t *testing.T) {
	worker := func(n int) func(c *Controller, key int) {
		return func(c *Controller, key int) {
			for i := 0; i < n; i++ {
				c.YieldPoint(key, PointCheck)
			}
		}
	}
	rec := runTasks(t, NewRandom(2), true, worker(10), worker(10))
	tr := rec.Trace()
	// The "program" now runs three times as long: the trace runs out.
	rep := runTasks(t, NewReplay(tr), false, worker(30), worker(30))
	if !rep.Diverged() {
		t.Fatal("expected divergence when the trace runs out")
	}
}

// TestAwaitExit: a task blocked in AwaitExit resumes when another exits.
func TestAwaitExit(t *testing.T) {
	resumed := false
	short := func(c *Controller, key int) {
		for i := 0; i < 3; i++ {
			c.YieldPoint(key, PointCheck)
		}
	}
	waiter := func(c *Controller, key int) {
		if !c.AwaitExit(key) {
			t.Error("AwaitExit hit deadlock")
			return
		}
		resumed = true
	}
	runTasks(t, NewRoundRobin(1), false, waiter, short)
	if !resumed {
		t.Fatal("AwaitExit never resumed")
	}
}

// runAsync starts c.Run on another goroutine, for tests that Abort from
// outside the run; the returned channel closes when Run returns.
func runAsync(c *Controller) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run()
	}()
	return done
}

// waitRun waits for a run started by runAsync, failing the test if that
// takes longer than 10s.
func waitRun(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tasks still running 10s after teardown")
	}
}

// TestAbort: aborting a controller denies further yields to every task —
// running, ready, and blocked alike — without flagging a deadlock.
func TestAbort(t *testing.T) {
	var denied [3]bool
	var started sync.WaitGroup
	started.Add(3)
	spin := func(c *Controller, key int, slot int) {
		started.Done()
		for i := 0; i < 1_000_000; i++ {
			if !c.YieldPoint(key, PointCheck) {
				denied[slot] = true
				return
			}
		}
	}
	blocked := func(c *Controller, key int, slot int) {
		started.Done()
		if !c.Lock(key, 100) {
			denied[slot] = true
			return
		}
		if !c.Lock(key, 100) { // self-block; only Abort can release it
			denied[slot] = true
			return
		}
	}
	c := New(NewRoundRobin(1), Options{})
	for i, f := range []func(*Controller, int, int){spin, spin, blocked} {
		c.Go(func(key int) { f(c, key, i) })
	}
	done := runAsync(c)
	started.Wait()
	c.Abort()
	waitRun(t, done)
	if !c.Aborted() {
		t.Fatal("Aborted() = false after Abort")
	}
	if c.Deadlocked() {
		t.Fatal("Abort must not masquerade as a deadlock")
	}
	for i, d := range denied {
		if !d {
			t.Errorf("task %d was not released by Abort", i)
		}
	}
	c.Abort() // idempotent
}

// TestAbortReleasesParkedTasks: Abort is carried out by the running task,
// and the driver then resumes tasks parked on a lock, a condition, a join
// and AwaitExit, a task registered but not yet started, and a task
// registered after the teardown by one the teardown resumed.
func TestAbortReleasesParkedTasks(t *testing.T) {
	const lock, cvLock, cv = 100, 200, 300
	c := New(NewRoundRobin(1), Options{})
	parked := 0
	denied := make([]bool, 8)
	var allParked atomic.Bool
	start := func(f func(key int) bool) int {
		return c.Go(func(key int) {
			if !f(key) {
				denied[key] = true
			}
		})
	}
	park := func(f func(key int) bool) func(key int) bool {
		return func(key int) bool {
			parked++
			return f(key)
		}
	}
	var condKey int
	start(func(key int) bool {
		for parked < 4 {
			if !c.YieldPoint(key, PointCheck) {
				t.Error("the run was torn down before the tasks parked")
				return false
			}
		}
		// Everyone else is parked, and only this task runs until it
		// calls the controller: let the test abort, then register a
		// task the teardown finds not yet started.
		allParked.Store(true)
		for !c.Aborted() {
			runtime.Gosched()
		}
		start(func(key int) bool { return c.YieldPoint(key, PointCheck) })
		if c.YieldPoint(key, PointCheck) {
			return true
		}
		// Resumed by the teardown: a spawn now must not wedge.
		start(func(key int) bool { return c.YieldPoint(key, PointSpawn) })
		return false
	})
	start(park(func(key int) bool { return c.Lock(key, lock) && c.Lock(key, lock) }))
	condKey = start(park(func(key int) bool { return c.Lock(key, cvLock) && c.Wait(key, cv, cvLock) }))
	start(park(func(key int) bool { return c.Join(key, condKey) }))
	start(park(c.AwaitExit))
	done := runAsync(c)
	for !allParked.Load() {
		runtime.Gosched()
	}
	c.Abort()
	waitRun(t, done)
	if !c.Aborted() || c.Deadlocked() {
		t.Fatalf("Aborted() = %t, Deadlocked() = %t; want true, false", c.Aborted(), c.Deadlocked())
	}
	for key := 1; key <= 7; key++ {
		if !denied[key] {
			t.Errorf("task %d was not released by the teardown", key)
		}
	}
}

// TestGoAfterTeardown: a task registered once the run is torn down still
// starts, and its first scheduling method reports the teardown.
func TestGoAfterTeardown(t *testing.T) {
	c := New(NewRandom(1), Options{})
	lateDenied := false
	c.Go(func(key int) {
		c.Abort()
		if c.YieldPoint(key, PointCheck) {
			t.Error("YieldPoint after Abort returned true")
		}
		c.Go(func(late int) { lateDenied = !c.YieldPoint(late, PointCheck) })
	})
	c.Run()
	if !lateDenied {
		t.Fatal("a task registered after teardown was scheduled")
	}
}

// TestAbortRacesDeadlock: an Abort landing while the running task finds a
// deadlock ends the run one way or the other, never both.
func TestAbortRacesDeadlock(t *testing.T) {
	const a, b = 100, 200
	for i := 0; i < 200; i++ {
		spin := i % 20
		mk := func(first, second int64) func(c *Controller, key int) {
			return func(c *Controller, key int) {
				if !c.Lock(key, first) {
					return
				}
				for j := 0; j < spin; j++ {
					if !c.YieldPoint(key, PointCheck) {
						return
					}
				}
				c.Lock(key, second)
			}
		}
		c := New(NewRoundRobin(1), Options{})
		for _, f := range []func(*Controller, int){mk(a, b), mk(b, a)} {
			c.Go(func(key int) { f(c, key) })
		}
		go c.Abort()
		waitRun(t, runAsync(c))
		if c.Aborted() && c.Deadlocked() {
			t.Fatalf("iteration %d: both Aborted and Deadlocked", i)
		}
		if !c.Aborted() && !c.Deadlocked() {
			t.Fatalf("iteration %d: the run ended neither aborted nor deadlocked", i)
		}
	}
}

// TestAbortAfterRun: aborting a finished run touches nothing and reads
// as Aborted, as it always has.
func TestAbortAfterRun(t *testing.T) {
	worker := func(c *Controller, key int) {
		for i := 0; i < 10; i++ {
			c.YieldPoint(key, PointCheck)
		}
	}
	c := runTasks(t, NewRandom(4), true, worker, worker)
	n, steps := c.Decisions(), c.Trace().Steps
	c.Abort()
	c.Abort()
	if !c.Aborted() || c.Deadlocked() {
		t.Fatalf("Aborted() = %t, Deadlocked() = %t; want true, false", c.Aborted(), c.Deadlocked())
	}
	if c.Decisions() != n || !reflect.DeepEqual(c.Trace().Steps, steps) {
		t.Fatal("Abort after the run changed the recorded decisions")
	}
}

// TestPanicUnwindsTheRun: a panic escaping one task's body leaves Run
// with that panic, after every other started task has unwound, and leaves
// no coroutine behind.
func TestPanicUnwindsTheRun(t *testing.T) {
	base := runtime.NumGoroutine()
	unwound := 0
	c := New(NewRoundRobin(1), Options{})
	parker := func(key int) {
		if !c.Lock(key, 100) || !c.Lock(key, 100) {
			unwound++
		}
	}
	c.Go(func(key int) {
		for i := 0; i < 5; i++ {
			c.YieldPoint(key, PointCheck)
		}
		panic("task fault")
	})
	c.Go(parker)
	c.Go(func(key int) {
		for c.YieldPoint(key, PointCheck) {
		}
		unwound++
	})
	func() {
		defer func() {
			if r := recover(); r != "task fault" {
				t.Fatalf("Run panicked with %v, want the task's panic", r)
			}
		}()
		c.Run()
	}()
	if unwound != 2 {
		t.Fatalf("%d tasks unwound, want 2", unwound)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the run, %d before", n, base)
	}
}

// TestDecisionsDoNotAllocate: a yield that keeps the current task
// allocates nothing, under each strategy family, once the strategy has
// seen every task.
func TestDecisionsDoNotAllocate(t *testing.T) {
	for _, s := range []Strategy{NewRandom(1), NewRoundRobin(1 << 40), NewPCT(1, 0, 100)} {
		c := New(s, Options{})
		var allocs float64
		c.Go(func(key int) {
			c.YieldPoint(key, PointCheck) // warms the strategy
			allocs = testing.AllocsPerRun(100, func() { c.YieldPoint(key, PointCheck) })
		})
		c.Run()
		if allocs != 0 {
			t.Fatalf("%s: YieldPoint allocated %v times per decision", s.Name(), allocs)
		}
	}
}

// TestSwitchDoesNotAllocate: a decision that switches to another task and
// the one that switches back allocate nothing once both tasks have
// started.
func TestSwitchDoesNotAllocate(t *testing.T) {
	c := New(NewRoundRobin(1), Options{})
	var allocs float64
	done := false
	c.Go(func(key int) {
		c.YieldPoint(key, PointCheck) // starts the other task
		allocs = testing.AllocsPerRun(100, func() { c.YieldPoint(key, PointCheck) })
		done = true
	})
	c.Go(func(key int) {
		for !done {
			c.YieldPoint(key, PointCheck)
		}
	})
	c.Run()
	if c.Decisions() < 200 {
		t.Fatalf("%d decisions: the tasks did not alternate", c.Decisions())
	}
	if allocs != 0 {
		t.Fatalf("a switch allocated %v times per round trip", allocs)
	}
}

// TestSignalDoesNotAllocate: signaling a parked waiter, and the two
// switches that let it park again, allocate nothing once warm.
func TestSignalDoesNotAllocate(t *testing.T) {
	const lock, cv = 100, 200
	c := New(NewRoundRobin(1), Options{})
	var allocs float64
	c.Go(func(k1 int) {
		c.YieldPoint(k1, PointCheck) // k2 parks on cv
		c.Signal(k1, cv, false)      // warms the buffers
		allocs = testing.AllocsPerRun(100, func() { c.Signal(k1, cv, false) })
		c.Abort()
		c.YieldPoint(k1, PointCheck)
	})
	c.Go(func(k2 int) {
		for c.Wait(k2, cv, lock) {
		}
	})
	c.Run()
	if allocs != 0 {
		t.Fatalf("Signal allocated %v times per call", allocs)
	}
}

// BenchmarkYieldPoint measures one scheduling point among three tasks:
// stay keeps the current task (no switch), switch resumes another task at
// every point, and pct and random are the exploring strategies.
func BenchmarkYieldPoint(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    func() Strategy
	}{
		{"stay", func() Strategy { return NewRoundRobin(1 << 40) }},
		{"switch", func() Strategy { return NewRoundRobin(1) }},
		{"pct", func() Strategy { return NewPCT(1, 3, 1<<20) }},
		{"random", func() Strategy { return NewRandom(1) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := 0
			worker := func(c *Controller, key int) {
				for n < b.N {
					n++
					c.YieldPoint(key, PointCheck)
				}
			}
			b.ReportAllocs()
			runTasks(b, bc.s(), false, worker, worker, worker)
		})
	}
}
