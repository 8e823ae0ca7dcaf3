package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runTasks drives n scripted tasks under a fresh controller: task i runs
// script[i](c, key) after Begin and exits afterwards. The first script is
// the "main" task (registered first, so it starts running); the others are
// registered by the harness before main starts, which is deterministic.
func runTasks(t testing.TB, s Strategy, rec bool, scripts ...func(c *Controller, key int)) *Controller {
	t.Helper()
	c := New(s, Options{Record: rec})
	keys := make([]int, len(scripts))
	for i := range scripts {
		keys[i] = c.Register()
	}
	var wg sync.WaitGroup
	for i, f := range scripts {
		wg.Add(1)
		go func(i int, f func(*Controller, int)) {
			defer wg.Done()
			c.Begin(keys[i])
			f(c, keys[i])
			c.Exit(keys[i])
		}(i, f)
	}
	wg.Wait()
	return c
}

// TestTokenSerialization: concurrent unsynchronized writes to a shared
// slice are safe because only the token holder runs (this test is part of
// the -race subset).
func TestTokenSerialization(t *testing.T) {
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
	pk := c.Register()
	childKey = c.Register()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.Begin(pk); parent(c, pk); c.Exit(pk) }()
	go func() { defer wg.Done(); c.Begin(childKey); child(c, childKey); c.Exit(childKey) }()
	wg.Wait()
}

// TestDeadlockDetection: a classic ABBA lock cycle is detected and both
// tasks are released with a failure status instead of hanging. The
// released tasks run concurrently, so failures is atomic.
func TestDeadlockDetection(t *testing.T) {
	const a, b = 100, 200
	var failures atomic.Int32
	mk := func(first, second int64) func(c *Controller, key int) {
		return func(c *Controller, key int) {
			if !c.Lock(key, first) {
				failures.Add(1)
				return
			}
			for i := 0; i < 5; i++ { // give the sibling time to take its first lock
				if !c.YieldPoint(key, PointCheck) {
					failures.Add(1)
					return
				}
			}
			if !c.Lock(key, second) {
				failures.Add(1)
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
	if failures.Load() == 0 {
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
	var shortKey int
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
	c := New(NewRoundRobin(1), Options{})
	wk := c.Register()
	shortKey = c.Register()
	_ = shortKey
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.Begin(wk); waiter(c, wk); c.Exit(wk) }()
	go func() { defer wg.Done(); c.Begin(shortKey); short(c, shortKey); c.Exit(shortKey) }()
	wg.Wait()
	if !resumed {
		t.Fatal("AwaitExit never resumed")
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
	keys := []int{c.Register(), c.Register(), c.Register()}
	var wg sync.WaitGroup
	run := func(i int, f func(*Controller, int, int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Begin(keys[i])
			f(c, keys[i], i)
			c.Exit(keys[i])
		}()
	}
	run(0, spin)
	run(1, spin)
	run(2, blocked)
	started.Wait()
	c.Abort()
	wg.Wait()
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

// waitAll waits for wg, failing the test if that takes longer than 10s.
func waitAll(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tasks still running 10s after teardown")
	}
}

// TestAbortReleasesParkedTasks: Abort is carried out by the token holder
// and releases tasks parked on a lock, a condition, a join and AwaitExit,
// a task that had not begun, and a task registered after the teardown by
// one the teardown released.
func TestAbortReleasesParkedTasks(t *testing.T) {
	const lock, cvLock, cv = 100, 200, 300
	c := New(NewRoundRobin(1), Options{})
	var wg sync.WaitGroup
	var parked atomic.Int32
	denied := make([]atomic.Bool, 8)
	start := func(key int, gate <-chan struct{}, f func(key int) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if gate != nil {
				<-gate
			}
			c.Begin(key)
			if !f(key) {
				denied[key].Store(true)
			}
			c.Exit(key)
		}()
	}
	park := func(f func(key int) bool) func(key int) bool {
		return func(key int) bool {
			parked.Add(1)
			return f(key)
		}
	}
	allParked, gate := make(chan struct{}), make(chan struct{})
	keys := []int{c.Register(), c.Register(), c.Register(), c.Register(), c.Register()}
	condKey := keys[2]
	spawned := false
	start(keys[0], nil, func(key int) bool {
		for {
			if parked.Load() == 4 && !spawned {
				// Everyone else is parked, since only the holder runs:
				// spawn a task whose goroutine waits for the test to
				// abort before it begins.
				start(c.Register(), gate, func(key int) bool { return c.YieldPoint(key, PointCheck) })
				close(allParked)
				spawned = true
			}
			if !c.YieldPoint(key, PointCheck) {
				// Released by the teardown: a spawn now must not wedge.
				start(c.Register(), nil, func(key int) bool { return c.YieldPoint(key, PointSpawn) })
				return false
			}
		}
	})
	start(keys[1], nil, park(func(key int) bool { return c.Lock(key, lock) && c.Lock(key, lock) }))
	start(keys[2], nil, park(func(key int) bool { return c.Lock(key, cvLock) && c.Wait(key, cv, cvLock) }))
	start(keys[3], nil, park(func(key int) bool { return c.Join(key, condKey) }))
	start(keys[4], nil, park(c.AwaitExit))
	<-allParked
	c.Abort()
	close(gate)
	waitAll(t, &wg)
	if !c.Aborted() || c.Deadlocked() {
		t.Fatalf("Aborted() = %t, Deadlocked() = %t; want true, false", c.Aborted(), c.Deadlocked())
	}
	for key := 1; key <= 7; key++ {
		if !denied[key].Load() {
			t.Errorf("task %d was not released by the teardown", key)
		}
	}
}

// TestRegisterAfterTeardown: a task registered once the run is torn down
// gets a teardown token, so its Begin returns instead of waiting forever.
func TestRegisterAfterTeardown(t *testing.T) {
	c := New(NewRandom(1), Options{})
	k := c.Register()
	c.Begin(k)
	c.Abort()
	if c.YieldPoint(k, PointCheck) {
		t.Fatal("YieldPoint after Abort returned true")
	}
	late := c.Register()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Begin(late)
		if c.YieldPoint(late, PointCheck) {
			t.Error("a task registered after teardown was scheduled")
		}
		c.Exit(late)
	}()
	waitAll(t, &wg)
	c.Exit(k)
}

// TestAbortRacesDeadlock: an Abort landing while the holder finds a
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
		keys := []int{c.Register(), c.Register()}
		var wg sync.WaitGroup
		for j, f := range []func(*Controller, int){mk(a, b), mk(b, a)} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Begin(keys[j])
				f(c, keys[j])
				c.Exit(keys[j])
			}()
		}
		go c.Abort()
		waitAll(t, &wg)
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

// TestDecisionsDoNotAllocate: a yield that keeps the token allocates
// nothing, under each strategy family, once the strategy has seen every
// task.
func TestDecisionsDoNotAllocate(t *testing.T) {
	for _, s := range []Strategy{NewRandom(1), NewRoundRobin(1 << 40), NewPCT(1, 0, 100)} {
		c := New(s, Options{})
		key := c.Register()
		c.Begin(key)
		c.YieldPoint(key, PointCheck) // warms the strategy
		if n := testing.AllocsPerRun(100, func() { c.YieldPoint(key, PointCheck) }); n != 0 {
			t.Fatalf("%s: YieldPoint allocated %v times per decision", s.Name(), n)
		}
		c.Exit(key)
	}
}

// TestSignalDoesNotAllocate: signaling a parked waiter, and the two
// switches that let it park again, allocate nothing once warm.
func TestSignalDoesNotAllocate(t *testing.T) {
	const lock, cv = 100, 200
	c := New(NewRoundRobin(1), Options{})
	k1, k2 := c.Register(), c.Register()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Begin(k2)
		for c.Wait(k2, cv, lock) {
		}
		c.Exit(k2)
	}()
	c.Begin(k1)
	c.YieldPoint(k1, PointCheck) // k2 parks on cv
	c.Signal(k1, cv, false)      // warms the buffers
	if n := testing.AllocsPerRun(100, func() { c.Signal(k1, cv, false) }); n != 0 {
		t.Fatalf("Signal allocated %v times per call", n)
	}
	c.Abort()
	c.YieldPoint(k1, PointCheck)
	waitAll(t, &wg)
	c.Exit(k1)
}

// BenchmarkYieldPoint measures one scheduling point among three tasks:
// stay keeps the current task (no hand-off), switch hands the token on at
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
