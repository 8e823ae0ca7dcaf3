// Package sched is a pluggable cooperative scheduling layer for the
// concurrent interpreter. When a Controller is installed, ShC threads stop
// free-running on the Go scheduler: each thread's body runs on a coroutine,
// the Controller's driver resumes exactly one of them at a time, and at
// every scheduling point (spawn, lock/unlock, cond wait/signal, join,
// checked memory access, sharing cast, thread exit) a Strategy picks the
// next runnable thread. Because the interpreter is deterministic between
// scheduling points, the sequence of chosen threads fully determines the
// execution: a (program, seed) pair reproduces the identical trace,
// reports, and exit code, and a recorded decision sequence can be replayed
// exactly — including across check-elision configurations, since the
// scheduling points are anchored to memory accesses and synchronization
// operations, which elision never removes.
//
// Blocking operations (mutex acquire, condition wait, join, thread-id
// starvation) are modeled inside the Controller rather than on real sync
// primitives, so the scheduler always knows the runnable set and can
// detect deadlocks: when every live thread is blocked, the run is torn
// down, every unfinished thread is resumed with a failure status, and the
// run aborts with deadlock reports instead of hanging.
//
// The running task owns the Controller's state. Run drives the tasks on
// its own goroutine, and a task runs only while the driver has resumed
// it, so a decision takes no lock. Only Abort comes from other
// goroutines, and it merely requests a teardown that the running task
// carries out at its next scheduling method.
package sched

import (
	"slices"
	"sync/atomic"
)

// Point classifies scheduling points, mostly for strategies and traces.
type Point int

const (
	PointStart Point = iota
	PointSpawn
	PointLock
	PointUnlock
	PointWait
	PointSignal
	PointJoin
	PointCheck // checked (non-stack) memory access
	PointScast
	PointExit
	PointYield // explicit yield()
	PointSleep // sleepMs: virtual time, a plain preemption opportunity
)

func (p Point) String() string {
	switch p {
	case PointStart:
		return "start"
	case PointSpawn:
		return "spawn"
	case PointLock:
		return "lock"
	case PointUnlock:
		return "unlock"
	case PointWait:
		return "wait"
	case PointSignal:
		return "signal"
	case PointJoin:
		return "join"
	case PointCheck:
		return "check"
	case PointScast:
		return "scast"
	case PointExit:
		return "exit"
	case PointYield:
		return "yield"
	case PointSleep:
		return "sleep"
	}
	return "?"
}

type taskState int

const (
	stReady taskState = iota // in the ready set: running, runnable, or not yet started
	stBlocked
	stExited
)

type blockReason int

const (
	blkNone blockReason = iota
	blkLock             // waitAddr is the contended lock
	blkCond             // waitAddr is the condition variable
	blkJoin             // waitKey is the joined task
	blkExit             // waiting for any task to exit (thread-id starvation)
)

// task is one schedulable thread. Every unfinished task but the running
// one is suspended: not yet started, or parked in a switch inside a
// scheduling method. state says whether the picker may resume it.
type task struct {
	key      int
	state    taskState
	reason   blockReason
	waitAddr int64
	waitKey  int
	next     func() (int, bool) // resumes the task's coroutine (driver.go)
	yield    func(int) bool     // from the body: switch to the driver, naming the next task
}

// Run states, in Controller.phase. Abort requests a teardown; the running
// task carries it out at its next controller call.
const (
	live int32 = iota
	abortRequested
	downAbort
	downDeadlock
)

// Options configures a Controller beyond its strategy.
type Options struct {
	// Record keeps the chosen-key decision sequence for Trace().
	Record bool
}

// Observer taps the controller's scheduling decisions and blocking edges
// (for telemetry tracing). Only the running task or the driver invokes it,
// one call at a time: implementations must be fast and must never call
// back into the Controller.
type Observer interface {
	// Decision reports that decision step picked task chosen at point p.
	Decision(step int64, chosen int, p Point)
	// Block reports that task key just blocked at point p.
	Block(key int, p Point)
}

// Controller runs a set of tasks one at a time and makes every
// interleaving decision through its Strategy.
//
// Go registers the tasks and Run drives them on the calling goroutine.
// Only the running task calls the scheduling methods (YieldPoint, Lock,
// Unlock, Wait, Signal, Join, AwaitExit) and Go, and the driver resumes
// one task at a time, so no method takes a lock. Once the run is torn
// down, the driver resumes every unfinished task in key order; its
// scheduling methods find the run down, return false and touch no state.
// Abort, Aborted and Deadlocked are safe to call from any goroutine at any
// time; Decisions, Trace and Diverged read the finished run and are called
// after it.
type Controller struct {
	strategy  Strategy
	tasks     []*task // index key-1; registration order
	ready     []int   // keys of the stReady tasks, ascending
	waiters   []int   // Signal's waiter set, reused
	lockOwner map[int64]int
	phase     atomic.Int32
	record    bool
	steps     []Step // recorded decisions, run-length encoded as in Trace
	nDec      int64
	obs       Observer
}

// New returns a Controller driving its tasks with the given strategy.
func New(s Strategy, o Options) *Controller {
	return &Controller{
		strategy:  s,
		lockOwner: make(map[int64]int),
		record:    o.Record,
	}
}

// enter starts every scheduling method: it returns the calling task, or
// nil when the run is over or an abort is pending, in which case it
// carries out the teardown (if no one has) and the caller unwinds.
func (c *Controller) enter(key int) *task {
	if c.phase.Load() != live {
		c.teardown(downAbort)
		return nil
	}
	return c.tasks[key-1]
}

// teardown ends the run once, recording why; the driver then resumes the
// unfinished tasks, which unwind. A pending abort outranks a deadlock
// found at the same time. It returns false, the scheduling methods'
// answer to a task that must unwind.
func (c *Controller) teardown(kind int32) bool {
	for {
		s := c.phase.Load()
		if s >= downAbort {
			return false
		}
		k := kind
		if s == abortRequested {
			k = downAbort
		}
		if c.phase.CompareAndSwap(s, k) {
			return false
		}
	}
}

// makeReady returns blocked task u to the ready set.
func (c *Controller) makeReady(u *task) {
	u.state = stReady
	u.reason = blkNone
	i, _ := slices.BinarySearch(c.ready, u.key)
	c.ready = slices.Insert(c.ready, i, u.key)
}

// leave takes task t out of the ready set as it blocks or exits.
func (c *Controller) leave(t *task, st taskState) {
	t.state = st
	if i, ok := slices.BinarySearch(c.ready, t.key); ok {
		c.ready = slices.Delete(c.ready, i, i+1)
	}
}

// pick runs one strategy decision over the non-empty ready set and
// returns the chosen task.
func (c *Controller) pick(cur int, p Point) *task {
	k := c.strategy.Pick(c.ready, cur, c.nDec, p)
	if k < 1 || k > len(c.tasks) || c.tasks[k-1].state != stReady {
		k = c.ready[0]
	}
	c.note(k, p)
	return c.tasks[k-1]
}

// note counts and records decision choice.
func (c *Controller) note(choice int, p Point) {
	c.nDec++
	if c.record {
		if n := len(c.steps); n > 0 && c.steps[n-1].Key == choice {
			c.steps[n-1].N++
		} else {
			c.steps = append(c.steps, Step{Key: choice, N: 1})
		}
	}
	if c.obs != nil {
		c.obs.Decision(c.nDec-1, choice, p)
	}
}

// SetObserver installs (or clears) the decision observer. Install before
// the program starts; the observer sees every subsequent decision.
func (c *Controller) SetObserver(o Observer) { c.obs = o }

// yield is the heart of the controller: the running task t offers its
// turn (blocking if blocked is set), the strategy picks the next task, and
// when that is another task, t switches to the driver, which resumes the
// pick; the call returns when t is resumed. It returns false when the run
// was torn down, in which case t must unwind.
func (c *Controller) yield(t *task, p Point, blocked bool) bool {
	if blocked {
		c.leave(t, stBlocked)
		if c.obs != nil {
			c.obs.Block(t.key, p)
		}
		if len(c.ready) == 0 {
			return c.teardown(downDeadlock)
		}
	}
	next := c.pick(t.key, p)
	if next == t {
		return true
	}
	return t.yield(next.key) && c.phase.Load() < downAbort
}

// YieldPoint is a pure preemption opportunity: the running task offers its
// turn without blocking. False means the run was torn down.
func (c *Controller) YieldPoint(key int, p Point) bool {
	t := c.enter(key)
	return t != nil && c.yield(t, p, false)
}

// Lock acquires the scheduler-modeled mutex at addr, blocking (by
// switching away) while another task owns it. Lock is itself a scheduling
// point before the acquire. Returns false on teardown.
func (c *Controller) Lock(key int, addr int64) bool {
	t := c.enter(key)
	return t != nil && c.yield(t, PointLock, false) && c.acquire(t, addr)
}

func (c *Controller) acquire(t *task, addr int64) bool {
	for c.lockOwner[addr] != 0 {
		t.reason, t.waitAddr = blkLock, addr
		if !c.yield(t, PointLock, true) {
			return false
		}
	}
	c.lockOwner[addr] = t.key
	return true
}

// release frees the lock at addr (if owned by key) and makes every task
// blocked on it runnable again; they re-compete for the lock when
// scheduled, so the strategy decides who wins.
func (c *Controller) release(key int, addr int64) {
	if c.lockOwner[addr] == key {
		delete(c.lockOwner, addr)
	}
	for _, u := range c.tasks {
		if u.state == stBlocked && u.reason == blkLock && u.waitAddr == addr {
			c.makeReady(u)
		}
	}
}

// Unlock releases the mutex at addr and yields. Returns false on teardown.
func (c *Controller) Unlock(key int, addr int64) bool {
	t := c.enter(key)
	if t == nil {
		return false
	}
	c.release(key, addr)
	return c.yield(t, PointUnlock, false)
}

// Wait atomically releases the lock and blocks on the condition variable
// cv; once signaled it reacquires the lock before returning. Returns false
// on teardown.
func (c *Controller) Wait(key int, cv, lock int64) bool {
	t := c.enter(key)
	if t == nil {
		return false
	}
	c.release(key, lock)
	t.reason, t.waitAddr = blkCond, cv
	return c.yield(t, PointWait, true) && c.acquire(t, lock)
}

// Signal wakes one waiter on cv — chosen by the strategy, so wake order is
// explored and recorded like any other decision — or all waiters when
// broadcast is set. Signaling is itself a scheduling point. Returns false
// on teardown.
func (c *Controller) Signal(key int, cv int64, broadcast bool) bool {
	t := c.enter(key)
	if t == nil {
		return false
	}
	waiters := c.waiters[:0]
	for _, u := range c.tasks {
		if u.state == stBlocked && u.reason == blkCond && u.waitAddr == cv {
			waiters = append(waiters, u.key)
		}
	}
	c.waiters = waiters
	if broadcast {
		for _, w := range waiters {
			c.makeReady(c.tasks[w-1])
		}
	} else if len(waiters) > 0 {
		w := c.strategy.Pick(waiters, key, c.nDec, PointSignal)
		if !slices.Contains(waiters, w) {
			w = waiters[0]
		}
		c.note(w, PointSignal)
		c.makeReady(c.tasks[w-1])
	}
	return c.yield(t, PointSignal, false)
}

// Join blocks until the target task exits. Returns false on teardown.
func (c *Controller) Join(key, target int) bool {
	t := c.enter(key)
	if t == nil {
		return false
	}
	for c.tasks[target-1].state != stExited {
		t.reason, t.waitKey = blkJoin, target
		if !c.yield(t, PointJoin, true) {
			return false
		}
	}
	return c.yield(t, PointJoin, false)
}

// AwaitExit blocks until any task exits — used when the interpreter's
// thread-id pool is exhausted and a spawner must wait for a slot. Returns
// false on teardown.
func (c *Controller) AwaitExit(key int) bool {
	t := c.enter(key)
	if t == nil {
		return false
	}
	t.reason = blkExit
	return c.yield(t, PointSpawn, true)
}

// exit retires task t, whose body has returned, wakes its joiners and any
// spawners starved for a thread id, and returns the task to resume next,
// or nil when the run is over or torn down. Exiting is a recorded
// scheduling decision like any other.
func (c *Controller) exit(t *task) *task {
	if c.enter(t.key) == nil {
		return nil
	}
	c.leave(t, stExited)
	blocked := false
	for _, u := range c.tasks {
		if u.state != stBlocked {
			continue
		}
		if (u.reason == blkJoin && u.waitKey == t.key) || u.reason == blkExit {
			c.makeReady(u)
		} else {
			blocked = true
		}
	}
	if len(c.ready) > 0 {
		return c.pick(t.key, PointExit)
	}
	if blocked {
		c.teardown(downDeadlock)
	}
	return nil
}

// Abort tears the schedule down from outside the program: it requests a
// teardown, which the running task carries out at its next controller
// call; every controller call then returns false, and Run resumes every
// unfinished task so that all of them unwind. Unlike deadlock detection,
// Abort comes from another goroutine (a request timeout, a server drain)
// while the program is healthy; Deadlocked stays false and the
// interpreter unwinds without deadlock reports. Idempotent, and a no-op
// after deadlock teardown has already begun.
func (c *Controller) Abort() { c.phase.CompareAndSwap(live, abortRequested) }

// Aborted reports whether Abort was called before any deadlock teardown.
func (c *Controller) Aborted() bool {
	s := c.phase.Load()
	return s == abortRequested || s == downAbort
}

// Deadlocked reports whether the run was torn down by deadlock detection.
func (c *Controller) Deadlocked() bool { return c.phase.Load() == downDeadlock }

// Decisions returns the number of scheduling decisions the run took.
// Call it after the run.
func (c *Controller) Decisions() int64 { return c.nDec }

// Diverged reports whether a Replay strategy had to fall back because the
// recorded trace did not match the execution. Call it after the run.
func (c *Controller) Diverged() bool {
	type diverger interface{ Diverged() bool }
	if d, ok := c.strategy.(diverger); ok {
		return d.Diverged()
	}
	return false
}

// Trace serializes the recorded decision sequence (Options.Record must
// have been set) as a run-length-encoded trace. Call it after the run.
func (c *Controller) Trace() *Trace {
	tr := &Trace{
		Version:  TraceVersion,
		Strategy: c.strategy.Name(),
		Seed:     c.strategy.Seed(),
		Steps:    append([]Step(nil), c.steps...),
	}
	if c.record {
		tr.Decisions = c.nDec
	}
	return tr
}
