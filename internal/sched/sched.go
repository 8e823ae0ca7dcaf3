// Package sched is a pluggable cooperative scheduling layer for the
// concurrent interpreter. When a Controller is installed, ShC threads stop
// free-running on the Go scheduler: exactly one thread holds the execution
// token at a time, and at every scheduling point (spawn, lock/unlock,
// cond wait/signal, join, checked memory access, sharing cast, thread
// exit) the running thread hands the token back and a Strategy picks the
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
// detect deadlocks: when every live thread is blocked, all of them are
// released with a failure status and the run aborts with deadlock reports
// instead of hanging.
//
// The token holder owns the Controller's state. The scheduling methods
// are called only by the thread holding the token, and each hand-off
// through a resume channel orders one holder's writes before the next
// holder's reads, so a decision takes no lock. Only Abort comes from
// other goroutines, and it merely requests a teardown that the holder
// carries out at its next scheduling method.
package sched

import (
	"slices"
	"sync"
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
	stReady taskState = iota // in the ready set: running, runnable, or not yet begun
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

// task is one schedulable thread. Every non-running, non-exited task's
// goroutine is parked on its resume channel; state says whether the picker
// may hand it the token.
type task struct {
	key      int
	state    taskState
	reason   blockReason
	waitAddr int64
	waitKey  int
	resume   chan resumeMsg // buffered 1: the token can be deposited early
}

// resumeMsg is a token. down marks a teardown token: the run is over and
// the receiver unwinds without touching the controller's state.
type resumeMsg struct {
	down bool
}

// Run states, in Controller.phase. Abort requests a teardown; the token
// holder carries it out at its next controller call.
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
// (for telemetry tracing). Only the token holder invokes it, one call at
// a time: implementations must be fast and must never call back into the
// Controller.
type Observer interface {
	// Decision reports that decision step picked task chosen at point p.
	Decision(step int64, chosen int, p Point)
	// Block reports that task key just blocked at point p.
	Block(key int, p Point)
}

// Controller serializes a set of tasks onto one execution token and makes
// every interleaving decision through its Strategy.
//
// The token holder owns the controller: only the task holding the token
// calls the scheduling methods (YieldPoint, Lock, Unlock, Wait, Signal,
// Join, AwaitExit, Exit) and Register, and successive holders are ordered
// by the resume channels, so those methods take no lock. Once the run is
// torn down, the tasks the teardown released call them too; they find
// the run down and touch no state. mu only orders the growth of tasks
// against Begin, which runs on the new task's goroutine, and against the
// one teardown pass. Abort, Aborted and Deadlocked are safe to call from
// any goroutine at any time; Decisions, Trace and Diverged read the
// finished run and are called after it.
type Controller struct {
	mu        sync.Mutex
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

// Register adds a new task and returns its key (1, 2, ... in registration
// order). The first registered task starts as the token holder; later ones
// are runnable and start executing when first picked (see Begin). Keys are
// deterministic: registration happens in scheduled-thread order. Once the
// run is torn down the new task gets a teardown token at once, so its
// Begin returns and it unwinds at its first scheduling point.
func (c *Controller) Register() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &task{
		key:    len(c.tasks) + 1,
		resume: make(chan resumeMsg, 1),
	}
	c.tasks = append(c.tasks, t)
	if c.phase.Load() >= downAbort {
		t.resume <- resumeMsg{down: true}
		return t.key
	}
	c.ready = append(c.ready, t.key) // the largest key so far
	if t.key == 1 {
		t.resume <- resumeMsg{} // initial token; drained by Begin
	}
	return t.key
}

// Begin parks the calling task until it is first scheduled. Every task —
// including one handed the token before it started — consumes exactly one
// token from its resume channel here, so an early deposit is never left
// stale in the buffer.
func (c *Controller) Begin(key int) {
	c.mu.Lock()
	t := c.tasks[key-1]
	c.mu.Unlock()
	<-t.resume
}

// enter starts every scheduling method: it returns the calling holder's
// task, or nil when the run is over or an abort is pending, in which case
// it carries out the teardown (if no one has) and the caller unwinds.
func (c *Controller) enter(key int) *task {
	if c.phase.Load() != live {
		c.teardown(key, downAbort)
		return nil
	}
	return c.tasks[key-1]
}

// teardown ends the run once: the first call (a CAS under mu, made by the
// token holder) records why and deposits a teardown token with every
// non-exited task but the caller; later calls, from tasks that token
// released, find the run down and return. A pending abort outranks a
// deadlock found at the same time. It returns false, the scheduling
// methods' answer to a task that must unwind.
func (c *Controller) teardown(caller int, kind int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
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
			break
		}
	}
	for _, u := range c.tasks {
		if u.key != caller && u.state != stExited {
			select {
			case u.resume <- resumeMsg{down: true}:
			default:
			}
		}
	}
	return false
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

// yield is the heart of the token machine: the holder t gives up the token
// (blocking if blocked is set), the strategy picks the next task, and the
// call returns when t is picked again. It returns false when the run was
// torn down, in which case t must unwind.
func (c *Controller) yield(t *task, p Point, blocked bool) bool {
	if blocked {
		c.leave(t, stBlocked)
		if c.obs != nil {
			c.obs.Block(t.key, p)
		}
		if len(c.ready) == 0 {
			return c.teardown(t.key, downDeadlock)
		}
	}
	next := c.pick(t.key, p)
	if next == t {
		return true
	}
	next.resume <- resumeMsg{}
	return !(<-t.resume).down
}

// YieldPoint is a pure preemption opportunity: the running task offers the
// token without blocking. False means the run was torn down.
func (c *Controller) YieldPoint(key int, p Point) bool {
	t := c.enter(key)
	return t != nil && c.yield(t, p, false)
}

// Lock acquires the scheduler-modeled mutex at addr, blocking (by handing
// the token away) while another task owns it. Lock is itself a scheduling
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

// Exit retires the calling task, wakes its joiners and any spawners
// starved for a thread id, and hands the token onward. Exiting is a
// recorded scheduling decision like any other.
func (c *Controller) Exit(key int) {
	t := c.enter(key)
	if t == nil {
		return
	}
	c.leave(t, stExited)
	blocked := false
	for _, u := range c.tasks {
		if u.state != stBlocked {
			continue
		}
		if (u.reason == blkJoin && u.waitKey == key) || u.reason == blkExit {
			c.makeReady(u)
		} else {
			blocked = true
		}
	}
	if len(c.ready) == 0 {
		if blocked {
			c.teardown(key, downDeadlock)
		}
		return // program over
	}
	c.pick(key, PointExit).resume <- resumeMsg{}
}

// Abort tears the schedule down from outside the program: it requests a
// teardown, which the token holder carries out at its next controller
// call. Every parked task — ready tasks waiting for the token as well as
// blocked ones, and tasks not yet begun — is then released with a
// teardown token, and every later controller call returns false, so all
// threads unwind at their next scheduling point. Unlike deadlock
// detection, which only fires when no task can run, Abort is called from
// another goroutine (a request timeout, a server drain) while the program
// is healthy; Deadlocked stays false and the interpreter unwinds without
// emitting deadlock reports. Idempotent, and a no-op after deadlock
// teardown has already begun.
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
