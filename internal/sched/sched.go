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
package sched

import (
	"sync"
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
	stReady taskState = iota
	stRunning
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

type resumeMsg struct {
	deadlock bool
}

// Options configures a Controller beyond its strategy.
type Options struct {
	// Record keeps the chosen-key decision sequence for Trace().
	Record bool
}

// Observer taps the controller's scheduling decisions and blocking edges
// (for telemetry tracing). Methods are invoked with the controller's lock
// held: implementations must be fast and must never call back into the
// Controller.
type Observer interface {
	// Decision reports that decision step picked task chosen at point p.
	Decision(step int64, chosen int, p Point)
	// Block reports that task key just blocked at point p.
	Block(key int, p Point)
}

// Controller serializes a set of tasks onto one execution token and makes
// every interleaving decision through its Strategy. All methods are safe
// for concurrent use, though by construction only the token holder calls
// the scheduling methods.
type Controller struct {
	mu        sync.Mutex
	strategy  Strategy
	tasks     []*task // index key-1; registration order
	lockOwner map[int64]int
	running   int
	deadlock  bool
	aborted   bool
	record    bool
	steps     []Step // recorded decisions, run-length encoded as in Trace
	nDec      int64
	obs       Observer
	// readyBuf backs readyLocked's result: one decision's ready set at a
	// time, reused so decisions do not allocate.
	readyBuf []int
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
// deterministic: registration happens in scheduled-thread order.
func (c *Controller) Register() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &task{
		key:    len(c.tasks) + 1,
		state:  stReady,
		resume: make(chan resumeMsg, 1),
	}
	c.tasks = append(c.tasks, t)
	if len(c.tasks) == 1 {
		t.state = stRunning
		c.running = t.key
		t.resume <- resumeMsg{} // initial token; drained by Begin
	}
	return t.key
}

func (c *Controller) task(key int) *task { return c.tasks[key-1] }

// Begin parks the calling task until it is first scheduled. Every task —
// including one handed the token before it started — consumes exactly one
// token from its resume channel here, so an early deposit is never left
// stale in the buffer.
func (c *Controller) Begin(key int) {
	c.mu.Lock()
	t := c.task(key)
	c.mu.Unlock()
	<-t.resume
}

// readyLocked returns the keys of all pickable tasks in ascending order.
// The slice is the controller's reusable buffer: it is valid until the next
// call, so callers use it only while holding c.mu.
func (c *Controller) readyLocked() []int {
	ready := c.readyBuf[:0]
	for _, t := range c.tasks {
		if t.state == stReady || t.state == stRunning {
			ready = append(ready, t.key)
		}
	}
	c.readyBuf = ready
	return ready
}

// decideLocked runs one strategy decision over the ready set and records
// it. ready must be non-empty.
func (c *Controller) decideLocked(ready []int, cur int, p Point) int {
	choice := c.strategy.Pick(ready, cur, c.nDec, p)
	ok := false
	for _, k := range ready {
		if k == choice {
			ok = true
			break
		}
	}
	if !ok {
		choice = ready[0]
	}
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
	return choice
}

// SetObserver installs (or clears) the decision observer. Install before
// the program starts; the observer sees every subsequent decision.
func (c *Controller) SetObserver(o Observer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs = o
}

// yieldLocked is the heart of the token machine: the running task t gives
// up the token (blocking if blocked is set), the strategy picks the next
// task, and the call returns when t is picked again. It returns false when
// the scheduler declared deadlock, in which case t must unwind.
func (c *Controller) yieldLocked(t *task, p Point, blocked bool) bool {
	if c.deadlock || c.aborted {
		return false
	}
	if blocked {
		t.state = stBlocked
		if c.obs != nil {
			c.obs.Block(t.key, p)
		}
	} else {
		t.state = stReady
	}
	ready := c.readyLocked()
	if len(ready) == 0 {
		c.declareDeadlockLocked(t)
		return false
	}
	next := c.task(c.decideLocked(ready, t.key, p))
	if next == t {
		t.state = stRunning
		return true
	}
	next.state = stRunning
	c.running = next.key
	c.mu.Unlock()
	next.resume <- resumeMsg{}
	msg := <-t.resume
	c.mu.Lock()
	if msg.deadlock || c.deadlock || c.aborted {
		return false
	}
	return true
}

// declareDeadlockLocked releases every blocked task with a deadlock
// status. The caller (if any) is left to return false on its own.
func (c *Controller) declareDeadlockLocked(caller *task) {
	c.deadlock = true
	for _, u := range c.tasks {
		if u == caller || u.state != stBlocked {
			continue
		}
		u.state = stReady
		u.reason = blkNone
		select {
		case u.resume <- resumeMsg{deadlock: true}:
		default:
		}
	}
}

// YieldPoint is a pure preemption opportunity: the running task offers the
// token without blocking. False means deadlock teardown is in progress.
func (c *Controller) YieldPoint(key int, p Point) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.yieldLocked(c.task(key), p, false)
}

// Lock acquires the scheduler-modeled mutex at addr, blocking (by handing
// the token away) while another task owns it. Lock is itself a scheduling
// point before the acquire. Returns false on deadlock.
func (c *Controller) Lock(key int, addr int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.task(key)
	if !c.yieldLocked(t, PointLock, false) {
		return false
	}
	return c.acquireLocked(t, addr)
}

func (c *Controller) acquireLocked(t *task, addr int64) bool {
	for c.lockOwner[addr] != 0 {
		t.reason, t.waitAddr = blkLock, addr
		if !c.yieldLocked(t, PointLock, true) {
			return false
		}
		t.reason = blkNone
	}
	c.lockOwner[addr] = t.key
	return true
}

// releaseLocked frees the lock at addr (if owned by key) and makes every
// task blocked on it runnable again; they re-compete for the lock when
// scheduled, so the strategy decides who wins.
func (c *Controller) releaseLocked(key int, addr int64) {
	if c.lockOwner[addr] == key {
		delete(c.lockOwner, addr)
	}
	for _, u := range c.tasks {
		if u.state == stBlocked && u.reason == blkLock && u.waitAddr == addr {
			u.state = stReady
			u.reason = blkNone
		}
	}
}

// Unlock releases the mutex at addr and yields. Returns false on deadlock.
func (c *Controller) Unlock(key int, addr int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(key, addr)
	return c.yieldLocked(c.task(key), PointUnlock, false)
}

// Wait atomically releases the lock and blocks on the condition variable
// cv; once signaled it reacquires the lock before returning. Returns false
// on deadlock.
func (c *Controller) Wait(key int, cv, lock int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.task(key)
	c.releaseLocked(key, lock)
	t.reason, t.waitAddr = blkCond, cv
	if !c.yieldLocked(t, PointWait, true) {
		return false
	}
	t.reason = blkNone
	return c.acquireLocked(t, lock)
}

// Signal wakes one waiter on cv — chosen by the strategy, so wake order is
// explored and recorded like any other decision — or all waiters when
// broadcast is set. Signaling is itself a scheduling point. Returns false
// on deadlock.
func (c *Controller) Signal(key int, cv int64, broadcast bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadlock || c.aborted {
		return false
	}
	var waiters []int
	for _, u := range c.tasks {
		if u.state == stBlocked && u.reason == blkCond && u.waitAddr == cv {
			waiters = append(waiters, u.key)
		}
	}
	if broadcast {
		for _, w := range waiters {
			u := c.task(w)
			u.state = stReady
			u.reason = blkNone
		}
	} else if len(waiters) > 0 {
		u := c.task(c.decideLocked(waiters, key, PointSignal))
		u.state = stReady
		u.reason = blkNone
	}
	return c.yieldLocked(c.task(key), PointSignal, false)
}

// Join blocks until the target task exits. Returns false on deadlock.
func (c *Controller) Join(key, target int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.task(key)
	for c.task(target).state != stExited {
		t.reason, t.waitKey = blkJoin, target
		if !c.yieldLocked(t, PointJoin, true) {
			return false
		}
		t.reason = blkNone
	}
	return c.yieldLocked(t, PointJoin, false)
}

// AwaitExit blocks until any task exits — used when the interpreter's
// thread-id pool is exhausted and a spawner must wait for a slot. Returns
// false on deadlock.
func (c *Controller) AwaitExit(key int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.task(key)
	t.reason = blkExit
	if !c.yieldLocked(t, PointSpawn, true) {
		return false
	}
	t.reason = blkNone
	return true
}

// Exit retires the calling task, wakes its joiners and any spawners
// starved for a thread id, and hands the token onward. Exiting is a
// recorded scheduling decision like any other.
func (c *Controller) Exit(key int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.task(key)
	t.state = stExited
	for _, u := range c.tasks {
		if u.state != stBlocked {
			continue
		}
		if (u.reason == blkJoin && u.waitKey == key) || u.reason == blkExit {
			u.state = stReady
			u.reason = blkNone
		}
	}
	if c.deadlock || c.aborted {
		return
	}
	ready := c.readyLocked()
	if len(ready) == 0 {
		for _, u := range c.tasks {
			if u.state == stBlocked {
				c.declareDeadlockLocked(nil)
				return
			}
		}
		return // program over
	}
	next := c.task(c.decideLocked(ready, key, PointExit))
	next.state = stRunning
	c.running = next.key
	c.mu.Unlock()
	next.resume <- resumeMsg{}
	c.mu.Lock()
}

// Abort tears the schedule down from outside the program: every parked
// task — ready tasks waiting for the token as well as blocked ones — is
// released with a teardown token, and every subsequent controller call
// returns false, so all threads unwind at their next scheduling point.
// Unlike deadlock detection, which only fires when no task can run, Abort
// is called from another goroutine (a request timeout, a server drain)
// while the program is healthy; Deadlocked stays false and the interpreter
// unwinds without emitting deadlock reports. Idempotent, and a no-op after
// deadlock teardown has already begun.
func (c *Controller) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted || c.deadlock {
		return
	}
	c.aborted = true
	for _, u := range c.tasks {
		if u.state == stExited {
			continue
		}
		if u.state == stBlocked {
			u.state = stReady
			u.reason = blkNone
		}
		select {
		case u.resume <- resumeMsg{deadlock: true}:
		default:
		}
	}
}

// Aborted reports whether Abort tore the run down.
func (c *Controller) Aborted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted
}

// Deadlocked reports whether the run was torn down by deadlock detection.
func (c *Controller) Deadlocked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlock
}

// Decisions returns the number of scheduling decisions taken so far.
func (c *Controller) Decisions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nDec
}

// Diverged reports whether a Replay strategy had to fall back because the
// recorded trace did not match the execution.
func (c *Controller) Diverged() bool {
	type diverger interface{ Diverged() bool }
	if d, ok := c.strategy.(diverger); ok {
		return d.Diverged()
	}
	return false
}

// Trace serializes the recorded decision sequence (Options.Record must
// have been set) as a run-length-encoded trace.
func (c *Controller) Trace() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
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
