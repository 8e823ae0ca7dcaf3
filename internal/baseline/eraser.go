// Package baseline implements the dynamic race detectors SharC is compared
// against in §6: the Eraser lockset algorithm (Savage et al., SOSP'97) and
// a vector-clock happens-before detector (the lineage of Choi et al. and
// RaceTrack). Both attach to the interpreter as observers, seeing exactly
// the accesses and synchronization events of an execution, so the paper's
// qualitative claims can be measured: Eraser's lockset state machine
// reports ownership handoffs as false positives that SharC's sharing casts
// model directly, and both impose far higher overhead because every access
// takes a global detector lock (the moral equivalent of Eraser's 10-30x
// binary-instrumentation slowdown).
package baseline

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/locklog"
)

// EraserState is the per-location state machine of the lockset algorithm.
type EraserState int

const (
	Virgin EraserState = iota
	Exclusive
	Shared
	SharedModified
)

func (s EraserState) String() string {
	switch s {
	case Virgin:
		return "virgin"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case SharedModified:
		return "shared-modified"
	}
	return "?"
}

type eraserLoc struct {
	state   EraserState
	owner   int
	lockset map[int64]bool // candidate set C(v); nil = "all locks"
}

// Eraser is the lockset detector. It is an interp.Observer.
type Eraser struct {
	mu     sync.Mutex
	locs   map[int64]*eraserLoc
	races  map[int64]bool
	report []string
	events int64
}

// NewEraser returns an empty detector.
func NewEraser() *Eraser {
	return &Eraser{locs: make(map[int64]*eraserLoc), races: make(map[int64]bool)}
}

// Access implements the lockset state machine.
func (e *Eraser) Access(tid int, addr int64, write bool, locks *locklog.Log, site int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events++
	l := e.locs[addr]
	if l == nil {
		l = &eraserLoc{state: Virgin}
		e.locs[addr] = l
	}
	switch l.state {
	case Virgin:
		l.state = Exclusive
		l.owner = tid
		return
	case Exclusive:
		if tid == l.owner {
			return
		}
		// First access by a second thread: initialize C(v) with the current
		// lockset and move to shared / shared-modified.
		l.lockset = setOf(locks)
		if write {
			l.state = SharedModified
		} else {
			l.state = Shared
		}
	case Shared:
		l.intersect(locks)
		if write {
			l.state = SharedModified
		}
	case SharedModified:
		l.intersect(locks)
	}
	if l.state == SharedModified && len(l.lockset) == 0 && !e.races[addr] {
		e.races[addr] = true
		e.report = append(e.report,
			fmt.Sprintf("eraser: lockset empty for 0x%x (thread %d, write=%v)", addr, tid, write))
	}
}

func setOf(locks *locklog.Log) map[int64]bool {
	s := make(map[int64]bool)
	for _, a := range locks.Snapshot() {
		s[a] = true
	}
	return s
}

func (l *eraserLoc) intersect(locks *locklog.Log) {
	for a := range l.lockset {
		if !locks.Held(a) {
			delete(l.lockset, a)
		}
	}
}

// Acquire/Release/Spawn/Join/CondSignal/CondWake/ThreadEnd: Eraser uses
// only the locksets carried on accesses.
func (e *Eraser) Acquire(int, int64)    {}
func (e *Eraser) Release(int, int64)    {}
func (e *Eraser) Spawn(int, int)        {}
func (e *Eraser) Join(int, int)         {}
func (e *Eraser) CondSignal(int, int64) {}
func (e *Eraser) CondWake(int, int64)   {}
func (e *Eraser) ThreadEnd(int)         {}

// Malloc returns the block's locations to Virgin: Eraser instruments the
// allocator so recycled memory starts a fresh state machine. A location
// already reported stays reported, so each is reported at most once.
func (e *Eraser) Malloc(tid int, base, size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for a := base; a < base+size; a++ {
		delete(e.locs, a)
	}
}

// Free is not tracked (the reset happens at reallocation).
func (e *Eraser) Free(int, int64, int64) {}

// Races returns the distinct locations reported racy.
func (e *Eraser) Races() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.report))
	copy(out, e.report)
	sort.Strings(out)
	return out
}

// RaceCount returns the number of distinct racy locations.
func (e *Eraser) RaceCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.races)
}

// Events returns the number of accesses observed.
func (e *Eraser) Events() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events
}
