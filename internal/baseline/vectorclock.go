package baseline

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/locklog"
)

// VC is a vector clock mapping thread id to logical time.
type VC map[int]uint64

// Copy returns an independent copy.
func (v VC) Copy() VC {
	o := make(VC, len(v))
	for k, t := range v {
		o[k] = t
	}
	return o
}

// Join merges o into v (pointwise max).
func (v VC) Join(o VC) {
	for k, t := range o {
		if t > v[k] {
			v[k] = t
		}
	}
}

// LEq reports v ≤ o pointwise.
func (v VC) LEq(o VC) bool {
	for k, t := range v {
		if t > o[k] {
			return false
		}
	}
	return true
}

type hbLoc struct {
	writeVC VC // clock of the last write
	writeBy int
	readVC  VC // per-thread read clocks (max per thread)
}

// HB is a vector-clock happens-before race detector; it is an
// interp.Observer and uses lock, spawn/join, and condition-variable edges.
type HB struct {
	mu      sync.Mutex
	threads map[int]VC
	locks   map[int64]VC
	conds   map[int64]VC
	locs    map[int64]*hbLoc
	races   map[int64]bool
	report  []string
	events  int64
}

// NewHB returns an empty happens-before detector.
func NewHB() *HB {
	return &HB{
		threads: make(map[int]VC),
		locks:   make(map[int64]VC),
		conds:   make(map[int64]VC),
		locs:    make(map[int64]*hbLoc),
		races:   make(map[int64]bool),
	}
}

func (h *HB) clock(tid int) VC {
	c := h.threads[tid]
	if c == nil {
		c = VC{tid: 1}
		h.threads[tid] = c
	}
	return c
}

func (h *HB) tick(tid int) {
	h.clock(tid)[tid]++
}

// Access checks the access against the last write (and, for writes, all
// reads) under the happens-before order.
func (h *HB) Access(tid int, addr int64, write bool, _ *locklog.Log, _ int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events++
	now := h.clock(tid)
	l := h.locs[addr]
	if l == nil {
		l = &hbLoc{readVC: VC{}}
		h.locs[addr] = l
	}
	if l.writeVC != nil && l.writeBy != tid && !l.writeVC.LEq(now) {
		h.race(addr, tid, l.writeBy, "write-"+kind(write))
	}
	if write {
		for rt, rc := range l.readVC {
			if rt != tid && rc > now[rt] {
				h.race(addr, tid, rt, "read-write")
			}
		}
		l.writeVC = now.Copy()
		l.writeBy = tid
	}
	l.readVC[tid] = now[tid]
}

func kind(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func (h *HB) race(addr int64, a, b int, k string) {
	if h.races[addr] {
		return
	}
	h.races[addr] = true
	h.report = append(h.report, fmt.Sprintf("hb: %s race on 0x%x between threads %d and %d", k, addr, a, b))
}

// Acquire orders the thread after the last release of the lock.
func (h *HB) Acquire(tid int, lock int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := h.locks[lock]; c != nil {
		h.clock(tid).Join(c)
	}
}

// Release publishes the thread's clock into the lock.
func (h *HB) Release(tid int, lock int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.locks[lock] = h.clock(tid).Copy()
	h.tick(tid)
}

// Spawn orders the child after the parent.
func (h *HB) Spawn(parent, child int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pc := h.clock(parent)
	cc := h.clock(child)
	cc.Join(pc)
	h.tick(parent)
}

// Join orders the parent after the child.
func (h *HB) Join(parent, child int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock(parent).Join(h.clock(child))
	h.tick(parent)
}

// CondSignal publishes the signaller's clock into the condition variable.
func (h *HB) CondSignal(tid int, cv int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.conds[cv]
	if c == nil {
		c = VC{}
		h.conds[cv] = c
	}
	c.Join(h.clock(tid))
	h.tick(tid)
}

// CondWake orders the woken thread after the signal.
func (h *HB) CondWake(tid int, cv int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := h.conds[cv]; c != nil {
		h.clock(tid).Join(c)
	}
}

// ThreadEnd ticks the thread off.
func (h *HB) ThreadEnd(tid int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tick(tid)
}

// heapLock is the pseudo-lock modeling the allocator's internal
// synchronization: free happens-before a subsequent malloc of the block.
const heapLock = int64(-1)

// Malloc clears the recycled block's access history and orders the
// allocation after the free that recycled it. A location already reported
// stays reported, so each is reported at most once.
func (h *HB) Malloc(tid int, base, size int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := h.locks[heapLock]; c != nil {
		h.clock(tid).Join(c)
	}
	for a := base; a < base+size; a++ {
		delete(h.locs, a)
	}
}

// Free publishes the freeing thread's clock through the allocator lock.
func (h *HB) Free(tid int, base, size int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.locks[heapLock]
	if c == nil {
		c = VC{}
		h.locks[heapLock] = c
	}
	c.Join(h.clock(tid))
	h.tick(tid)
}

// Races returns the distinct race reports.
func (h *HB) Races() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.report))
	copy(out, h.report)
	sort.Strings(out)
	return out
}

// RaceCount returns the number of distinct racy locations.
func (h *HB) RaceCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.races)
}

// Events returns the number of accesses observed.
func (h *HB) Events() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.events
}
