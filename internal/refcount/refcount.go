// Package refcount maintains reference counts for heap objects so sharing
// casts can verify their source is the sole reference (the oneref check of
// §2/§3, Figure 7).
//
// Two managers are provided:
//
//   - LP adapts Levanoni and Petrank's concurrent reference-counting
//     algorithm as §4.3 describes: each mutator keeps a private,
//     unsynchronized log of first-per-epoch reference updates (guarded by
//     per-slot dirty bits), there are two generations of logs and dirty
//     bits, and any thread may act as the collector — one at a time — by
//     flipping the epoch, waiting for in-flight barriers to drain, and
//     processing the retired logs (decrement overwritten values, increment
//     current values, consulting the live generation's logged value when a
//     slot has already been re-dirtied).
//
//   - Naive performs an atomic increment/decrement per pointer write, the
//     scheme the paper measured at over 60% overhead and replaced.
//
// Counts are per heap object; an object resolver maps an interior pointer
// to its object base (0 for non-heap values, which are ignored — legacy
// programs store integers in pointers).
package refcount

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/paged"
)

// Resolver maps a pointer value (cell address) to the base address of the
// heap object containing it, or 0 when the value does not point into the
// heap.
type Resolver func(ptr int64) int64

// Manager is the write-barrier and oneref interface shared by the LP and
// naive schemes.
type Manager interface {
	// Barrier records that the pointer slot at address slot, which held
	// old, is being overwritten with new (both possibly 0/NULL). tid is the
	// acting thread, 1-based.
	Barrier(tid int, slot, old, newv int64)
	// Count returns the current number of references to the object with the
	// given base address, collecting first if the scheme is deferred.
	Count(tid int, obj int64) int64
	// CurrentCount reads the count as of the last collection, without
	// collecting — used by the allocator to decide whether a freed block's
	// references have drained (deferred reuse, Heapsafe-style).
	CurrentCount(obj int64) int64
	// Collections reports how many collection cycles have run (LP only).
	Collections() int64
	// LoggedSlots reports how many slot entries collections have processed
	// (LP) or how many barriers ran (naive) — the telemetry gauge for how
	// much work the reference-counting substrate did.
	LoggedSlots() int64
}

// MaxThreads mirrors the shadow limit so thread ids can index per-thread
// state directly.
const MaxThreads = 31

// ---------------------------------------------------------------------------
// Levanoni–Petrank adaptation

// LP is the deferred, log-based manager.
type LP struct {
	resolve Resolver

	epoch atomic.Uint32 // low bit selects the live generation

	// dirty[e] is a bitmap with one bit per memory cell; loggedOld[e] holds,
	// per slot, the value the slot held before its first update in epoch e.
	// The logged value is stored before the dirty bit is set, so any
	// observer that sees the bit also sees the value. Both are
	// demand-paged: programs touch a small fraction of the address space,
	// and eager full-memory arrays dominate startup cost.
	dirty     [2]paged.Bits
	loggedOld [2]paged.Int64s
	cells     int

	// logs[e][tid] lists the slots thread tid dirtied in epoch e.
	logs [2][MaxThreads + 1][]int64

	// seq[tid] is even when the thread is outside a barrier; the collector
	// waits for all threads to be outside before processing retired logs.
	seq [MaxThreads + 1]atomic.Uint64

	counts      sync.Map // obj base -> *atomic.Int64
	collectorMu sync.Mutex
	collections atomic.Int64
	logged      atomic.Int64 // slot entries processed across collections

	// mem gives the collector access to current slot contents; attach with
	// SetMemory before any Collect.
	mem Memory
}

// NewLP returns an LP manager covering cells of memory.
func NewLP(cells int, resolve Resolver) *LP {
	lp := &LP{resolve: resolve, cells: cells}
	for e := 0; e < 2; e++ {
		lp.dirty[e] = paged.NewBits(int64(cells))
		lp.loggedOld[e] = paged.NewInt64s(int64(cells))
	}
	return lp
}

// Barrier implements the mutator write barrier: on the first update of a
// slot in the current epoch, record the overwritten value and append the
// slot to the thread's log. Subsequent updates of the same slot in the same
// epoch are free.
func (lp *LP) Barrier(tid int, slot, old, _ int64) {
	if slot < 0 || slot >= int64(lp.cells) {
		return
	}
	lp.seq[tid].Add(1) // odd: in barrier
	e := int(lp.epoch.Load() & 1)
	if !lp.dirty[e].Test(slot) {
		// Store the old value before publishing the dirty bit.
		lp.loggedOld[e].Store(slot, old)
		if lp.dirty[e].Set(slot) {
			lp.logs[e][tid] = append(lp.logs[e][tid], slot)
		}
	}
	lp.seq[tid].Add(1) // even: out
}

func (lp *LP) countCell(obj int64) *atomic.Int64 {
	if c, ok := lp.counts.Load(obj); ok {
		return c.(*atomic.Int64)
	}
	c, _ := lp.counts.LoadOrStore(obj, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Memory gives the collector access to current slot contents.
type Memory interface {
	LoadCell(addr int64) int64
}

// SetMemory attaches the memory; must be called before any Collect.
func (lp *LP) SetMemory(m Memory) { lp.mem = m }

// Collect runs one collection cycle: flip the epoch, drain in-flight
// barriers, process the retired generation's logs. Any thread may call it;
// only one acts as collector at a time.
func (lp *LP) Collect(tid int) {
	lp.collectorMu.Lock()
	defer lp.collectorMu.Unlock()

	oldE := int(lp.epoch.Load() & 1)
	newE := 1 - oldE
	lp.epoch.Store(uint32(newE))

	// Wait for every thread to be outside a barrier: any barrier that
	// started before the flip has finished appending to the retired logs.
	for t := 1; t <= MaxThreads; t++ {
		for lp.seq[t].Load()&1 != 0 {
			runtime.Gosched()
		}
	}

	for t := 0; t <= MaxThreads; t++ {
		log := lp.logs[oldE][t]
		lp.logs[oldE][t] = log[:0]
		lp.logged.Add(int64(len(log)))
		for _, slot := range log {
			old := lp.loggedOld[oldE].Load(slot)
			if obj := lp.resolve(old); obj != 0 {
				lp.countCell(obj).Add(-1)
			}
			// The slot's value at the end of the retired epoch: read the
			// current contents, then prefer the live generation's logged
			// value if the slot has been re-dirtied (the re-dirtier saw the
			// end-of-epoch value and logged it).
			cur := lp.mem.LoadCell(slot)
			if lp.dirty[newE].Test(slot) {
				cur = lp.loggedOld[newE].Load(slot)
			}
			if obj := lp.resolve(cur); obj != 0 {
				lp.countCell(obj).Add(1)
			}
			lp.dirty[oldE].Clear(slot)
		}
	}
	lp.collections.Add(1)
}

// Count collects and returns the reference count of obj.
func (lp *LP) Count(tid int, obj int64) int64 {
	lp.Collect(tid)
	return lp.CurrentCount(obj)
}

// CurrentCount returns obj's count as of the last collection.
func (lp *LP) CurrentCount(obj int64) int64 {
	if c, ok := lp.counts.Load(obj); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Collections returns the number of collection cycles run.
func (lp *LP) Collections() int64 { return lp.collections.Load() }

// LoggedSlots returns the slot entries processed across all collections.
func (lp *LP) LoggedSlots() int64 { return lp.logged.Load() }

// ---------------------------------------------------------------------------
// Naive atomic scheme (ablation baseline)

// Naive increments and decrements counts on every pointer write.
type Naive struct {
	resolve  Resolver
	counts   sync.Map // obj -> *atomic.Int64
	barriers atomic.Int64
}

// NewNaive returns a naive manager.
func NewNaive(resolve Resolver) *Naive {
	return &Naive{resolve: resolve}
}

func (n *Naive) cell(obj int64) *atomic.Int64 {
	if c, ok := n.counts.Load(obj); ok {
		return c.(*atomic.Int64)
	}
	c, _ := n.counts.LoadOrStore(obj, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Barrier adjusts counts immediately with atomic operations.
func (n *Naive) Barrier(_ int, _, old, newv int64) {
	n.barriers.Add(1)
	if obj := n.resolve(old); obj != 0 {
		n.cell(obj).Add(-1)
	}
	if obj := n.resolve(newv); obj != 0 {
		n.cell(obj).Add(1)
	}
}

// Count returns the exact current count.
func (n *Naive) Count(_ int, obj int64) int64 {
	return n.CurrentCount(obj)
}

// CurrentCount returns the exact current count (the naive scheme is never
// deferred).
func (n *Naive) CurrentCount(obj int64) int64 {
	if c, ok := n.counts.Load(obj); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Collections is always zero for the naive scheme.
func (n *Naive) Collections() int64 { return 0 }

// LoggedSlots counts barriers for the naive scheme: every pointer write
// is processed eagerly, so the barrier count is the analogous work gauge.
func (n *Naive) LoggedSlots() int64 { return n.barriers.Load() }
