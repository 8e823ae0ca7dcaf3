// Package telemetry is the runtime's observability spine: per-site atomic
// counters for every dynamic event the instrumented runtime performs
// (reader/writer-set checks, locked-mode checks, oneref checks, lock
// operations, elided checks, conflicts), an optional
// ring-buffered structured event tracer (trace.go), and the hot-site
// profile report (report.go).
//
// The layer has two tiers:
//
//   - Counters is the always-on global tier: a handful of atomic counters
//     the interpreter flushes per-thread tallies into. It replaces the old
//     mutex-guarded interp.Stats accumulation; interp.Stats is now a thin
//     view over it.
//
//   - Collector is the opt-in per-site tier: one cache-line of atomic
//     counters per static access site, keyed by the program's site index.
//     All Collector methods are nil-receiver safe, so the disabled path in
//     the interpreter is a single predictable nil comparison.
//
// Everything is safe for concurrent use from free-running goroutines; a
// Snapshot is taken after the program quiesces and is plain data.
package telemetry

import (
	"sync/atomic"

	"repro/internal/token"
)

// SiteInfo names one static access site for reports: the l-value text and
// source position the compiler interned.
type SiteInfo struct {
	LValue string
	Pos    token.Pos
}

// String renders the site the way conflict reports do: "lv @ file:line:col".
func (s SiteInfo) String() string {
	if s.LValue == "" && !s.Pos.IsValid() {
		return "?"
	}
	return s.LValue + " @ " + s.Pos.String()
}

// StoreMax atomically raises *a to v if v is larger (CAS max loop).
func StoreMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Counters is the always-on global counter spine. Every field is updated
// with atomic operations only; the interpreter keeps per-thread tallies for
// the hottest ones (accesses, checks, barriers) and flushes them here in
// the thread epilogue, so steady-state cost stays off the access path.
type Counters struct {
	TotalAccesses  atomic.Int64 // program loads+stores of non-stack cells
	DynamicChecks  atomic.Int64 // executed reader/writer-set checks
	LockChecks     atomic.Int64 // executed locked-mode checks
	ElidedChecks   atomic.Int64 // executions of statically elided check sites
	Barriers       atomic.Int64 // reference-counting write barriers
	LockAcquires   atomic.Int64
	LockReleases   atomic.Int64
	Spawns         atomic.Int64
	Conflicts      atomic.Int64 // dynamic-mode violations detected (pre-dedup)
	LockViolations atomic.Int64 // locked-mode violations detected (pre-dedup)
	OnerefFailures atomic.Int64 // failed sharing-cast oneref checks
	MaxThreads     atomic.Int64 // peak concurrently live threads
	MaxLocksHeld   atomic.Int64 // peak locks held by any one thread
}

// siteCounters is the per-site metric block. The thread masks record which
// threads issued reads/writes at the site (bit min(tid,63)), giving the
// profile report its thread-count column and the mode-suggestion heuristics
// their single-threaded / no-writers tests.
type siteCounters struct {
	reads          atomic.Int64 // executed dynamic read checks
	writes         atomic.Int64 // executed dynamic write checks
	locked         atomic.Int64 // executed locked-mode checks
	elided         atomic.Int64 // executions whose check was statically elided
	underLock      atomic.Int64 // dynamic checks issued while >=1 lock held
	conflicts      atomic.Int64 // dynamic-mode violations at this site
	lockViolations atomic.Int64 // locked-mode violations at this site
	scasts         atomic.Int64 // sharing casts whose slot check names this site
	onerefFails    atomic.Int64 // failed oneref checks among those casts
	readerMask     atomic.Uint64
	writerMask     atomic.Uint64
}

// Collector gathers per-site metrics for one program. The zero-site guard
// in every method makes out-of-range indices (and the -1 "no site" marker)
// silent no-ops, so callers never branch.
type Collector struct {
	info  []SiteInfo
	sites []siteCounters
}

// NewCollector returns a collector for a program whose static access sites
// are info (indexed by the IR's site numbers).
func NewCollector(info []SiteInfo) *Collector {
	return &Collector{info: info, sites: make([]siteCounters, len(info))}
}

// Enabled reports whether the collector is live (nil-safe).
func (c *Collector) Enabled() bool { return c != nil }

func (c *Collector) site(i int) *siteCounters {
	if c == nil || i < 0 || i >= len(c.sites) {
		return nil
	}
	return &c.sites[i]
}

func tidBit(tid int) uint64 {
	if tid < 0 {
		tid = 0
	}
	if tid > 63 {
		tid = 63
	}
	return 1 << uint(tid)
}

// orMask sets bit tid in m if it is not already set (load-test first: the
// common case is a repeat access by the same thread, which stays read-only).
func orMask(m *atomic.Uint64, tid int) {
	bit := tidBit(tid)
	for {
		v := m.Load()
		if v&bit != 0 || m.CompareAndSwap(v, v|bit) {
			return
		}
	}
}

// DynamicCheck records one executed reader/writer-set check.
func (c *Collector) DynamicCheck(tid, site int, write, underLock, conflict bool) {
	s := c.site(site)
	if s == nil {
		return
	}
	if write {
		s.writes.Add(1)
		orMask(&s.writerMask, tid)
	} else {
		s.reads.Add(1)
		orMask(&s.readerMask, tid)
	}
	if underLock {
		s.underLock.Add(1)
	}
	if conflict {
		s.conflicts.Add(1)
	}
}

// LockedCheck records one executed locked-mode check.
func (c *Collector) LockedCheck(tid, site int, violated bool) {
	s := c.site(site)
	if s == nil {
		return
	}
	s.locked.Add(1)
	orMask(&s.writerMask, tid) // locked mode admits writes; count the thread
	if violated {
		s.lockViolations.Add(1)
	}
}

// ElidedCheck records the execution of an access whose check static
// discharge removed (the site survives as ir.CheckElided).
func (c *Collector) ElidedCheck(tid, site int) {
	if s := c.site(site); s != nil {
		s.elided.Add(1)
		orMask(&s.readerMask, tid)
	}
}

// Scast records a sharing cast whose source-slot check names the site.
func (c *Collector) Scast(tid, site int, failed bool) {
	s := c.site(site)
	if s == nil {
		return
	}
	s.scasts.Add(1)
	if failed {
		s.onerefFails.Add(1)
	}
}

// ---------------------------------------------------------------------------
// snapshots

// GlobalStats is the plain-data copy of the global tier, filled by the
// interpreter from Counters plus the runtime's own gauges (pages,
// collections).
type GlobalStats struct {
	TotalAccesses  int64 `json:"total_accesses"`
	DynamicChecks  int64 `json:"dynamic_checks"`
	LockChecks     int64 `json:"lock_checks"`
	ElidedChecks   int64 `json:"elided_checks"`
	Barriers       int64 `json:"rc_barriers"`
	Collections    int64 `json:"rc_collections"`
	RCLoggedSlots  int64 `json:"rc_logged_slots"`
	LockAcquires   int64 `json:"lock_acquires"`
	LockReleases   int64 `json:"lock_releases"`
	Spawns         int64 `json:"spawns"`
	Conflicts      int64 `json:"conflicts"`
	LockViolations int64 `json:"lock_violations"`
	OnerefFailures int64 `json:"oneref_failures"`
	MaxThreads     int64 `json:"max_threads"`
	MaxLocksHeld   int64 `json:"max_locks_held"`
	ShadowPages    int   `json:"shadow_pages"`
	HeapPages      int   `json:"heap_pages"`
}

// SiteStats is one site's metrics in a snapshot.
type SiteStats struct {
	Site           int    `json:"site"`
	LValue         string `json:"lvalue"`
	Pos            string `json:"pos"`
	Reads          int64  `json:"reads"`
	Writes         int64  `json:"writes"`
	Locked         int64  `json:"locked"`
	Elided         int64  `json:"elided"`
	UnderLock      int64  `json:"under_lock"`
	Conflicts      int64  `json:"conflicts"`
	LockViolations int64  `json:"lock_violations"`
	Scasts         int64  `json:"scasts"`
	OnerefFails    int64  `json:"oneref_fails"`
	ReadThreads    int    `json:"read_threads"`
	WriteThreads   int    `json:"write_threads"`
	Suggested      string `json:"suggested_mode"`

	// bothThreads counts threads present in both masks, so Threads() can
	// report distinct threads without double counting reader-writers.
	bothThreads int
}

// Checks returns the number of checks executed at the site.
func (s *SiteStats) Checks() int64 { return s.Reads + s.Writes + s.Locked + s.Scasts }

// Activity ranks sites: executed checks plus statically avoided executions.
func (s *SiteStats) Activity() int64 { return s.Checks() + s.Elided }

// Violations returns all violation events observed at the site.
func (s *SiteStats) Violations() int64 { return s.Conflicts + s.LockViolations + s.OnerefFails }

// Threads returns the number of distinct threads that touched the site.
func (s *SiteStats) Threads() int { return s.ReadThreads + s.WriteThreads - s.bothThreads }

// AvoidedPct is the fraction of would-be checks static discharge removed:
// elided executions over executed plus elided ones.
func (s *SiteStats) AvoidedPct() float64 {
	total := s.Checks() + s.Elided
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Elided) / float64(total)
}

// ModeStats is the per-sharing-mode rollup of a snapshot.
type ModeStats struct {
	Mode       string `json:"mode"`
	Sites      int    `json:"sites"`
	Checks     int64  `json:"checks"`
	Elided     int64  `json:"elided"`
	Violations int64  `json:"violations"`
}

// Snapshot is the quiesced view of a run's telemetry: global counters,
// active sites ranked hottest-first, and per-mode rollups.
type Snapshot struct {
	Global GlobalStats `json:"global"`
	Sites  []SiteStats `json:"sites"`
	Modes  []ModeStats `json:"modes"`
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Snapshot freezes the collector into plain data. Call it only after the
// program has quiesced. Returns nil on a nil collector.
func (c *Collector) Snapshot(g GlobalStats) *Snapshot {
	if c == nil {
		return nil
	}
	snap := &Snapshot{Global: g}
	var dyn, lck, one ModeStats
	dyn.Mode, lck.Mode, one.Mode = "dynamic", "locked", "oneref"
	for i := range c.sites {
		sc := &c.sites[i]
		rm, wm := sc.readerMask.Load(), sc.writerMask.Load()
		ss := SiteStats{
			Site:           i,
			LValue:         c.info[i].LValue,
			Pos:            c.info[i].Pos.String(),
			Reads:          sc.reads.Load(),
			Writes:         sc.writes.Load(),
			Locked:         sc.locked.Load(),
			Elided:         sc.elided.Load(),
			UnderLock:      sc.underLock.Load(),
			Conflicts:      sc.conflicts.Load(),
			LockViolations: sc.lockViolations.Load(),
			Scasts:         sc.scasts.Load(),
			OnerefFails:    sc.onerefFails.Load(),
			ReadThreads:    popcount(rm),
			WriteThreads:   popcount(wm),
			bothThreads:    popcount(rm & wm),
		}
		if ss.Activity() == 0 && ss.Violations() == 0 {
			continue
		}
		ss.Suggested = suggestMode(&ss)
		if ss.Reads+ss.Writes+ss.Elided > 0 {
			dyn.Sites++
			dyn.Checks += ss.Reads + ss.Writes
			dyn.Elided += ss.Elided
			dyn.Violations += ss.Conflicts
		}
		if ss.Locked > 0 {
			lck.Sites++
			lck.Checks += ss.Locked
			lck.Violations += ss.LockViolations
		}
		if ss.Scasts > 0 {
			one.Sites++
			one.Checks += ss.Scasts
			one.Violations += ss.OnerefFails
		}
		snap.Sites = append(snap.Sites, ss)
	}
	// Hottest first; site index breaks ties, so the order is deterministic.
	sortSites(snap.Sites)
	for _, m := range []ModeStats{dyn, lck, one} {
		if m.Sites > 0 {
			snap.Modes = append(snap.Modes, m)
		}
	}
	return snap
}

// sortSites orders sites by activity descending, then site index ascending.
func sortSites(ss []SiteStats) {
	// Insertion sort keeps this dependency-free; site counts are small.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0; j-- {
			a, b := &ss[j-1], &ss[j]
			if a.Activity() > b.Activity() ||
				(a.Activity() == b.Activity() && a.Site < b.Site) {
				break
			}
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
}
