package telemetry

// Deterministic merges for the multi-worker explorer: every worker owns a
// fully instance-scoped collector, counter spine, and tracer, and the
// merge stage folds them into the single snapshot and event stream the
// sequential explorer used to produce. Merge semantics are chosen so the
// result is a pure function of the per-schedule contributions, independent
// of worker count and completion order:
//
//   - event counters (checks, barriers, lock ops, ...) sum;
//   - high-water gauges (peak threads, peak locks held, pages touched)
//     take the maximum, i.e. the largest single-run footprint;
//   - per-site counters sum and thread masks OR;
//   - trace events are re-sequenced by (schedule, within-schedule order).

import (
	"sort"
	"sync/atomic"
)

// Merge folds src's counters into c: sums for event counters, max for the
// high-water gauges.
func (c *Counters) Merge(src *Counters) {
	if c == nil || src == nil {
		return
	}
	c.TotalAccesses.Add(src.TotalAccesses.Load())
	c.DynamicChecks.Add(src.DynamicChecks.Load())
	c.LockChecks.Add(src.LockChecks.Load())
	c.ElidedChecks.Add(src.ElidedChecks.Load())
	c.Barriers.Add(src.Barriers.Load())
	c.LockAcquires.Add(src.LockAcquires.Load())
	c.LockReleases.Add(src.LockReleases.Load())
	c.Spawns.Add(src.Spawns.Load())
	c.Conflicts.Add(src.Conflicts.Load())
	c.LockViolations.Add(src.LockViolations.Load())
	c.OnerefFailures.Add(src.OnerefFailures.Load())
	StoreMax(&c.MaxThreads, src.MaxThreads.Load())
	StoreMax(&c.MaxLocksHeld, src.MaxLocksHeld.Load())
}

// Merge folds src's per-site counters into c. Both collectors must have
// been built over the same site table (the same program); extra sites in
// either are ignored. Thread masks OR, everything else sums.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil {
		return
	}
	n := len(c.sites)
	if len(src.sites) < n {
		n = len(src.sites)
	}
	for i := 0; i < n; i++ {
		d, s := &c.sites[i], &src.sites[i]
		d.reads.Add(s.reads.Load())
		d.writes.Add(s.writes.Load())
		d.locked.Add(s.locked.Load())
		d.elided.Add(s.elided.Load())
		d.underLock.Add(s.underLock.Load())
		d.conflicts.Add(s.conflicts.Load())
		d.lockViolations.Add(s.lockViolations.Load())
		d.scasts.Add(s.scasts.Load())
		d.onerefFails.Add(s.onerefFails.Load())
		orBits(&d.readerMask, s.readerMask.Load())
		orBits(&d.writerMask, s.writerMask.Load())
	}
}

// orBits ORs a whole mask into m (CAS loop; merge-time only).
func orBits(m *atomic.Uint64, bits uint64) {
	for {
		v := m.Load()
		if v|bits == v || m.CompareAndSwap(v, v|bits) {
			return
		}
	}
}

// MergeGlobalStats folds the per-worker global tiers into one:
// event-counter fields sum, footprint and high-water fields take the max.
func MergeGlobalStats(parts ...GlobalStats) GlobalStats {
	var g GlobalStats
	max := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	maxi := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	for _, p := range parts {
		g.TotalAccesses += p.TotalAccesses
		g.DynamicChecks += p.DynamicChecks
		g.LockChecks += p.LockChecks
		g.ElidedChecks += p.ElidedChecks
		g.Barriers += p.Barriers
		g.Collections += p.Collections
		g.RCLoggedSlots += p.RCLoggedSlots
		g.LockAcquires += p.LockAcquires
		g.LockReleases += p.LockReleases
		g.Spawns += p.Spawns
		g.Conflicts += p.Conflicts
		g.LockViolations += p.LockViolations
		g.OnerefFailures += p.OnerefFailures
		g.MaxThreads = max(g.MaxThreads, p.MaxThreads)
		g.MaxLocksHeld = max(g.MaxLocksHeld, p.MaxLocksHeld)
		g.ShadowPages = maxi(g.ShadowPages, p.ShadowPages)
		g.HeapPages = maxi(g.HeapPages, p.HeapPages)
	}
	return g
}

// MergeTracers folds per-worker event tracers into one frozen tracer whose
// retained window is byte-identical to what a single sequential tracer of
// the same capacity would have kept — provided each part's events were
// appended in ascending schedule order (the explorer workers' contract).
//
// Events are ordered by (schedule, per-part sequence) — a schedule's
// events all live in one part, so the pair totally orders the stream —
// then the last `capacity` events are retained and re-sequenced as one
// global emission order. The merged total is the sum of the parts' totals,
// so Dropped accounts for both per-part ring overwrites and merge-stage
// truncation.
func MergeTracers(capacity int, info []SiteInfo, parts ...*Tracer) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	var all []Event
	var total uint64
	for _, p := range parts {
		if p == nil {
			continue
		}
		all = append(all, p.Events()...)
		total += p.Total()
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Sched != all[j].Sched {
			return all[i].Sched < all[j].Sched
		}
		return all[i].Seq < all[j].Seq
	})
	if len(all) > capacity {
		all = all[len(all)-capacity:]
	}
	base := total - uint64(len(all))
	for i := range all {
		all[i].Seq = base + uint64(i)
	}
	return &Tracer{events: all, total: total, info: info, frozen: true}
}
