package interp

// Telemetry adapters: the glue between the runtime's substrates and
// internal/telemetry. The per-site collector and the tracer are off by
// default; when disabled, the per-event cost in the interpreter is a
// single nil comparison (benchmarked in telemetry_test.go).

import (
	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// siteInfos converts the program's site table into telemetry's form.
func siteInfos(prog *ir.Program) []telemetry.SiteInfo {
	info := make([]telemetry.SiteInfo, len(prog.Sites))
	for i, s := range prog.Sites {
		info[i] = telemetry.SiteInfo{LValue: s.LValue, Pos: s.Pos}
	}
	return info
}

// schedObs forwards scheduler decisions and blocking edges into the
// tracer. Only the running thread or the controller's driver calls it,
// and it must not call back into the scheduler; it only stamps the tracer.
type schedObs struct{ rt *Runtime }

func (o schedObs) Decision(step int64, chosen int, p sched.Point) {
	o.rt.tracer.SetStep(step + 1) // events after decision k run in slot k+1
	o.rt.tracer.Append(telemetry.KindSchedDecision, o.rt.tidOfKey(chosen), -1, 0, int64(p))
}

func (o schedObs) Block(key int, p sched.Point) {
	o.rt.tracer.Append(telemetry.KindSchedBlock, o.rt.tidOfKey(key), -1, 0, int64(p))
}

// bindKey records the scheduler key -> thread id mapping (registration
// order makes it available before the task's first decision).
func (rt *Runtime) bindKey(key, tid int) {
	if rt.tracer != nil {
		rt.skeyTids.Store(key, tid)
	}
}

func (rt *Runtime) tidOfKey(key int) int {
	if v, ok := rt.skeyTids.Load(key); ok {
		return v.(int)
	}
	return 0
}

// Counters exposes the always-on global counter spine.
func (rt *Runtime) Counters() *telemetry.Counters { return rt.counters }

// Collector exposes the per-site metrics collector (nil unless the run was
// configured with Config.Metrics or a shared collector). The serve layer
// folds finished requests' collectors into per-program aggregates with
// telemetry.Collector.Merge; call after Run.
func (rt *Runtime) Collector() *telemetry.Collector { return rt.tel }

// GlobalStats assembles this run's global counter tier in telemetry's
// canonical merge form (the shape MergeGlobalStats folds). Call after Run.
func (rt *Runtime) GlobalStats() telemetry.GlobalStats { return rt.globalStats() }

// Tracer returns the structured event tracer, or nil when tracing is off.
func (rt *Runtime) Tracer() *telemetry.Tracer { return rt.tracer }

// Decisions returns how many scheduling decisions the cooperative
// controller made, or -1 on a free-running run (no controller, nothing to
// count). Call after Run.
func (rt *Runtime) Decisions() int64 {
	if rt.ctl == nil {
		return -1
	}
	return rt.ctl.Decisions()
}

// globalStats assembles the snapshot's global tier from the spine and the
// runtime's own gauges.
func (rt *Runtime) globalStats() telemetry.GlobalStats {
	c := rt.counters
	s := rt.Stats()
	g := telemetry.GlobalStats{
		TotalAccesses:  s.TotalAccesses,
		DynamicChecks:  s.DynamicAccesses,
		LockChecks:     s.LockChecks,
		ElidedChecks:   c.ElidedChecks.Load(),
		Barriers:       s.Barriers,
		Collections:    s.Collections,
		LockAcquires:   c.LockAcquires.Load(),
		LockReleases:   c.LockReleases.Load(),
		Spawns:         c.Spawns.Load(),
		Conflicts:      c.Conflicts.Load(),
		LockViolations: c.LockViolations.Load(),
		OnerefFailures: c.OnerefFailures.Load(),
		MaxThreads:     int64(s.MaxThreads),
		MaxLocksHeld:   c.MaxLocksHeld.Load(),
		ShadowPages:    s.ShadowPages,
		HeapPages:      s.HeapPages,
	}
	if rt.rc != nil {
		g.RCLoggedSlots = rt.rc.LoggedSlots()
	}
	return g
}

// TelemetrySnapshot freezes the per-site metrics; nil unless the run was
// configured with Config.Metrics (or a shared collector). Call after Run.
func (rt *Runtime) TelemetrySnapshot() *telemetry.Snapshot {
	if rt.tel == nil {
		return nil
	}
	return rt.tel.Snapshot(rt.globalStats())
}
