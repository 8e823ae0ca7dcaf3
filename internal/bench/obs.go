package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// ObsRow measures the telemetry layer's overhead on one Table-1 benchmark.
// The checked build runs in three tiers: telemetry off (the default — per
// check the layer costs one nil comparison), with the per-site metrics
// collector, and with metrics plus the event tracer. The baseline column
// is an independent best-of-reps sample of the identical telemetry-off
// configuration: the off-vs-baseline delta is the measurement noise floor,
// and the off tier staying inside it is the "disabled path is free" claim.
type ObsRow struct {
	Name string `json:"name"`

	TimeBaseline time.Duration `json:"time_baseline_ns"`
	TimeOff      time.Duration `json:"time_telemetry_off_ns"`
	TimeMetrics  time.Duration `json:"time_metrics_ns"`
	TimeTrace    time.Duration `json:"time_metrics_trace_ns"`

	// Overheads versus the baseline sample, in percent.
	OverheadOffPct     float64 `json:"overhead_telemetry_off_pct"`
	OverheadMetricsPct float64 `json:"overhead_metrics_pct"`
	OverheadTracePct   float64 `json:"overhead_metrics_trace_pct"`

	// What the enabled tiers observed.
	Checks       int64  `json:"checks"`
	HotSites     int    `json:"hot_sites"`
	TraceEvents  uint64 `json:"trace_events"`
	TraceDropped uint64 `json:"trace_dropped"`
	HotSite      string `json:"hot_site,omitempty"`
	HotSuggested string `json:"hot_suggested,omitempty"`

	// StaticDischarge records whether the vet discharge pass was part of
	// the measured configuration.
	StaticDischarge bool `json:"static_discharge"`
}

// runObsOnce executes prog with the given telemetry tier.
func runObsOnce(prog *ir.Program, metrics bool, traceCap int) (*interp.Runtime, time.Duration, error) {
	cfg := interp.DefaultConfig()
	cfg.Metrics = metrics
	cfg.TraceCapacity = traceCap
	rt := interp.New(prog, cfg)
	start := time.Now()
	_, err := rt.Run()
	return rt, time.Since(start), err
}

// RunObs measures one benchmark across the telemetry tiers.
func RunObs(b *Benchmark, s Scale, reps int) (ObsRow, error) {
	src := b.Source(s)
	row := ObsRow{Name: b.Name}

	prog, err := build(src, compile.DefaultOptions())
	if err != nil {
		return row, fmt.Errorf("%s (checked build): %w", b.Name, err)
	}

	// Time the four tiers with their repetitions interleaved round-robin,
	// not tier after tier: on a noisy host, drift during a sequential sweep
	// reads as systematic overhead on whichever tier ran last. Keeping the
	// best (minimum) per tier across interleaved reps exposes each tier to
	// the same drift.
	tiers := []struct {
		out      *time.Duration
		metrics  bool
		traceCap int
	}{
		{&row.TimeBaseline, false, 0},
		{&row.TimeOff, false, 0},
		{&row.TimeMetrics, true, 0},
		{&row.TimeTrace, true, telemetry.DefaultTraceCapacity},
	}
	for rep := 0; rep < reps; rep++ {
		for _, tier := range tiers {
			_, d, err := runObsOnce(prog, tier.metrics, tier.traceCap)
			if err != nil {
				return row, fmt.Errorf("%s: %w", b.Name, err)
			}
			if rep == 0 || d < *tier.out {
				*tier.out = d
			}
		}
	}
	if row.TimeBaseline > 0 {
		base := float64(row.TimeBaseline)
		row.OverheadOffPct = 100 * float64(row.TimeOff-row.TimeBaseline) / base
		row.OverheadMetricsPct = 100 * float64(row.TimeMetrics-row.TimeBaseline) / base
		row.OverheadTracePct = 100 * float64(row.TimeTrace-row.TimeBaseline) / base
	}

	// One instrumented run for the observation columns.
	rt, _, err := runObsOnce(prog, true, telemetry.DefaultTraceCapacity)
	if err != nil {
		return row, fmt.Errorf("%s (metrics run): %w", b.Name, err)
	}
	snap := rt.TelemetrySnapshot()
	if snap != nil {
		row.Checks = snap.Global.DynamicChecks + snap.Global.LockChecks
		row.HotSites = len(snap.Sites)
		if len(snap.Sites) > 0 {
			hot := &snap.Sites[0]
			row.HotSite = fmt.Sprintf("%s @ %s", hot.LValue, hot.Pos)
			row.HotSuggested = hot.Suggested
		}
	}
	if tr := rt.Tracer(); tr != nil {
		row.TraceEvents = tr.Total()
		row.TraceDropped = tr.Dropped()
	}
	// Exporting must also work on the bench corpus; the bytes go nowhere.
	if tr := rt.Tracer(); tr != nil {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			return row, fmt.Errorf("%s (jsonl export): %w", b.Name, err)
		}
		if err := tr.WriteChrome(io.Discard); err != nil {
			return row, fmt.Errorf("%s (chrome export): %w", b.Name, err)
		}
	}
	return row, nil
}

// ObsTable measures every Table-1 benchmark across the telemetry tiers.
func ObsTable(s Scale, reps int) ([]ObsRow, error) {
	var rows []ObsRow
	for i := range Benchmarks {
		r, err := RunObs(&Benchmarks[i], s, reps)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// FormatObs renders the telemetry-overhead table.
func FormatObs(rows []ObsRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %9s %8s %9s %8s %9s %8s %8s %s\n",
		"Name", "Base", "Off%", "Metrics%", "Trace%",
		"Checks", "Sites", "Events", "HotSite")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %9s %7.1f%% %8.1f%% %7.1f%% %9d %8d %8d %s\n",
			r.Name, r.TimeBaseline.Round(time.Millisecond),
			r.OverheadOffPct, r.OverheadMetricsPct, r.OverheadTracePct,
			r.Checks, r.HotSites, r.TraceEvents, r.HotSite)
	}
	return sb.String()
}

// ObsJSON renders rows machine-readably for BENCH_obs.json.
func ObsJSON(rows []ObsRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
