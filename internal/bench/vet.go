package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/absint"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/vet"
)

// VetRow measures static check discharge on one Table-1 benchmark: the
// elide-only build against elide + vet discharge. Match is the soundness
// cross-check — the discharged build reproduced the elide-only build's
// exit value and reports.
type VetRow struct {
	Name string `json:"name"`

	MustFindings int `json:"must_findings"`
	MayFindings  int `json:"may_findings"`

	// Check-site accounting from the discharged build. Discharged sites
	// never reach the elision pass, so elided+discharged over
	// total+discharged is the full statically-avoided fraction.
	TotalDynamic      int `json:"total_dynamic_checks"`
	TotalLocked       int `json:"total_locked_checks"`
	ElidedDynamic     int `json:"elided_dynamic_checks"`
	ElidedLocked      int `json:"elided_locked_checks"`
	DischargedDynamic int `json:"discharged_dynamic_checks"`
	DischargedLocked  int `json:"discharged_locked_checks"`
	// DischargedAbsint is the subset of discharged dynamic sites proven by
	// the abstract-interpretation tier (disjoint from DischargedDynamic).
	DischargedAbsint int `json:"discharged_absint_checks"`

	// AvoidedFracElide is the elide-only build's statically-removed check
	// fraction; AvoidedFracDischarge adds vet discharge on top.
	AvoidedFracElide     float64 `json:"avoided_frac_elide"`
	AvoidedFracDischarge float64 `json:"avoided_frac_elide_discharge"`

	TimeElideVM     time.Duration `json:"time_elide_vm_ns"`
	TimeDischargeVM time.Duration `json:"time_discharge_vm_ns"`

	// SpeedupVM is elide-only time over discharged time (>1 = discharge
	// made the run faster).
	SpeedupVM float64 `json:"speedup_vm"`

	// Match: the discharged run produced exactly the elide-only run's exit
	// value and reports.
	Match bool  `json:"match"`
	Exit  int64 `json:"exit"`

	// StaticDischarge records the configuration that produced the timing
	// and accounting columns, for artifact provenance.
	StaticDischarge bool `json:"static_discharge"`
}

// RunVet measures one benchmark across the discharge comparison.
func RunVet(b *Benchmark, s Scale, reps int) (VetRow, error) {
	src := b.Source(s)
	row := VetRow{Name: b.Name, StaticDischarge: true}

	a, err := core.Analyze(parser.Source{Name: "program.shc", Text: src})
	if err != nil {
		return row, fmt.Errorf("%s (analyze): %w", b.Name, err)
	}
	rep := vet.Analyze(a.World, a.Inf)
	for _, f := range rep.Findings {
		if f.Severity == "must" {
			row.MustFindings++
		} else {
			row.MayFindings++
		}
	}

	progElide, err := a.Build(elideOptions())
	if err != nil {
		return row, fmt.Errorf("%s (elide build): %w", b.Name, err)
	}
	dopts := elideOptions()
	dopts.Discharge = rep.Discharge()
	progDisch, err := a.Build(dopts)
	if err != nil {
		return row, fmt.Errorf("%s (discharge build): %w", b.Name, err)
	}

	el := progElide.Elision
	row.AvoidedFracElide = el.AvoidedFraction()
	ds := progDisch.Elision
	row.TotalDynamic = ds.TotalDynamic
	row.TotalLocked = ds.TotalLocked
	row.ElidedDynamic = ds.ElidedDynamic
	row.ElidedLocked = ds.ElidedLocked
	row.DischargedDynamic = ds.DischargedDynamic
	row.DischargedLocked = ds.DischargedLocked
	row.DischargedAbsint = ds.DischargedAbsint
	row.AvoidedFracDischarge = ds.AvoidedFraction()

	// Soundness cross-check before timing.
	rtE, retE, _, err := runOnce(progElide, nil)
	if err != nil {
		return row, fmt.Errorf("%s (elide): %w", b.Name, err)
	}
	rtD, retD, _, err := runOnce(progDisch, nil)
	if err != nil {
		return row, fmt.Errorf("%s (discharge): %w", b.Name, err)
	}
	row.Exit = retD
	row.Match = retE == retD && reportsEqual(rtE.Reports(), rtD.Reports())

	// Timing: the cross-check runs above are the untimed warmup; interleave
	// the configurations so host drift hits both columns equally, and take
	// the median rep. The median is robust against the occasional
	// descheduling spike that made early BENCH_vet.json speedups jitter
	// across regenerations.
	var ev, dv []time.Duration
	for rep := 0; rep < reps; rep++ {
		dEV, err := timeOnce(progElide)
		if err != nil {
			return row, err
		}
		dDV, err := timeOnce(progDisch)
		if err != nil {
			return row, err
		}
		ev, dv = append(ev, dEV), append(dv, dDV)
	}
	row.TimeElideVM = medianDuration(ev)
	row.TimeDischargeVM = medianDuration(dv)
	if row.TimeDischargeVM > 0 {
		row.SpeedupVM = float64(row.TimeElideVM) / float64(row.TimeDischargeVM)
	}
	return row, nil
}

// timeOnce executes prog and returns only the wall time.
func timeOnce(prog *ir.Program) (time.Duration, error) {
	_, _, d, err := runOnce(prog, nil)
	return d, err
}

// medianDuration returns the median of ds (the lower middle for even
// counts); 0 for an empty slice.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// FormatVet renders the discharge comparison as an aligned table.
func FormatVet(rows []VetRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %5s %5s %10s %10s %8s %6s %5s\n",
		"name", "must", "may", "avoid(el)", "avoid(+d)", "speedup", "match", "exit")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %5d %5d %9.1f%% %9.1f%% %7.2fx %6v %5d\n",
			r.Name, r.MustFindings, r.MayFindings,
			100*r.AvoidedFracElide, 100*r.AvoidedFracDischarge,
			r.SpeedupVM, r.Match, r.Exit)
	}
	return sb.String()
}

// VetJSON renders the rows as the BENCH_vet.json artifact.
func VetJSON(rows []VetRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}

// AblationRow is one benchmark's statically-avoided check fraction as the
// absint tiers come on in order: lockset only, + the may-happen-in-parallel
// phase rules, + same-function interval certification, + cross-function
// summaries. Monotone by construction (each tier only adds proofs).
type AblationRow struct {
	Name          string  `json:"name"`
	Lockset       float64 `json:"avoided_lockset"`
	PlusMHP       float64 `json:"avoided_plus_mhp"`
	PlusIntervals float64 `json:"avoided_plus_intervals"`
	PlusSummaries float64 `json:"avoided_plus_summaries"`
	// AbsintSites is the discharged-by-absint site count of the full
	// configuration, tying the fraction deltas to concrete proofs.
	AbsintSites int `json:"absint_sites"`
}

// ablationTiers are the cumulative absint configurations, in order.
var ablationTiers = []absint.Options{
	{},
	{MHP: true},
	{MHP: true, Intervals: true},
	{MHP: true, Intervals: true, Summaries: true},
}

// RunAblation measures one benchmark's avoided-check fraction per tier.
func RunAblation(b *Benchmark, s Scale) (AblationRow, error) {
	row := AblationRow{Name: b.Name}
	src := b.Source(s)
	a, err := core.Analyze(parser.Source{Name: "program.shc", Text: src})
	if err != nil {
		return row, fmt.Errorf("%s (analyze): %w", b.Name, err)
	}
	out := []*float64{&row.Lockset, &row.PlusMHP, &row.PlusIntervals, &row.PlusSummaries}
	for i, opts := range ablationTiers {
		rep := vet.AnalyzeWith(a.World, a.Inf, opts)
		dopts := elideOptions()
		dopts.Discharge = rep.Discharge()
		prog, err := a.Build(dopts)
		if err != nil {
			return row, fmt.Errorf("%s (tier %d build): %w", b.Name, i, err)
		}
		*out[i] = prog.Elision.AvoidedFraction()
		if i == len(ablationTiers)-1 {
			row.AbsintSites = prog.Elision.DischargedAbsint
		}
	}
	return row, nil
}

// AblationTable measures every Table-1 benchmark across the tiers.
func AblationTable(s Scale) ([]AblationRow, error) {
	var rows []AblationRow
	for i := range Benchmarks {
		r, err := RunAblation(&Benchmarks[i], s)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// FormatAblation renders the tier ladder as an aligned table.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %9s %9s %11s %11s %7s\n",
		"name", "lockset", "+mhp", "+intervals", "+summaries", "absint")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8.1f%% %8.1f%% %10.1f%% %10.1f%% %7d\n",
			r.Name, 100*r.Lockset, 100*r.PlusMHP,
			100*r.PlusIntervals, 100*r.PlusSummaries, r.AbsintSites)
	}
	return sb.String()
}

// AblationJSON renders the rows as the BENCH_ablation.json artifact.
func AblationJSON(rows []AblationRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
