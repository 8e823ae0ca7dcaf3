package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
)

// ElisionRow measures one Table-1 benchmark across the check-elision
// ladder: checks off (Orig), full checks, checks + static elision, and
// checks + static elision + the runtime cache.
type ElisionRow struct {
	Name string `json:"name"`

	TimeOrig   time.Duration `json:"time_orig_ns"`
	TimeOff    time.Duration `json:"time_elision_off_ns"`
	TimeStatic time.Duration `json:"time_static_ns"`
	TimeBoth   time.Duration `json:"time_static_cache_ns"`

	// Overheads versus the unchecked build, in percent.
	OverheadOffPct    float64 `json:"overhead_elision_off_pct"`
	OverheadStaticPct float64 `json:"overhead_static_pct"`
	OverheadBothPct   float64 `json:"overhead_static_cache_pct"`

	TotalDynamic  int `json:"total_dynamic_checks"`
	TotalLocked   int `json:"total_locked_checks"`
	ElidedDynamic int `json:"elided_dynamic_checks"`
	ElidedLocked  int `json:"elided_locked_checks"`

	CacheLookups int64 `json:"cache_lookups"`
	CacheHits    int64 `json:"cache_hits"`
	PageMemoHits int64 `json:"page_memo_hits"`

	// ReportsMatch is the soundness cross-check: the elided+cached run
	// produced exactly the reports and exit value of the unelided run.
	ReportsMatch bool  `json:"reports_match"`
	Exit         int64 `json:"exit"`

	// StaticDischarge records whether the vet discharge pass was part of
	// the measured configuration (the elision ladder runs without it).
	StaticDischarge bool `json:"static_discharge"`
}

// elideOptions is DefaultOptions plus the static pass.
func elideOptions() compile.Options {
	o := compile.DefaultOptions()
	o.Elide = true
	return o
}

// runElisionOnce executes prog with or without the runtime check cache.
func runElisionOnce(prog *ir.Program, cache bool) (*interp.Runtime, int64, time.Duration, error) {
	cfg := interp.DefaultConfig()
	cfg.CheckCache = cache
	rt := interp.New(prog, cfg)
	start := time.Now()
	ret, err := rt.Run()
	return rt, ret, time.Since(start), err
}

// reportsEqual compares two report sets as multisets of rendered reports:
// thread interleaving may reorder collection, but the contents must match.
func reportsEqual(a, b []interp.Report) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = a[i].Msg
	}
	for i := range b {
		bs[i] = b[i].Msg
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// RunElision measures one benchmark across the elision ladder.
func RunElision(b *Benchmark, s Scale, reps int) (ElisionRow, error) {
	src := b.Source(s)
	row := ElisionRow{Name: b.Name}

	progOrig, err := build(src, compile.Options{Checks: false, RC: false})
	if err != nil {
		return row, fmt.Errorf("%s (orig build): %w", b.Name, err)
	}
	progOff, err := build(src, compile.DefaultOptions())
	if err != nil {
		return row, fmt.Errorf("%s (checked build): %w", b.Name, err)
	}
	progStatic, err := build(src, elideOptions())
	if err != nil {
		return row, fmt.Errorf("%s (elided build): %w", b.Name, err)
	}
	row.TotalDynamic = progStatic.Elision.TotalDynamic
	row.TotalLocked = progStatic.Elision.TotalLocked
	row.ElidedDynamic = progStatic.Elision.ElidedDynamic
	row.ElidedLocked = progStatic.Elision.ElidedLocked

	// Correctness: the fully-elided configuration must reproduce the
	// unelided run's exit value and reports exactly.
	rtOff, retOff, _, err := runElisionOnce(progOff, false)
	if err != nil {
		return row, fmt.Errorf("%s (elision off): %w", b.Name, err)
	}
	rtBoth, retBoth, _, err := runElisionOnce(progStatic, true)
	if err != nil {
		return row, fmt.Errorf("%s (static+cache): %w", b.Name, err)
	}
	row.Exit = retBoth
	row.ReportsMatch = retOff == retBoth && reportsEqual(rtOff.Reports(), rtBoth.Reports())
	st := rtBoth.Stats()
	row.CacheLookups = st.CheckCacheLookups
	row.CacheHits = st.CheckCacheHits
	row.PageMemoHits = st.PageMemoHits

	// Timing ladder.
	time4 := func(prog *ir.Program, cache bool) (time.Duration, error) {
		return best(reps, func() (time.Duration, error) {
			_, _, d, err := runElisionOnce(prog, cache)
			return d, err
		})
	}
	if row.TimeOrig, err = time4(progOrig, false); err != nil {
		return row, err
	}
	if row.TimeOff, err = time4(progOff, false); err != nil {
		return row, err
	}
	if row.TimeStatic, err = time4(progStatic, false); err != nil {
		return row, err
	}
	if row.TimeBoth, err = time4(progStatic, true); err != nil {
		return row, err
	}
	if row.TimeOrig > 0 {
		o := float64(row.TimeOrig)
		row.OverheadOffPct = 100 * float64(row.TimeOff-row.TimeOrig) / o
		row.OverheadStaticPct = 100 * float64(row.TimeStatic-row.TimeOrig) / o
		row.OverheadBothPct = 100 * float64(row.TimeBoth-row.TimeOrig) / o
	}
	return row, nil
}

// ElisionTable measures every Table-1 benchmark across the elision ladder.
func ElisionTable(s Scale, reps int) ([]ElisionRow, error) {
	var rows []ElisionRow
	for i := range Benchmarks {
		r, err := RunElision(&Benchmarks[i], s, reps)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// FormatElision renders the ladder with the elided/hit counters.
func FormatElision(rows []ElisionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %9s %9s %9s %9s %8s %8s %12s %10s %7s\n",
		"Name", "Orig", "Off%", "Static%", "+Cache%",
		"Elided", "Checks", "CacheHits", "PageMemo", "Match")
	for _, r := range rows {
		elided := r.ElidedDynamic + r.ElidedLocked
		total := r.TotalDynamic + r.TotalLocked
		fmt.Fprintf(&sb, "%-8s %9s %8.1f%% %8.1f%% %8.1f%% %8d %8d %12d %10d %7v\n",
			r.Name, r.TimeOrig.Round(time.Millisecond),
			r.OverheadOffPct, r.OverheadStaticPct, r.OverheadBothPct,
			elided, total, r.CacheHits, r.PageMemoHits, r.ReportsMatch)
	}
	return sb.String()
}

// ElisionJSON renders rows machine-readably for BENCH_elision.json.
func ElisionJSON(rows []ElisionRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
