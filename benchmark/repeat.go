package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is the root-level description of the benchmark; -repeat
// reads the bounds from it, so run from the repository root.
const benchmarkFile = "BENCHMARK.json"

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]boundDef)
	for _, d := range f.EndToEnd {
		out[d.Name] = d
	}
	return out, nil
}

// spread summarizes one metric over repeated runs.
type spread struct {
	Unit      string    `json:"unit"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	IQRFrac   float64   `json:"iqr_frac"`
	RangeFrac float64   `json:"range_frac"`
	Bound     float64   `json:"bound"`
	Values    []float64 `json:"values"`
}

func summarize(values []float64, d boundDef) spread {
	s := spread{Unit: d.Unit, Median: median(values), Bound: d.Bound, Values: values}
	s.Q1, s.Q3 = quartiles(values)
	if s.Median != 0 {
		s.IQRFrac = (s.Q3 - s.Q1) / s.Median
		s.RangeFrac = (slices.Max(values) - slices.Min(values)) / s.Median
	}
	return s
}

// repeatRuns runs each workload n times in fresh processes with seeds
// seed..seed+n-1 and reports, per end-to-end metric, the median and the
// spread against the metric's bound. It fails when a run is incorrect or a
// spread (interquartile range over median) exceeds its bound; setup_s is
// exempt, being gated on its median alone.
func repeatRuns(names []string, seed int64, n int, common []string, stdout, stderr io.Writer) int {
	bounds, err := readBounds(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -repeat needs the bounds: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range names {
		values := make(map[string][]float64)
		var prov provenance
		for i := 0; i < n; i++ {
			args := append([]string{"-workload", w, "-seed", fmt.Sprint(seed + int64(i)), "-trace", "0"}, common...)
			lines, err := child(args, stderr)
			var r result
			if err == nil {
				err = json.Unmarshal(lines.result, &r)
			}
			if err == nil && !r.Correct {
				err = fmt.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w, seed+int64(i), err)
				code = 1
				continue
			}
			var in info
			if json.Unmarshal(lines.info, &in) == nil && prov.GoVersion == "" {
				prov = in.Provenance
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		report := struct {
			Workload   string            `json:"workload"`
			Runs       int               `json:"runs"`
			FirstSeed  int64             `json:"first_seed"`
			Provenance provenance        `json:"provenance"`
			Metrics    map[string]spread `json:"metrics"`
		}{Workload: w, Runs: n, FirstSeed: seed, Provenance: prov, Metrics: make(map[string]spread)}
		fmt.Fprintf(stderr, "%s over %d runs:\n  %-18s %12s %10s %10s %7s\n", w, n, "metric", "median", "iqr/med", "range/med", "bound")
		for _, d := range endToEnd {
			b, ok := bounds[d.name]
			if !ok {
				fmt.Fprintf(stderr, "benchmark: %s has no bound for %s\n", benchmarkFile, d.name)
				code = 1
				continue
			}
			s := summarize(values[d.name], b)
			report.Metrics[d.name] = s
			flag := ""
			if d.name != "setup_s" && s.IQRFrac > s.Bound {
				flag = "  SPREAD OVER BOUND"
				code = 1
			}
			fmt.Fprintf(stderr, "  %-18s %12.4f %9.1f%% %9.1f%% %6.0f%%%s\n",
				d.name, s.Median, 100*s.IQRFrac, 100*s.RangeFrac, 100*s.Bound, flag)
		}
		line, err := json.Marshal(report)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}
