package compile_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/vet"
)

type prog struct{ name, src string }

// corpusAndModels returns every corpus program and every Table-1 model at
// both scales.
func corpusAndModels(t *testing.T) []prog {
	t.Helper()
	var progs []prog
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "*.shc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.Base(f), string(src)})
	}
	for _, b := range bench.Benchmarks {
		progs = append(progs, prog{b.Name + ".quick", b.Source(bench.Quick)}, prog{b.Name + ".full", b.Source(bench.Full)})
	}
	return progs
}

// TestCheckTotalsAccountForEverySite pins the lowering's check-site
// accounting on every corpus program and every Table-1 model at both
// scales: each report site the lowering mints is counted once, as a
// compiled check or as a discharged one, and discharge turns compiled
// checks into discharged ones one for one.
func TestCheckTotalsAccountForEverySite(t *testing.T) {
	builds := 0
	for _, pr := range corpusAndModels(t) {
		a, err := core.Analyze(parser.Source{Name: pr.name, Text: pr.src})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		plain, err := a.Build(compile.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		opts := compile.DefaultOptions()
		opts.Discharge = vet.Analyze(a.World, a.Inf).Discharge()
		disch, err := a.Build(opts)
		if err != nil {
			t.Fatalf("%s discharge: %v", pr.name, err)
		}
		p, d := plain.Elision, disch.Elision
		if got := p.TotalDynamic + p.TotalLocked + p.Discharged(); got != len(plain.Sites) {
			t.Errorf("%s: counted %d checks for %d sites", pr.name, got, len(plain.Sites))
		}
		if got := d.TotalDynamic + d.TotalLocked + d.Discharged(); got != len(disch.Sites) {
			t.Errorf("%s discharge: counted %d checks for %d sites", pr.name, got, len(disch.Sites))
		}
		if p.Discharged() != 0 || p.TotalDynamic+p.TotalLocked != d.TotalDynamic+d.TotalLocked+d.Discharged() {
			t.Errorf("%s: checked build %+v, discharged build %+v", pr.name, p, d)
		}
		builds += 2
	}
	if builds != 50 {
		t.Fatalf("compared %d builds, want 50", builds)
	}
}
