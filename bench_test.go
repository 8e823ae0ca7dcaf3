// Benchmarks regenerating the paper's evaluation, one pair per Table-1 row
// ("Orig" = uninstrumented, "SharC" = fully checked: the ratio is the
// paper's time-overhead column) plus the design-choice ablations DESIGN.md
// calls out: Levanoni–Petrank vs naive reference counting, the RC-site
// analysis on and off, and the baseline detectors of the §6 comparison.
//
// Run with: go test -bench=. -benchmem
package sharc

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/shadow"
)

// buildBench compiles one Table-1 program with the given instrumentation.
func buildBench(b *testing.B, name string, opts compile.Options) *ir.Program {
	b.Helper()
	bm := bench.ByName(name)
	if bm == nil {
		b.Fatalf("unknown benchmark %q", name)
	}
	a, err := core.Analyze(parser.Source{Name: name + ".shc", Text: bm.Source(bench.Quick)})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := a.Build(opts)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func runBench(b *testing.B, prog *ir.Program) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rt := interp.New(prog, interp.DefaultConfig())
		if _, err := rt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPair runs the Orig/SharC pair for one Table-1 row.
func benchPair(b *testing.B, name string) {
	b.Run("Orig", func(b *testing.B) {
		runBench(b, buildBench(b, name, compile.Options{}))
	})
	b.Run("SharC", func(b *testing.B) {
		runBench(b, buildBench(b, name, compile.DefaultOptions()))
	})
}

func BenchmarkTable1Pfscan(b *testing.B)  { benchPair(b, "pfscan") }
func BenchmarkTable1Aget(b *testing.B)    { benchPair(b, "aget") }
func BenchmarkTable1Pbzip2(b *testing.B)  { benchPair(b, "pbzip2") }
func BenchmarkTable1Dillo(b *testing.B)   { benchPair(b, "dillo") }
func BenchmarkTable1Fftw(b *testing.B)    { benchPair(b, "fftw") }
func BenchmarkTable1Stunnel(b *testing.B) { benchPair(b, "stunnel") }

// BenchmarkInterpNew measures runtime set-up alone. Memory is demand-paged,
// so B/op is the page directories plus what the program's initializers
// write, not the configured address space.
func BenchmarkInterpNew(b *testing.B) {
	trivial, err := core.Analyze(parser.Source{Name: "trivial.shc", Text: `int main(void) { return 0; }`})
	if err != nil {
		b.Fatal(err)
	}
	progs := []struct {
		name string
		prog *ir.Program
	}{
		{"Trivial", nil},
		{"Pfscan", buildBench(b, "pfscan", compile.DefaultOptions())},
	}
	if progs[0].prog, err = trivial.Build(compile.DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newRuntime = interp.New(p.prog, interp.DefaultConfig())
			}
		})
	}
}

// newRuntime keeps BenchmarkInterpNew's result live.
var newRuntime *interp.Runtime

// BenchmarkRCScheme is the §4.3 ablation: the paper replaced naive atomic
// reference counting (">60% overhead in many cases") with the adapted
// Levanoni–Petrank scheme. pfscan is the most RC-active row.
func BenchmarkRCScheme(b *testing.B) {
	prog := buildBench(b, "pfscan", compile.DefaultOptions())
	run := func(b *testing.B, scheme interp.RCScheme) {
		for i := 0; i < b.N; i++ {
			cfg := interp.DefaultConfig()
			cfg.RC = scheme
			rt := interp.New(prog, cfg)
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("LevanoniPetrank", func(b *testing.B) { run(b, interp.RCLevanoniPetrank) })
	b.Run("Naive", func(b *testing.B) { run(b, interp.RCNaive) })
}

// BenchmarkRCSiteAnalysis ablates the whole-program analysis that restricts
// write barriers to pointers that may reach a sharing cast.
func BenchmarkRCSiteAnalysis(b *testing.B) {
	b.Run("On", func(b *testing.B) {
		runBench(b, buildBench(b, "dillo", compile.Options{Checks: true, RC: true, RCSiteAnalysis: true}))
	})
	b.Run("Off", func(b *testing.B) {
		runBench(b, buildBench(b, "dillo", compile.Options{Checks: true, RC: true, RCSiteAnalysis: false}))
	})
}

// BenchmarkChecksOnly isolates the access checks from the RC barriers.
func BenchmarkChecksOnly(b *testing.B) {
	b.Run("ChecksNoRC", func(b *testing.B) {
		runBench(b, buildBench(b, "pfscan", compile.Options{Checks: true}))
	})
	b.Run("RCNoChecks", func(b *testing.B) {
		runBench(b, buildBench(b, "pfscan", compile.Options{RC: true, RCSiteAnalysis: true}))
	})
}

// BenchmarkDetectors is the §6 comparison: the same execution observed by
// the Eraser-style lockset detector and the vector-clock happens-before
// detector, both of which serialize every access through a detector lock
// (Eraser's reported overhead was 10-30x).
func BenchmarkDetectors(b *testing.B) {
	prog := buildBench(b, "pfscan", compile.Options{})
	b.Run("Eraser", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := interp.DefaultConfig()
			cfg.Observer = baseline.NewEraser()
			rt := interp.New(prog, cfg)
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HappensBefore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := interp.DefaultConfig()
			cfg.Observer = baseline.NewHB()
			rt := interp.New(prog, cfg)
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckElision measures the redundant-check-elimination ladder on
// every Table-1 row: full checks (Off), the static elision pass (Static),
// and the static pass plus the per-thread granule check cache (StaticCache).
func BenchmarkCheckElision(b *testing.B) {
	run := func(b *testing.B, prog *ir.Program, cache bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := interp.DefaultConfig()
			cfg.CheckCache = cache
			rt := interp.New(prog, cfg)
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	elide := compile.DefaultOptions()
	elide.Elide = true
	for _, name := range []string{"pfscan", "aget", "pbzip2", "dillo", "fftw", "stunnel"} {
		plain := buildBench(b, name, compile.DefaultOptions())
		elided := buildBench(b, name, elide)
		b.Run(name+"/Off", func(b *testing.B) { run(b, plain, false) })
		b.Run(name+"/Static", func(b *testing.B) { run(b, elided, false) })
		b.Run(name+"/StaticCache", func(b *testing.B) { run(b, elided, true) })
	}
}

// BenchmarkShadowEncoding ablates the reader/writer-set representation:
// the paper's per-thread bit sets vs the compact state-machine encoding it
// names as future work (unbounded thread ids, approximate clearing).
func BenchmarkShadowEncoding(b *testing.B) {
	prog := buildBench(b, "pfscan", compile.DefaultOptions())
	run := func(b *testing.B, enc shadow.Encoding) {
		for i := 0; i < b.N; i++ {
			cfg := interp.DefaultConfig()
			cfg.ShadowEncoding = enc
			rt := interp.New(prog, cfg)
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
			if n := len(rt.ReportsOfKind(interp.ReportRace)); n != 0 {
				b.Fatalf("pfscan must stay clean under either encoding: %d races", n)
			}
		}
	}
	b.Run("Bitset", func(b *testing.B) { run(b, shadow.EncodingBitset) })
	b.Run("StateMachine", func(b *testing.B) { run(b, shadow.EncodingState) })
}

// BenchmarkAnalysis measures the static half: parse + resolve + inference +
// checking + lowering for the largest benchmark program.
func BenchmarkAnalysis(b *testing.B) {
	src := bench.FftwSource(bench.Quick)
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(parser.Source{Name: "fftw.shc", Text: src})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Build(compile.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferenceAblation reports how much data the static analysis
// keeps out of the checked-dynamic set: the fraction of accesses checked
// with inference (normal) is far below checking everything (the paper's
// "baseline dynamic analysis can check any C program, but is slow").
func BenchmarkInferenceAblation(b *testing.B) {
	prog := buildBench(b, "pbzip2", compile.DefaultOptions())
	b.Run("WithInference", func(b *testing.B) {
		var checked, total int64
		for i := 0; i < b.N; i++ {
			rt := interp.New(prog, interp.DefaultConfig())
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
			st := rt.Stats()
			checked, total = st.DynamicAccesses, st.TotalAccesses
		}
		if total > 0 {
			b.ReportMetric(100*float64(checked)/float64(total), "%dynamic")
		}
	})
}

// Example_table points at the CLI that regenerates the full table.
func Example_table() {
	fmt.Println("see: go run ./cmd/sharc-bench -scale full")
	// Output: see: go run ./cmd/sharc-bench -scale full
}
