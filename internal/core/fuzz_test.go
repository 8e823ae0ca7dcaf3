package core_test

// FuzzCompileVerifies lives in an external test package: seeding it from
// internal/bench's Table-1 models from inside package core would be an
// import cycle (bench imports core).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/parser"
)

// FuzzCompileVerifies: analyzing and building any source under the
// uninstrumented and the default options never panics, and every pass's
// output passes the flat verifier. A diagnostic is a fine outcome; an
// "ir verification failed" error is a miscompiling pass.
func FuzzCompileVerifies(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "*.shc"))
	if err != nil || len(files) == 0 {
		f.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	files = append(files, filepath.Join("..", "..", "examples", "profile", "hotsites.shc"))
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, b := range bench.Benchmarks {
		f.Add(b.Source(bench.Quick))
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := core.Analyze(parser.Source{Name: "fuzz.shc", Text: src})
		if err != nil {
			return // a parse diagnostic
		}
		for _, opts := range []compile.Options{{}, compile.DefaultOptions()} {
			if _, err := a.Build(opts); err != nil && strings.Contains(err.Error(), "ir verification failed") {
				t.Fatalf("checks=%v: %v", opts.Checks, err)
			}
		}
	})
}
