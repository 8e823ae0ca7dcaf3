package interp_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
)

// corpusCase is one testdata program with its expected exit value.
var corpusCases = []struct {
	file string
	exit int64
}{
	{"linkedlist.shc", 210},
	{"hashtable.shc", 60},
	{"ringbuffer.shc", 12},
	{"sort.shc", 3},
	{"matmul.shc", -1}, // deterministic, pinned by orig-vs-checked equality
	{"barrier.shc", 15},
	{"bank.shc", 8},
	{"readers.shc", 4},
	{"conditions.shc", 172},
}

func readCorpus(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCorpus runs every testdata program unchecked and checked and demands
// identical exit values, the expected result, and zero violation reports
// from the fully annotated sources.
func TestCorpus(t *testing.T) {
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			src := readCorpus(t, tc.file)

			cfg := interp.DefaultConfig()
			rtO, exitO, err := core.BuildAndRun(src, compile.Options{}, cfg)
			if err != nil {
				t.Fatalf("orig: %v", err)
			}
			_ = rtO

			rtC, exitC, err := core.BuildAndRun(src, compile.DefaultOptions(), cfg)
			if err != nil {
				t.Fatalf("checked: %v", err)
			}
			if exitO != exitC {
				t.Fatalf("exit mismatch: orig %d, checked %d", exitO, exitC)
			}
			if tc.exit >= 0 && exitC != tc.exit {
				t.Fatalf("exit = %d, want %d", exitC, tc.exit)
			}
			for _, r := range rtC.Reports() {
				t.Errorf("report: %s", r)
			}
		})
	}
}

// TestCorpusStripped: every corpus program still runs when its annotations
// are stripped (the baseline-checks-anything property), with no fatal
// errors — warnings are expected for the concurrent ones.
func TestCorpusStripped(t *testing.T) {
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			src := readCorpus(t, tc.file)
			prog, err := parser.ParseProgram(parser.Source{Name: tc.file, Text: src})
			if err != nil {
				t.Fatal(err)
			}
			// Strip via the ast transform re-exported through bench's
			// helper: reimplemented inline to avoid the import cycle.
			stripped := stripViaAst(t, prog)
			cfg := interp.DefaultConfig()
			_, exit, err := core.BuildAndRun(stripped, compile.DefaultOptions(), cfg)
			if err != nil {
				t.Fatalf("stripped run: %v", err)
			}
			// Sequential programs keep their exit value even stripped; the
			// concurrent ones may differ only through racy markers, which
			// these programs avoid... except ringbuffer whose result rides
			// the racy done flag — still deterministic after join.
			if tc.exit >= 0 && exit != tc.exit {
				t.Logf("stripped exit %d (annotated %d)", exit, tc.exit)
			}
		})
	}
}

// stripViaAst applies the annotation-stripping transform and reprints.
func stripViaAst(t *testing.T, prog *ast.Program) string {
	t.Helper()
	return ast.PrintProgram(ast.StripAnnotations(prog))
}
