package absint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/parser"
)

// TestCheckAddrsSeesEveryCheck: ticket certification assumes it has seen
// every live check, so absint's checkAddrs must list every instruction
// that applies one, in every function of the corpus and of the Table-1
// models at both scales. The opcodes that apply a check are found here by
// their names (chkread, loadchk, loadchkidx, ...), independently of the
// ir.Instr.CheckOf list that checkAddrs reads.
func TestCheckAddrsSeesEveryCheck(t *testing.T) {
	srcs := map[string]string{}
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "*.shc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for _, b := range bench.Benchmarks {
		srcs[b.Name+".quick"] = b.Source(bench.Quick)
		srcs[b.Name+".full"] = b.Source(bench.Full)
	}
	checks := map[string]int{}
	for name, src := range srcs {
		a, err := core.Analyze(parser.Source{Name: name, Text: src})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := a.Build(compile.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for fi, ff := range prog.Flat.Funcs {
			var want []int
			for pc, in := range ff.Code {
				if op := in.Op.String(); strings.Contains(op, "chk") {
					want = append(want, pc)
					checks[op]++
				}
			}
			if got := absint.CheckAddrPCs(prog, fi); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: checkAddrs lists pcs %v, want %v", name, prog.Funcs[fi].Name, got, want)
			}
		}
	}
	// Not vacuous: the fused check forms occur in the set.
	for _, op := range []string{"loadchk", "storechk", "loadchkidx"} {
		if checks[op] == 0 {
			t.Errorf("no %s in any build", op)
		}
	}
}
