package absint_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/absint"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/semantics"
)

// TestWideningPointsCutEveryCycle: the fixpoint terminates because every
// cycle of a function's flat CFG passes through a widening point, not
// because the step budget runs out. So deleting the widening points must
// leave the CFG acyclic, in every function of the Table-1 models at both
// scales, the interpreter corpus and a set of generated programs, in the
// checked and the uninstrumented builds. The successors are restated here
// from the opcodes' meaning, independently of the engine's walk.
func TestWideningPointsCutEveryCycle(t *testing.T) {
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
	rng := rand.New(rand.NewSource(2008))
	for i := 0; i < 40; i++ {
		srcs[fmt.Sprintf("gen%d", i)] = semantics.RenderShC(semantics.GenProgram(rng))
	}
	funcs, loops := 0, 0
	for name, src := range srcs {
		a, err := core.Analyze(parser.Source{Name: name, Text: src})
		if err != nil || !a.Check.OK() {
			continue // a generated program the checker rejects
		}
		for _, opts := range []compile.Options{compile.DefaultOptions(), {}} {
			prog, err := a.Build(opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for fi, ff := range prog.Flat.Funcs {
				funcs++
				widen := absint.WidenPoints(ff.Code)
				for _, w := range widen {
					if w {
						loops++
					}
				}
				if pc := cycleAvoiding(ff.Code, widen); pc >= 0 {
					t.Errorf("%s %s (checks=%v): a cycle through pc %d avoids every widening point",
						name, prog.Funcs[fi].Name, opts.Checks, pc)
				}
			}
		}
	}
	if funcs == 0 || loops == 0 {
		t.Fatalf("%d functions, %d widening points: the check is vacuous", funcs, loops)
	}
	t.Logf("%d functions, %d widening points", funcs, loops)
}

// cycleAvoiding returns a pc on a cycle of code's CFG that avoids every pc
// marked in skip, or -1 when the CFG without them is acyclic. It peels
// instructions with no remaining predecessor (Kahn's algorithm); whatever
// is left lies on or behind a cycle.
func cycleAvoiding(code []ir.Instr, skip []bool) int {
	n := len(code)
	succs := func(pc int) []int {
		in := code[pc]
		switch in.Op {
		case ir.FRet:
			return nil
		case ir.FJmp:
			return []int{int(in.A)}
		}
		var out []int
		if pc+1 < n {
			out = append(out, pc+1)
		}
		if t := in.Target(); t != nil {
			out = append(out, int(*t))
		}
		return out
	}
	indeg := make([]int, n)
	for pc := range code {
		if skip[pc] {
			continue
		}
		for _, s := range succs(pc) {
			if !skip[s] {
				indeg[s]++
			}
		}
	}
	var ready []int
	for pc := range code {
		if !skip[pc] && indeg[pc] == 0 {
			ready = append(ready, pc)
		}
	}
	for len(ready) > 0 {
		pc := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, s := range succs(pc) {
			if skip[s] {
				continue
			}
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	for pc := range code {
		if !skip[pc] && indeg[pc] > 0 {
			return pc
		}
	}
	return -1
}
