package compile_test

// Oracle for the regopt pass: every program is built with the standard
// pipeline and with the same pipeline minus regopt, and both builds must
// be indistinguishable when run. Under recorded seeded schedules that
// means identical exit, error, reports, statistics and schedule-trace
// bytes. Free-running Go scheduling fixes less: spin and wait loops make
// the counters vary from run to run, a racy program's outcome depends on
// the interleaving, and a rare free-running oneref report can appear in
// either build, so free runs compare exit and error of the race-free
// programs only.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/semantics"
)

type oracleProgram struct {
	name string
	src  string
	free bool // the free-running exit and error are schedule-independent
}

// oraclePrograms returns the interpreter corpus, the six Table-1 models at
// quick scale, and the rendered fuzz programs of the engine oracle (seed
// 2008) that pass the static checker.
func oraclePrograms(t *testing.T) []oracleProgram {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "*.shc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	var progs []oracleProgram
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		progs = append(progs, oracleProgram{name, string(src), !strings.HasPrefix(name, "racy_")})
	}
	for _, b := range bench.Benchmarks {
		progs = append(progs, oracleProgram{b.Name + ".quick.shc", b.Source(bench.Quick), true})
	}
	rng := rand.New(rand.NewSource(2008))
	for i := 0; i < 80; i++ {
		progs = append(progs, oracleProgram{fmt.Sprintf("fuzz%d.shc", i), semantics.RenderShC(semantics.GenProgram(rng)), false})
	}
	return progs
}

// oracleRun renders what one run of prog fixes. seed 0 runs free and
// renders exit and error; any other seed runs under a recorded random
// schedule and renders every observable.
func oracleRun(t *testing.T, prog *ir.Program, cache bool, seed int64) string {
	t.Helper()
	cfg := interp.DefaultConfig()
	cfg.CheckCache = cache
	var ctl *sched.Controller
	if seed != 0 {
		ctl = sched.New(sched.NewRandom(seed), sched.Options{Record: true})
		cfg.Sched = ctl
	}
	rt := interp.New(prog, cfg)
	exit, err := rt.Run()
	var sb strings.Builder
	fmt.Fprintf(&sb, "exit: %d\nerror: %v\n", exit, err)
	if seed == 0 {
		return sb.String()
	}
	trace, merr := ctl.Trace().Marshal()
	if merr != nil {
		t.Fatal(merr)
	}
	fmt.Fprintf(&sb, "stats: %+v\ntrace: %s\nreports:\n%s", rt.Stats(), trace, rt.FormatReports())
	return sb.String()
}

func flatSize(p *ir.Program) int {
	n := 0
	for _, ff := range p.Flat.Funcs {
		n += len(ff.Code)
	}
	return n
}

func TestRegoptOracle(t *testing.T) {
	type optCase struct {
		name string
		opts compile.Options
	}
	var optCases []optCase
	for _, base := range []optCase{{"default", compile.DefaultOptions()}, {"orig", compile.Options{}}} {
		for _, elide := range []bool{false, true} {
			o := base.opts
			o.Elide = elide
			optCases = append(optCases, optCase{fmt.Sprintf("%s/elide=%v", base.name, elide), o})
		}
	}
	ran, before, after := 0, 0, 0
	for _, op := range oraclePrograms(t) {
		a, err := core.Analyze(parser.Source{Name: op.name, Text: op.src})
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if !a.Check.OK() {
			if strings.HasPrefix(op.name, "fuzz") {
				continue // the renderer's surface syntax is stricter
			}
			t.Fatalf("%s: %v", op.name, a.Err())
		}
		ran++
		for _, oc := range optCases {
			with, err := compile.Compile(a.World, a.Inf, oc.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", op.name, oc.name, err)
			}
			without, err := compile.CompileWithout(a.World, a.Inf, oc.opts, "regopt")
			if err != nil {
				t.Fatalf("%s %s without regopt: %v", op.name, oc.name, err)
			}
			before += flatSize(without)
			after += flatSize(with)
			for _, seed := range []int64{0, 1, 7} {
				if seed == 0 && !op.free {
					continue
				}
				want := oracleRun(t, without, oc.opts.Elide, seed)
				got := oracleRun(t, with, oc.opts.Elide, seed)
				if got != want {
					t.Fatalf("%s %s seed=%d: regopt changed the run\n--- without regopt\n%s--- with regopt\n%s",
						op.name, oc.name, seed, want, got)
				}
			}
		}
	}
	if ran < 11+6+15 {
		t.Fatalf("only %d programs ran", ran)
	}
	if after >= before {
		t.Fatalf("regopt removed nothing: %d instructions before, %d after", before, after)
	}
	t.Logf("%d programs; %d flat instructions without regopt, %d with", ran, before, after)
}

// TestRegoptLeavesNoDeadMoves pins the pass's main effect statically: no
// Table-1 model keeps a move whose destination is never read.
func TestRegoptLeavesNoDeadMoves(t *testing.T) {
	for _, b := range bench.Benchmarks {
		a, err := core.Analyze(parser.Source{Name: b.Name + ".shc", Text: b.Source(bench.Quick)})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []compile.Options{compile.DefaultOptions(), {}} {
			prog, err := a.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, ff := range prog.Flat.Funcs {
				if dead := compile.DeadMoves(ff); len(dead) > 0 {
					t.Errorf("%s: %s (checks=%v) keeps dead moves at pcs %v", b.Name, prog.Funcs[i].Name, opts.Checks, dead)
				}
			}
		}
	}
}
