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
	"repro/internal/vet"
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
func oracleRun(t *testing.T, prog *ir.Program, seed int64) string {
	t.Helper()
	cfg := interp.DefaultConfig()
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

// TestRegoptOracle is the oracle for the two passes that rewrite the flat
// code after fusion, regopt and thread: for each, every program is built
// with the standard pipeline and with the pipeline minus that pass, under
// three option sets, and the two builds must run indistinguishably. Each
// pass must also change something in the set: regopt shrinks the code,
// and thread finds jumps to thread in the build without it.
func TestRegoptOracle(t *testing.T) {
	optCases := []struct {
		name      string
		opts      compile.Options
		discharge bool
	}{
		{"default", compile.DefaultOptions(), false},
		{"discharge", compile.DefaultOptions(), true},
		{"orig", compile.Options{}, false},
	}
	type analyzed struct {
		oracleProgram
		a *core.Analysis
	}
	var progs []analyzed
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
		progs = append(progs, analyzed{op, a})
	}
	if len(progs) < 12+6+15 {
		t.Fatalf("only %d programs pass the checker", len(progs))
	}
	for _, pass := range []struct {
		name string
		// effect measures what the pass changed between the builds.
		effect func(without, with *ir.Program) int
	}{
		{"regopt", func(without, with *ir.Program) int { return flatSize(without) - flatSize(with) }},
		{"thread", func(without, _ *ir.Program) int {
			n := 0
			for _, ff := range without.Flat.Funcs {
				n += len(compile.ThreadableJumps(ff))
			}
			return n
		}},
	} {
		t.Run(pass.name, func(t *testing.T) {
			effect := 0
			for _, pr := range progs {
				for _, oc := range optCases {
					opts := oc.opts
					if oc.discharge {
						opts.Discharge = vet.Analyze(pr.a.World, pr.a.Inf).Discharge()
					}
					with, err := compile.Compile(pr.a.World, pr.a.Inf, opts)
					if err != nil {
						t.Fatalf("%s %s: %v", pr.name, oc.name, err)
					}
					without, err := compile.CompileWithout(pr.a.World, pr.a.Inf, opts, pass.name)
					if err != nil {
						t.Fatalf("%s %s without %s: %v", pr.name, oc.name, pass.name, err)
					}
					effect += pass.effect(without, with)
					for _, seed := range []int64{0, 1, 7} {
						if seed == 0 && !pr.free {
							continue
						}
						want := oracleRun(t, without, seed)
						if got := oracleRun(t, with, seed); got != want {
							t.Fatalf("%s %s seed=%d: %s changed the run\n--- without %s\n%s--- with %s\n%s",
								pr.name, oc.name, seed, pass.name, pass.name, want, pass.name, got)
						}
					}
				}
			}
			if effect <= 0 {
				t.Fatalf("%s changed nothing in %d programs", pass.name, len(progs))
			}
			t.Logf("%d programs; %s effect %d", len(progs), pass.name, effect)
		})
	}
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
