package interp_test

// Golden-output oracle for the execution engine. Every corpus program, and
// every checker-passing program from the seed-2008 fuzz generator, runs
// under fixed cooperative schedules. The observables of each run -- exit
// value, error text, reports, statistics, and the sha256 of the recorded
// schedule trace -- must match the files in testdata/golden byte for byte.
// The files were recorded while a recursive tree walker still ran beside
// the register VM and both matched them, so they pin the evaluation order
// the linearize pass promises.
//
// Regenerate, only for an intended change of observable behaviour, with
// UPDATE_GOLDEN=1 go test -run TestEngineDifferential ./internal/interp
//
// The *.replay.golden files read by TestSchedCrossEngineReplay hold full
// schedule traces recorded on the tree walker itself; they are not
// regenerated by that command.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/semantics"
)

// allCorpusFiles is every testdata program, racy ones included.
var allCorpusFiles = []string{
	"bank.shc", "barrier.shc", "conditions.shc", "hashtable.shc", "linkedlist.shc",
	"matmul.shc", "racy_handoff.shc", "racy_pair.shc", "racy_reader.shc",
	"readers.shc", "ringbuffer.shc", "sort.shc",
}

// engineRun executes prog under a seeded cooperative schedule and renders
// everything observable from the run as one golden block headed by label.
func engineRun(t *testing.T, label string, prog *ir.Program, seed int64) string {
	t.Helper()
	ctl := sched.New(sched.NewRandom(seed), sched.Options{Record: true})
	cfg := interp.DefaultConfig()
	cfg.Sched = ctl
	rt := interp.New(prog, cfg)
	exit, err := rt.Run()
	trace, merr := ctl.Trace().Marshal()
	if merr != nil {
		t.Fatal(merr)
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", label)
	fmt.Fprintf(&sb, "exit: %d\n", exit)
	fmt.Fprintf(&sb, "error: %q\n", errText)
	fmt.Fprintf(&sb, "stats: %+v\n", rt.Stats())
	fmt.Fprintf(&sb, "trace: sha256:%x\n", sha256.Sum256(trace))
	sb.WriteString("reports:\n")
	sb.WriteString(rt.FormatReports())
	return sb.String()
}

// checkEngineGolden compares got against testdata/golden/name, or rewrites
// the file when UPDATE_GOLDEN is set. A mismatch names the first differing
// line rather than dumping both files.
func checkEngineGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from golden file at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestEngineDifferentialCorpus runs every corpus program under fixed seeds
// and compares the observables with the program's golden file.
func TestEngineDifferentialCorpus(t *testing.T) {
	for _, file := range allCorpusFiles {
		file := file
		t.Run(file, func(t *testing.T) {
			var sb strings.Builder
			prog := buildCorpus(t, file, compile.DefaultOptions())
			for _, seed := range []int64{1, 12} {
				sb.WriteString(engineRun(t, fmt.Sprintf("plain seed=%d", seed), prog, seed))
			}
			checkEngineGolden(t, strings.TrimSuffix(file, ".shc")+".golden", sb.String())
		})
	}
}

// ---------------------------------------------------------------------------
// fuzz oracle: random well-typed programs from the semantics generator

// TestEngineDifferentialFuzz is the fuzz oracle: random well-typed
// core-language programs are rendered to ShC, and every one that passes the
// static checker runs under fixed seeds, its observables compared with
// testdata/golden/fuzz.golden. Programs the static checker rejects (the
// renderer maps the core language onto a stricter surface syntax) are
// skipped; the test demands a minimum yield so the oracle cannot silently
// degenerate, and the golden file pins which programs ran and the digest
// of each one's source.
func TestEngineDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	ran := 0
	var sb strings.Builder
	for i := 0; i < 80; i++ {
		src := semantics.RenderShC(semantics.GenProgram(rng))
		a, err := core.Analyze(parser.Source{Name: fmt.Sprintf("fuzz%d.shc", i), Text: src})
		if err != nil || !a.Check.OK() {
			continue
		}
		ran++
		fmt.Fprintf(&sb, "### program %d source sha256:%x\n", i, sha256.Sum256([]byte(src)))
		prog, err := a.Build(compile.DefaultOptions())
		if err != nil {
			t.Fatalf("program %d: build: %v", i, err)
		}
		// The sections keep the label they were recorded under,
		// "elide=false", so the recorded file never changes.
		for _, seed := range []int64{1, 7} {
			sb.WriteString(engineRun(t, fmt.Sprintf("program %d elide=false seed=%d", i, seed), prog, seed))
		}
	}
	if ran < 15 {
		t.Fatalf("fuzz yield too low: only %d/80 rendered programs passed the checker", ran)
	}
	checkEngineGolden(t, "fuzz.golden", sb.String())
}

// ---------------------------------------------------------------------------
// cross-engine replay matrix

// TestSchedCrossEngineReplay extends the check-removal soundness oracle
// across engines. testdata/golden/<file>.replay.golden holds schedules, exit
// values and reports recorded on the tree walker before it was retired: the
// VM must record the byte-identical trace under the same seed, and that
// trace must replay without divergence on the checked build and on the
// discharged build, with identical exit values and reports.
func TestSchedCrossEngineReplay(t *testing.T) {
	for _, file := range []string{"bank.shc", "barrier.shc", "racy_handoff.shc", "racy_reader.shc"} {
		file := file
		t.Run(file, func(t *testing.T) {
			plain := buildCorpus(t, file, compile.DefaultOptions())
			discharged := buildDischarged(t, file)

			cells := []struct {
				name string
				prog *ir.Program
			}{
				{"off", plain},
				{"discharge", discharged},
			}

			var sb strings.Builder
			for _, seed := range []int64{3, 17} {
				rec := schedRun(t, plain, interp.DefaultConfig(), sched.NewRandom(seed))
				errText := ""
				if rec.err != nil {
					errText = rec.err.Error()
				}
				fmt.Fprintf(&sb, "== seed=%d\nexit: %d\nerror: %q\ntrace: %s\nreports:\n%s",
					seed, rec.exit, errText, rec.trace, rec.reports)

				tr, err := sched.UnmarshalTrace([]byte(rec.trace))
				if err != nil {
					t.Fatal(err)
				}
				for _, cell := range cells {
					label := fmt.Sprintf("seed=%d %s", seed, cell.name)
					rep := sched.NewReplay(tr)
					got := schedRun(t, cell.prog, interp.DefaultConfig(), rep)
					if rep.Diverged() {
						t.Fatalf("%s: trace did not align", label)
					}
					if got.exit != rec.exit {
						t.Fatalf("%s: exit %d, recorded %d", label, got.exit, rec.exit)
					}
					if got.reports != rec.reports {
						t.Fatalf("%s: reports diverge under a fixed schedule:\nrecorded:\n%s---\ngot:\n%s",
							label, rec.reports, got.reports)
					}
				}
			}
			checkEngineGolden(t, strings.TrimSuffix(file, ".shc")+".replay.golden", sb.String())
		})
	}
}
