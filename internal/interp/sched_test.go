package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/vet"
)

// buildCorpus compiles a testdata program with the given options.
func buildCorpus(t *testing.T, file string, copts compile.Options) *ir.Program {
	t.Helper()
	a, err := core.Analyze(parser.Source{Name: file, Text: readCorpus(t, file)})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Build(copts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// buildDischarged compiles a testdata program with the checks the vet
// analysis proves safe discharged.
func buildDischarged(t *testing.T, file string) *ir.Program {
	t.Helper()
	a, err := core.Analyze(parser.Source{Name: file, Text: readCorpus(t, file)})
	if err != nil {
		t.Fatal(err)
	}
	copts := compile.DefaultOptions()
	copts.Discharge = vet.Analyze(a.World, a.Inf).Discharge()
	prog, err := a.Build(copts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// schedRun executes prog under the given strategy, recording the schedule.
type schedRunResult struct {
	exit     int64
	err      error
	reports  string
	trace    string
	deadlock bool
}

func schedRun(t *testing.T, prog *ir.Program, cfg interp.Config, s sched.Strategy) schedRunResult {
	t.Helper()
	ctl := sched.New(s, sched.Options{Record: true})
	cfg.Sched = ctl
	rt := interp.New(prog, cfg)
	exit, err := rt.Run()
	data, merr := ctl.Trace().Marshal()
	if merr != nil {
		t.Fatal(merr)
	}
	return schedRunResult{
		exit:     exit,
		err:      err,
		reports:  rt.FormatReports(),
		trace:    string(data),
		deadlock: ctl.Deadlocked(),
	}
}

// TestSchedCorpusClean: every corpus program, run under seeded cooperative
// scheduling, still produces its expected exit value with zero violation
// reports — the scheduler changes interleavings, not semantics. barrier.shc
// exercises the controller's cond wait/broadcast path, bank.shc its
// modeled mutexes.
func TestSchedCorpusClean(t *testing.T) {
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			prog := buildCorpus(t, tc.file, compile.DefaultOptions())
			for _, seed := range []int64{1, 2, 3} {
				r := schedRun(t, prog, interp.DefaultConfig(), sched.NewRandom(seed))
				if r.err != nil {
					t.Fatalf("seed %d: %v", seed, r.err)
				}
				if tc.exit >= 0 && r.exit != tc.exit {
					t.Fatalf("seed %d: exit = %d, want %d", seed, r.exit, tc.exit)
				}
				if r.reports != "" {
					t.Fatalf("seed %d: unexpected reports:\n%s", seed, r.reports)
				}
			}
		})
	}
}

// TestSchedDeterminism: the same (program, seed) produces byte-identical
// traces, reports, and exit values across 20 repeated runs, on the checked
// and on the discharged build.
func TestSchedDeterminism(t *testing.T) {
	for _, file := range []string{"bank.shc", "barrier.shc", "racy_handoff.shc"} {
		builds := []struct {
			name string
			prog *ir.Program
		}{
			{"plain", buildCorpus(t, file, compile.DefaultOptions())},
			{"discharge", buildDischarged(t, file)},
		}
		for _, b := range builds {
			t.Run(file+"/"+b.name, func(t *testing.T) {
				var first schedRunResult
				for i := 0; i < 20; i++ {
					r := schedRun(t, b.prog, interp.DefaultConfig(), sched.NewRandom(42))
					if i == 0 {
						first = r
						continue
					}
					if r.exit != first.exit || r.reports != first.reports || r.trace != first.trace {
						t.Fatalf("run %d diverged from run 0:\nexit %d vs %d\nreports:\n%s---\n%s\ntrace equal: %v",
							i, r.exit, first.exit, r.reports, first.reports, r.trace == first.trace)
					}
				}
			})
		}
	}
}

// TestSchedRecordReplay: a recorded schedule replays to the identical
// outcome, byte for byte, with no divergence.
func TestSchedRecordReplay(t *testing.T) {
	for _, file := range []string{"bank.shc", "barrier.shc", "racy_pair.shc"} {
		t.Run(file, func(t *testing.T) {
			prog := buildCorpus(t, file, compile.DefaultOptions())
			rec := schedRun(t, prog, interp.DefaultConfig(), sched.NewRandom(11))
			tr, err := sched.UnmarshalTrace([]byte(rec.trace))
			if err != nil {
				t.Fatal(err)
			}
			rep := sched.NewReplay(tr)
			got := schedRun(t, prog, interp.DefaultConfig(), rep)
			if rep.Diverged() {
				t.Fatal("replay diverged on the recording program")
			}
			if got.exit != rec.exit || got.reports != rec.reports {
				t.Fatalf("replay outcome differs:\nexit %d vs %d\nreports:\n%s---\n%s",
					got.exit, rec.exit, got.reports, rec.reports)
			}
		})
	}
}

// TestSchedCrossElisionReplay is the check-removal soundness oracle: a
// schedule recorded on the checked build replays without divergence on the
// discharged build (scheduling points anchor to memory accesses, which
// discharge never removes), and the discharged build must produce the same
// reports and exit value under that fixed schedule.
func TestSchedCrossElisionReplay(t *testing.T) {
	for _, file := range allCorpusFiles {
		t.Run(file, func(t *testing.T) {
			plain := buildCorpus(t, file, compile.DefaultOptions())
			discharged := buildDischarged(t, file)

			for _, seed := range []int64{1, 3, 7, 12, 17} {
				rec := schedRun(t, plain, interp.DefaultConfig(), sched.NewRandom(seed))
				tr, err := sched.UnmarshalTrace([]byte(rec.trace))
				if err != nil {
					t.Fatal(err)
				}
				rep := sched.NewReplay(tr)
				got := schedRun(t, discharged, interp.DefaultConfig(), rep)
				if rep.Diverged() {
					t.Fatalf("seed %d: trace did not align on the discharged build", seed)
				}
				if got.exit != rec.exit {
					t.Fatalf("seed %d: exit %d discharged, %d checked", seed, got.exit, rec.exit)
				}
				if got.reports != rec.reports {
					t.Fatalf("seed %d: discharge changed reports under a fixed schedule:\nchecked:\n%s---\ndischarged:\n%s",
						seed, rec.reports, got.reports)
				}
			}
		})
	}
}

// TestExploreFindsSeededRaces: each racy corpus program is detected within
// 100 schedules by the explorer, while a single free-running execution
// misses at least one of them (the wall-clock lifetime separation the
// programs are built around).
func TestExploreFindsSeededRaces(t *testing.T) {
	racy := []string{"racy_handoff.shc", "racy_pair.shc", "racy_reader.shc"}
	freeMisses := 0
	for _, file := range racy {
		t.Run(file, func(t *testing.T) {
			prog := buildCorpus(t, file, compile.DefaultOptions())

			// One free-running execution.
			rt := interp.New(prog, interp.DefaultConfig())
			if _, err := rt.Run(); err != nil {
				t.Fatalf("free run: %v", err)
			}
			freeRaces := len(rt.ReportsOfKind(interp.ReportRace))
			if freeRaces == 0 {
				freeMisses++
			}

			sum := interp.Explore(prog, interp.DefaultConfig(), interp.ExploreOptions{
				Schedules: 100, Strategy: "mix", Seed: 1,
			})
			races := 0
			for _, f := range sum.Findings {
				if f.Kind == interp.ReportRace {
					races++
				}
			}
			if races == 0 {
				t.Fatalf("explorer missed the race in %d schedules (%d findings total)",
					sum.Schedules, len(sum.Findings))
			}
		})
	}
	if freeMisses == 0 {
		t.Error("every free-running execution caught its race; the corpus no longer demonstrates the explorer's advantage")
	}
}

// TestSchedDeadlockDetection: an ABBA lock cycle written in ShC is
// detected by the controller (a free run would hang forever), surfacing
// as a thread-failure report rather than a hung test.
func TestSchedDeadlockDetection(t *testing.T) {
	const src = `
struct locks {
	mutex *a;
	mutex *b;
};

void *w1(void *d) {
	struct locks *l = d;
	mutexLock(l->a);
	sleepMs(5);
	mutexLock(l->b);
	mutexUnlock(l->b);
	mutexUnlock(l->a);
	return NULL;
}

void *w2(void *d) {
	struct locks *l = d;
	mutexLock(l->b);
	sleepMs(5);
	mutexLock(l->a);
	mutexUnlock(l->a);
	mutexUnlock(l->b);
	return NULL;
}

int main(void) {
	struct locks *l = malloc(sizeof(struct locks));
	l->a = mutexNew();
	l->b = mutexNew();
	struct locks dynamic *ld = SCAST(struct locks dynamic *, l);
	int h1 = spawn(w1, ld);
	int h2 = spawn(w2, ld);
	join(h1);
	join(h2);
	return 0;
}
`
	a, err := core.Analyze(parser.Source{Name: "abba.shc", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		r := schedRun(t, prog, interp.DefaultConfig(), sched.NewRandom(seed))
		if r.deadlock {
			found = true
			if !strings.Contains(r.reports, "deadlock") {
				t.Fatalf("deadlock declared but not reported:\n%s", r.reports)
			}
		}
	}
	if !found {
		t.Fatal("no seed in 0..19 exposed the ABBA deadlock")
	}
}

// TestSchedTidReuse: spawning far more threads than the tid pool holds
// forces id recycling through AwaitExit; recycled threads must start with
// clean lock logs and shadow state (no false reports), and the run must
// complete rather than starve.
func TestSchedTidReuse(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("struct cell {\n\tmutex *m;\n\tint locked(m) counter;\n};\n\n")
	sb.WriteString("void *w(void *d) {\n\tstruct cell *c = d;\n\tmutexLock(c->m);\n\tc->counter = c->counter + 1;\n\tmutexUnlock(c->m);\n\treturn NULL;\n}\n\n")
	sb.WriteString("int main(void) {\n\tstruct cell *c = malloc(sizeof(struct cell));\n\tc->m = mutexNew();\n")
	sb.WriteString("\tmutexLock(c->m);\n\tc->counter = 0;\n\tmutexUnlock(c->m);\n")
	sb.WriteString("\tstruct cell dynamic *cd = SCAST(struct cell dynamic *, c);\n")
	// 40 sequential spawn+join pairs > the 31-entry tid pool.
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "\tint h%d = spawn(w, cd);\n\tjoin(h%d);\n", i, i)
	}
	sb.WriteString("\tmutexLock(cd->m);\n\tint n = cd->counter;\n\tmutexUnlock(cd->m);\n\treturn n;\n}\n")

	a, err := core.Analyze(parser.Source{Name: "reuse.shc", Text: sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := schedRun(t, prog, interp.DefaultConfig(), sched.NewRandom(5))
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.exit != 40 {
		t.Fatalf("exit = %d, want 40", r.exit)
	}
	if r.reports != "" {
		t.Fatalf("unexpected reports:\n%s", r.reports)
	}
}
