package sharc

// Soundness cross-checks between the static vet analysis and the dynamic
// detectors, over the whole interpreter corpus:
//
//  1. every vet must-race is confirmed by schedule exploration — some
//     explored schedule produces a dynamic conflict at one of the
//     finding's two positions — and no clean corpus program has any must
//     finding (zero false musts);
//  2. the discharge oracle: a schedule recorded on the fully-checked
//     build replays on the discharged build without divergence and with
//     identical reports and exit value, so no access vet marked safe ever
//     produces a dynamic violation.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", "interp", "testdata", "*.shc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	return files
}

func checkFile(t *testing.T, path string) *Analysis {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Check(Source{Name: path, Text: string(data)})
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("%s: static checking failed: %v", path, a.Errors())
	}
	return a
}

// TestVetMustRacesConfirmedByExplore is cross-check (1): must findings are
// exactly the seeded races, each reproduced dynamically by exploration.
func TestVetMustRacesConfirmedByExplore(t *testing.T) {
	for _, path := range corpusFiles(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			a := checkFile(t, path)
			rep := a.Vet()

			racy := strings.HasPrefix(filepath.Base(path), "racy_")
			if !racy {
				if rep.MustCount() != 0 {
					t.Fatalf("false must verdict on clean program:\n%s", rep.Format())
				}
				return
			}
			if rep.MustCount() == 0 {
				t.Fatalf("seeded racy program has no must finding:\n%s", rep.Format())
			}

			p, err := a.Build(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sum := p.Explore(ExploreOptions{Schedules: 200, Strategy: "mix", Seed: 1})
			dynamic := make(map[string]bool)
			for _, f := range sum.Findings {
				dynamic[fmt.Sprintf("%s:%d:%d", f.Pos.File, f.Pos.Line, f.Pos.Col)] = true
			}
			for _, f := range rep.Findings {
				if f.Severity != "must" {
					continue
				}
				at := fmt.Sprintf("%s:%d:%d", f.Pos.File, f.Pos.Line, f.Pos.Col)
				other := fmt.Sprintf("%s:%d:%d", f.OtherPos.File, f.OtherPos.Line, f.OtherPos.Col)
				if !dynamic[at] && !dynamic[other] {
					t.Errorf("must finding at %s/%s not confirmed by exploration (dynamic sites: %v)",
						at, other, dynamic)
				}
			}
		})
	}
}

// TestVetDischargeReplayOracle is cross-check (2): the replay oracle over
// the discharged build. Discharge removes checks without touching
// scheduling points, so a trace recorded on the plain checked build must
// replay on the discharged build without divergence, with byte-identical
// output, reports, and exit value.
func TestVetDischargeReplayOracle(t *testing.T) {
	for _, path := range corpusFiles(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			a := checkFile(t, path)

			var plainOut, dischOut strings.Builder
			plainOpts := DefaultOptions()
			plainOpts.Stdout = &plainOut
			plain, err := a.Build(plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			dischOpts := DefaultOptions()
			dischOpts.StaticDischarge = true
			dischOpts.Stdout = &dischOut
			disch, err := a.Build(dischOpts)
			if err != nil {
				t.Fatal(err)
			}

			for seed := int64(1); seed <= 5; seed++ {
				plainOut.Reset()
				dischOut.Reset()
				resP, tr, err := plain.RunRecorded(seed)
				if err != nil {
					t.Fatalf("seed %d record: %v", seed, err)
				}
				resD, diverged, err := disch.RunReplay(tr)
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				if diverged {
					t.Fatalf("seed %d: discharged build diverged from recorded schedule", seed)
				}
				if resP.Exit != resD.Exit {
					t.Fatalf("seed %d: exit %d vs %d", seed, resP.Exit, resD.Exit)
				}
				if plainOut.String() != dischOut.String() {
					t.Fatalf("seed %d: output differs:\n%s---\n%s", seed, plainOut.String(), dischOut.String())
				}
				if len(resP.Reports) != len(resD.Reports) {
					t.Fatalf("seed %d: %d vs %d reports", seed, len(resP.Reports), len(resD.Reports))
				}
				for i := range resP.Reports {
					if resP.Reports[i].Msg != resD.Reports[i].Msg {
						t.Fatalf("seed %d report %d:\n%s\nvs\n%s", seed, i,
							resP.Reports[i].Msg, resD.Reports[i].Msg)
					}
				}
			}
		})
	}
}

// TestVetDischargeCountsSurface pins the accounting hand-off: discharged
// sites appear in the build's check-site stats and raise the avoided
// fraction on a program with a clean lock discipline.
func TestVetDischargeCountsSurface(t *testing.T) {
	path := filepath.Join("internal", "interp", "testdata", "bank.shc")
	a := checkFile(t, path)

	opts := DefaultOptions()
	plain, err := a.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.StaticDischarge = true
	disch, err := a.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	pe, de := plain.Elision(), disch.Elision()
	if de.Discharged() == 0 {
		t.Fatal("bank.shc discharged no checks; its lock discipline is fully analyzable")
	}
	if de.DischargedLocked == 0 {
		t.Error("bank's discharge should include locked sites")
	}
	if de.AvoidedFraction() <= pe.AvoidedFraction() {
		t.Errorf("discharge did not raise avoided fraction: %.3f vs %.3f",
			de.AvoidedFraction(), pe.AvoidedFraction())
	}
}

// absintTicketProg is certifiable only by the interval tier: workers draw
// lock-protected tickets and write granule-disjoint two-cell regions. It
// rides along with the corpus below so the exploration cross-check covers
// an interval-bounded proof, which the corpus programs never produce (the
// Table-1 benchmarks do, but they are far too slow under the exploration
// scheduler).
const absintTicketProg = `
struct pool {
	mutex *m;
	int locked(m) next;
	char dynamic *buf;
};

void *worker(void *d) {
	struct pool dynamic *p = d;
	while (1) {
		mutexLock(p->m);
		int t = p->next;
		if (t >= 32) { mutexUnlock(p->m); return NULL; }
		p->next = t + 1;
		mutexUnlock(p->m);
		char dynamic *b = p->buf;
		b[t * 2] = 1;
		b[t * 2 + 1] = 2;
	}
	return NULL;
}

int main(void) {
	struct pool *p = malloc(sizeof(struct pool));
	p->m = mutexNew();
	mutexLock(p->m);
	p->next = 0;
	mutexUnlock(p->m);
	char *raw = malloc(64);
	p->buf = SCAST(char dynamic *, raw);
	struct pool dynamic *pd = SCAST(struct pool dynamic *, p);
	int t1 = spawn(worker, pd);
	int t2 = spawn(worker, pd);
	join(t1);
	join(t2);
	return 0;
}
`

// TestAbsintDischargeNeverConflicts is cross-check (3), for the absint
// tier specifically: a site the abstract interpreter discharged must never
// appear in any conflict set that schedule exploration finds — over the
// whole corpus plus the ticket program, five exploration seeds each. An
// overlap would mean a proof elided a check that some real schedule needs.
func TestAbsintDischargeNeverConflicts(t *testing.T) {
	if testing.Short() {
		t.Skip("explores many schedules")
	}
	type prog struct {
		name string
		text string
	}
	var progs []prog
	for _, path := range corpusFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{path, string(data)})
	}
	progs = append(progs, prog{"ticket.shc", absintTicketProg})

	totalProofs := 0
	for _, pr := range progs {
		pr := pr
		t.Run(filepath.Base(pr.name), func(t *testing.T) {
			a, err := Check(Source{Name: pr.name, Text: pr.text})
			if err != nil {
				t.Fatal(err)
			}
			if !a.OK() {
				t.Fatalf("static checking failed: %v", a.Errors())
			}
			proofs := a.Vet().Proofs()
			if len(proofs) == 0 {
				return // nothing discharged by absint; nothing to falsify
			}
			totalProofs += len(proofs)

			p, err := a.Build(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 5; seed++ {
				sum := p.Explore(ExploreOptions{Schedules: 40, Strategy: "mix", Seed: seed})
				for _, f := range sum.Findings {
					at := fmt.Sprintf("%s:%d:%d", f.Pos.File, f.Pos.Line, f.Pos.Col)
					if pf, ok := proofs[at]; ok {
						t.Errorf("seed %d: explore conflict at %s, which absint proved %s (%s)",
							seed, at, pf.Reason, pf.Detail)
					}
				}
			}
		})
	}
	if totalProofs == 0 {
		t.Error("no program produced an absint proof; the cross-check never ran")
	}
}
