package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/locklog"
)

// run executes src with the given observer attached.
func run(t *testing.T, src string, obs interp.Observer) *interp.Runtime {
	t.Helper()
	cfg := interp.DefaultConfig()
	cfg.Observer = obs
	rt, _, err := core.BuildAndRun(src, compile.DefaultOptions(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt
}

const lockedCounter = `
struct shared { mutex *m; int locked(m) count; };
void *worker(void *d) {
	struct shared *s = d;
	for (int i = 0; i < 20; i++) {
		mutexLock(s->m);
		s->count = s->count + 1;
		mutexUnlock(s->m);
	}
	return NULL;
}
int main(void) {
	struct shared *s = malloc(sizeof(struct shared));
	s->m = mutexNew();
	mutexLock(s->m);
	s->count = 0;
	mutexUnlock(s->m);
	struct shared dynamic *sd = SCAST(struct shared dynamic *, s);
	int t1 = spawn(worker, sd);
	int t2 = spawn(worker, sd);
	join(t1);
	join(t2);
	return 0;
}
`

func TestEraserCleanOnLockedCounter(t *testing.T) {
	e := baseline.NewEraser()
	run(t, lockedCounter, e)
	if n := e.RaceCount(); n != 0 {
		t.Fatalf("eraser races = %d: %v", n, e.Races())
	}
	if e.Events() == 0 {
		t.Fatal("observer saw no events")
	}
}

func TestHBCleanOnLockedCounter(t *testing.T) {
	h := baseline.NewHB()
	run(t, lockedCounter, h)
	if n := h.RaceCount(); n != 0 {
		t.Fatalf("hb races = %d: %v", n, h.Races())
	}
}

const unprotectedRace = `
int racy phase;
void *writerA(void *d) {
	int *p = d;
	p[0] = 1;
	phase = 1;
	while (phase < 2) yield();
	return NULL;
}
void *writerB(void *d) {
	int *p = d;
	while (phase < 1) yield();
	p[0] = 2;
	phase = 2;
	return NULL;
}
int main(void) {
	int *buf = malloc(sizeof(int));
	int dynamic *shared = SCAST(int dynamic *, buf);
	int t1 = spawn(writerA, shared);
	int t2 = spawn(writerB, shared);
	join(t1);
	join(t2);
	return 0;
}
`

func TestBothDetectUnprotectedRace(t *testing.T) {
	e := baseline.NewEraser()
	run(t, unprotectedRace, e)
	if e.RaceCount() == 0 {
		t.Error("eraser should flag the unprotected write-write race")
	}
	h := baseline.NewHB()
	run(t, unprotectedRace, h)
	if h.RaceCount() == 0 {
		t.Error("hb should flag the unprotected write-write race")
	}
}

// handoff transfers buffer ownership through a locked mailbox — the pattern
// §6 says lockset detectors misreport: the buffer itself is never accessed
// under a lock, so Eraser's candidate lockset empties, while SharC's
// sharing casts (and true happens-before) model the transfer.
const handoff = `
struct chan {
	mutex *m;
	cond *cv;
	int locked(m) *locked(m) data;
};
int result;
void *consumer(void *d) {
	struct chan *c = d;
	mutexLock(c->m);
	while (c->data == NULL) condWait(c->cv, c->m);
	int private *mine = SCAST(int private *, c->data);
	c->data = NULL;
	mutexUnlock(c->m);
	int s = 0;
	for (int i = 0; i < 8; i++) {
		mine[i] = mine[i] * 2;
		s += mine[i];
	}
	result = s;
	free(mine);
	return NULL;
}
int main(void) {
	struct chan *c = malloc(sizeof(struct chan));
	c->m = mutexNew();
	c->cv = condNew();
	mutexLock(c->m);
	c->data = NULL;
	mutexUnlock(c->m);
	struct chan dynamic *cd = SCAST(struct chan dynamic *, c);
	int t1 = spawn(consumer, cd);
	int *buf = malloc(8 * sizeof(int));
	for (int i = 0; i < 8; i++) buf[i] = i + 1;
	mutexLock(cd->m);
	cd->data = SCAST(int locked(cd->m) *, buf);
	condSignal(cd->cv);
	mutexUnlock(cd->m);
	join(t1);
	return result;
}
`

func TestEraserFalsePositiveOnHandoff(t *testing.T) {
	// SharC (with annotations) runs the handoff clean; Eraser reports the
	// buffer because its accesses are never commonly locked.
	e := baseline.NewEraser()
	rt := run(t, handoff, e)
	if len(rt.ReportsOfKind(interp.ReportRace)) != 0 {
		t.Fatalf("SharC itself must be clean: %v", rt.Reports())
	}
	if e.RaceCount() == 0 {
		t.Fatal("expected Eraser to misreport the ownership handoff (the §6 contrast)")
	}
}

func TestHBAcceptsHandoff(t *testing.T) {
	// The happens-before detector sees the cond/mutex edges and accepts the
	// handoff (fewer false positives, as §6 notes for HB-based tools).
	h := baseline.NewHB()
	run(t, handoff, h)
	if n := h.RaceCount(); n != 0 {
		t.Fatalf("hb should accept the handoff: %v", h.Races())
	}
}

func TestVCPrimitives(t *testing.T) {
	a := baseline.VC{1: 3, 2: 1}
	b := baseline.VC{1: 2, 2: 5}
	if a.LEq(b) || b.LEq(a) {
		t.Fatal("incomparable clocks")
	}
	c := a.Copy()
	c.Join(b)
	if c[1] != 3 || c[2] != 5 {
		t.Fatalf("join = %v", c)
	}
	if !a.LEq(c) || !b.LEq(c) {
		t.Fatal("join must dominate operands")
	}
	// Copy independence.
	c[1] = 99
	if a[1] != 3 {
		t.Fatal("copy must be independent")
	}
}

// TestRecycledLocationReportedOnce: a location that races, is freed,
// reallocated and races again is reported once by each detector, and the
// race count agrees with the report list.
func TestRecycledLocationReportedOnce(t *testing.T) {
	const addr = 0x100
	none := locklog.New()
	for _, d := range []interface {
		interp.Observer
		Races() []string
		RaceCount() int
	}{baseline.NewEraser(), baseline.NewHB()} {
		for round := 0; round < 2; round++ {
			d.Malloc(1, addr, 4)
			d.Access(1, addr, true, none, 0)
			d.Access(2, addr, true, none, 0)
			d.Free(1, addr, 4)
		}
		races := d.Races()
		if len(races) != 1 || d.RaceCount() != 1 {
			t.Errorf("%T: %d race(s) counted, reports %q; want one of each", d, d.RaceCount(), races)
		}
	}
}
