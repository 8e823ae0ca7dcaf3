package interp_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/locklog"
	"repro/internal/sched"
)

// exec runs src fully instrumented, failing the test on analysis errors.
func exec(t *testing.T, src string) (*interp.Runtime, int64, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := interp.DefaultConfig()
	cfg.Stdout = &out
	rt, ret, err := core.BuildAndRun(src, compile.DefaultOptions(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt, ret, out.String()
}

func TestReturnValue(t *testing.T) {
	_, ret, _ := exec(t, `int main(void) { return 42; }`)
	if ret != 42 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	_, ret, _ := exec(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main(void) {
	int s = 0;
	for (int i = 0; i < 10; i++) s += fib(i);
	return s;
}
`)
	if ret != 88 {
		t.Fatalf("sum fib(0..9) = %d, want 88", ret)
	}
}

func TestWhileDoWhileSwitch(t *testing.T) {
	_, ret, _ := exec(t, `
int classify(int n) {
	switch (n % 3) {
	case 0: return 100;
	case 1: return 200;
	default: return 300;
	}
}
int main(void) {
	int i = 0, acc = 0;
	while (i < 3) { acc += classify(i); i++; }
	do { acc++; } while (acc < 0);
	return acc;
}
`)
	if ret != 601 {
		t.Fatalf("acc = %d, want 601", ret)
	}
}

func TestPointersAndHeap(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	int *a = malloc(10 * sizeof(int));
	for (int i = 0; i < 10; i++) a[i] = i * i;
	int s = 0;
	for (int i = 0; i < 10; i++) s += a[i];
	free(a);
	return s;
}
`)
	if ret != 285 {
		t.Fatalf("sum of squares = %d, want 285", ret)
	}
}

func TestStructsAndFunctionPointers(t *testing.T) {
	_, ret, _ := exec(t, `
typedef struct node {
	int value;
	struct node *next;
} node_t;

int twice(int x) { return 2 * x; }

struct ops { int (*apply)(int x); };

int main(void) {
	node_t *head = NULL;
	for (int i = 1; i <= 4; i++) {
		node_t *n = malloc(sizeof(node_t));
		n->value = i;
		n->next = head;
		head = n;
	}
	struct ops *o = malloc(sizeof(struct ops));
	o->apply = twice;
	int s = 0;
	node_t *p = head;
	while (p) { s += o->apply(p->value); p = p->next; }
	return s;
}
`)
	if ret != 20 {
		t.Fatalf("s = %d, want 20", ret)
	}
}

func TestStringsAndPrint(t *testing.T) {
	_, _, out := exec(t, `
int main(void) {
	char readonly *msg = "hello";
	print("len:");
	printInt(strlen(msg));
	if (strcmp(msg, "hello") == 0) print("eq\n");
	return 0;
}
`)
	if !strings.Contains(out, "len:") || !strings.Contains(out, "5") || !strings.Contains(out, "eq") {
		t.Fatalf("output = %q", out)
	}
}

func TestSpawnJoinSharedCounterWithMutex(t *testing.T) {
	src := `
struct shared {
	mutex *m;
	int locked(m) count;
};

void *worker(void *d) {
	struct shared *s = d;
	for (int i = 0; i < 100; i++) {
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
	mutexLock(sd->m);
	int total = sd->count;
	mutexUnlock(sd->m);
	return total;
}
`
	rt, ret, _ := exec(t, src)
	if ret != 200 {
		t.Fatalf("count = %d, want 200", ret)
	}
	for _, r := range rt.Reports() {
		t.Errorf("unexpected report: %s", r)
	}
}

func TestUnannotatedSharingReportsRace(t *testing.T) {
	// Two threads increment an unprotected dynamic counter: the shadow
	// memory must produce a conflict report in the paper's format.
	// The racy phase flag sequences the two conflicting accesses while both
	// threads stay alive (thread-exit clears shadow bits, so merely
	// sequential thread lifetimes would correctly not race).
	src := `
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
	rt, _, _ := exec(t, src)
	races := rt.ReportsOfKind(interp.ReportRace)
	if len(races) == 0 {
		t.Fatal("expected a race report for unprotected shared counter")
	}
	msg := races[0].Msg
	if !strings.Contains(msg, "conflict(0x") || !strings.Contains(msg, "who(") || !strings.Contains(msg, "last(") {
		t.Errorf("report format: %s", msg)
	}
	if !strings.Contains(msg, "p[0]") {
		t.Errorf("report should name the l-value: %s", msg)
	}
}

func TestLockViolationReported(t *testing.T) {
	src := `
struct shared { mutex *m; int locked(m) v; };
void *worker(void *d) {
	struct shared *s = d;
	s->v = 7;
	return NULL;
}
int main(void) {
	struct shared *s = malloc(sizeof(struct shared));
	s->m = mutexNew();
	int t1 = spawn(worker, SCAST(struct shared dynamic *, s));
	join(t1);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	locks := rt.ReportsOfKind(interp.ReportLock)
	if len(locks) == 0 {
		t.Fatal("expected a lock violation report")
	}
	if !strings.Contains(locks[0].Msg, "s->v") {
		t.Errorf("report should name the l-value: %s", locks[0].Msg)
	}
}

func TestOnerefFailureReported(t *testing.T) {
	// Casting while a second reference exists must fail the oneref check.
	src := `
struct box { int *p; };
int main(void) {
	int *buf = malloc(4);
	struct box *b = malloc(sizeof(struct box));
	b->p = buf;
	int dynamic *d = SCAST(int dynamic *, buf);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	one := rt.ReportsOfKind(interp.ReportOneRef)
	if len(one) == 0 {
		t.Fatalf("expected a oneref failure; reports: %v", rt.Reports())
	}
	if !strings.Contains(one[0].Msg, "references") {
		t.Errorf("oneref message: %s", one[0].Msg)
	}
}

func TestOnerefSuccessAfterNullingOtherRef(t *testing.T) {
	src := `
struct box { int *p; };
int main(void) {
	int *buf = malloc(4);
	struct box *b = malloc(sizeof(struct box));
	b->p = buf;
	b->p = NULL;
	int dynamic *d = SCAST(int dynamic *, buf);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	if one := rt.ReportsOfKind(interp.ReportOneRef); len(one) != 0 {
		t.Fatalf("unexpected oneref failure: %v", one)
	}
}

func TestScastNullsSource(t *testing.T) {
	src := `
int main(void) {
	int *buf = malloc(4);
	int dynamic *d = SCAST(int dynamic *, buf);
	if (buf == NULL) return 1;
	return 0;
}
`
	_, ret, _ := exec(t, src)
	if ret != 1 {
		t.Fatal("SCAST must null its source")
	}
}

func TestOwnershipHandoffRunsClean(t *testing.T) {
	// Producer fills a buffer privately, casts it, hands it to a consumer
	// that casts it back to private: no reports.
	src := `
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
	for (int i = 0; i < 8; i++) s += mine[i];
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
	rt, ret, _ := exec(t, src)
	if ret != 36 {
		t.Fatalf("result = %d, want 36", ret)
	}
	for _, r := range rt.Reports() {
		t.Errorf("unexpected report: %s", r)
	}
}

func TestRacyModeUnchecked(t *testing.T) {
	// A racy flag is intentionally shared without synchronization: no
	// reports, matching pbzip2's benign-race annotation.
	src := `
int racy done;
void *worker(void *d) {
	int n = 0;
	while (!done) { n++; if (n > 100000) break; yield(); }
	return NULL;
}
int main(void) {
	int t1 = spawn(worker, malloc(1));
	done = 1;
	join(t1);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	if races := rt.ReportsOfKind(interp.ReportRace); len(races) != 0 {
		t.Fatalf("racy data must not be checked: %v", races)
	}
}

func TestDynamicGlobalInitThenSpawnReports(t *testing.T) {
	// The classic init-then-spawn false positive (§2.1): without a racy or
	// locked annotation, the write by main and reads by the worker conflict.
	src := `
int done;
void *worker(void *d) {
	int n = done;
	return NULL;
}
int main(void) {
	done = 1;
	int t1 = spawn(worker, malloc(1));
	join(t1);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	if races := rt.ReportsOfKind(interp.ReportRace); len(races) == 0 {
		t.Fatal("expected a conflict report for unannotated shared flag")
	}
}

func TestThreadExitClearsBits(t *testing.T) {
	// Sequential threads may touch the same object: not a race (§4.2.1).
	src := `
void *worker(void *d) {
	int *p = d;
	p[0] = p[0] + 1;
	return NULL;
}
int main(void) {
	int *buf = malloc(4);
	int dynamic *s = SCAST(int dynamic *, buf);
	int t1 = spawn(worker, s);
	join(t1);
	int t2 = spawn(worker, s);
	join(t2);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	if races := rt.ReportsOfKind(interp.ReportRace); len(races) != 0 {
		t.Fatalf("non-overlapping threads must not race: %v", races)
	}
}

func TestFreeClearsShadowAndReuse(t *testing.T) {
	src := `
void *worker(void *d) {
	int *p = d;
	p[0] = 1;
	free(p);
	return NULL;
}
int main(void) {
	int *a = malloc(4);
	int t1 = spawn(worker, SCAST(int dynamic *, a));
	join(t1);
	int *b = malloc(4);
	b[0] = 2;
	return b[0];
}
`
	rt, ret, _ := exec(t, src)
	if ret != 2 {
		t.Fatalf("ret = %d", ret)
	}
	if races := rt.ReportsOfKind(interp.ReportRace); len(races) != 0 {
		t.Fatalf("freed+reused memory must not race: %v", races)
	}
}

func TestAssertFailure(t *testing.T) {
	cfg := interp.DefaultConfig()
	_, _, err := core.BuildAndRun(`int main(void) { assert(1 == 2); return 0; }`,
		compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "assertion") {
		t.Fatalf("err = %v", err)
	}
}

func TestNullDereferenceFails(t *testing.T) {
	cfg := interp.DefaultConfig()
	_, _, err := core.BuildAndRun(`
int main(void) {
	int *p = NULL;
	return p[0];
}
`, compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "invalid memory access") {
		t.Fatalf("err = %v", err)
	}
}

// panicObserver is an Eraser detector whose Access panics on every thread
// but main, standing in for an interpreter bug on a spawned goroutine.
type panicObserver struct{ *baseline.Eraser }

func (o panicObserver) Access(tid int, addr int64, write bool, locks *locklog.Log, site int) {
	if tid != 1 {
		panic("observer fault")
	}
	o.Eraser.Access(tid, addr, write, locks, site)
}

// TestInternalPanicContained: an unexpected panic on a spawned thread's
// goroutine is reported as that thread's internal-error failure, and the
// run finishes and returns it, free-running and scheduled alike, instead
// of crashing the host process.
func TestInternalPanicContained(t *testing.T) {
	const src = `
int g;

void *worker(void *d) {
	g = 1;
	return NULL;
}

int main(void) {
	int h = spawn(worker, NULL);
	join(h);
	return 7;
}
`
	for _, scheduled := range []bool{false, true} {
		cfg := interp.DefaultConfig()
		cfg.Observer = panicObserver{baseline.NewEraser()}
		if scheduled {
			cfg.Sched = sched.New(sched.NewRandom(1), sched.Options{})
		}
		rt, ret, err := core.BuildAndRun(src, compile.DefaultOptions(), cfg)
		if err == nil || !strings.Contains(err.Error(), "internal error: observer fault") {
			t.Fatalf("scheduled=%v: err = %v", scheduled, err)
		}
		if ret != 7 {
			t.Fatalf("scheduled=%v: main returned %d, want 7", scheduled, ret)
		}
		if fails := rt.ReportsOfKind(interp.ReportThreadFail); len(fails) != 1 {
			t.Fatalf("scheduled=%v: %d thread-failure reports, want 1", scheduled, len(fails))
		}
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	cfg := interp.DefaultConfig()
	_, _, err := core.BuildAndRun(`
int main(void) {
	int z = 0;
	return 5 / z;
}
`, compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestUncheckedBuildHasNoChecks(t *testing.T) {
	// The "Orig" baseline: same program, no instrumentation, races go
	// unreported.
	src := `
void *worker(void *d) {
	int *p = d;
	for (int i = 0; i < 50; i++) p[0] = p[0] + 1;
	return NULL;
}
int main(void) {
	int *buf = malloc(sizeof(int));
	int dynamic *s = SCAST(int dynamic *, buf);
	int t1 = spawn(worker, s);
	int t2 = spawn(worker, s);
	join(t1);
	join(t2);
	return 0;
}
`
	cfg := interp.DefaultConfig()
	rt, _, err := core.BuildAndRun(src, compile.Options{Checks: false, RC: false}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Reports()) != 0 {
		t.Fatalf("unchecked build must not report: %v", rt.Reports())
	}
	if rt.Stats().DynamicAccesses != 0 {
		t.Fatal("unchecked build must not count dynamic accesses")
	}
}

func TestStatsCounting(t *testing.T) {
	rt, _, _ := exec(t, `
void *worker(void *d) {
	int *p = d;
	for (int i = 0; i < 10; i++) p[i] = i;
	return NULL;
}
int main(void) {
	int *buf = malloc(10 * sizeof(int));
	int t1 = spawn(worker, SCAST(int dynamic *, buf));
	join(t1);
	return 0;
}
`)
	st := rt.Stats()
	if st.TotalAccesses == 0 || st.DynamicAccesses == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.DynamicAccesses > st.TotalAccesses {
		t.Fatalf("dynamic > total: %+v", st)
	}
	if st.MaxThreads < 2 {
		t.Fatalf("max threads = %d", st.MaxThreads)
	}
}

func TestManySequentialThreads(t *testing.T) {
	// More spawns than thread ids: ids must recycle.
	src := `
int racy total;
void *worker(void *d) {
	int *p = d;
	p[0] = p[0] + 1;
	return NULL;
}
int main(void) {
	for (int i = 0; i < 100; i++) {
		int *buf = malloc(4);
		int h = spawn(worker, SCAST(int dynamic *, buf));
		join(h);
		free(buf);
	}
	return 0;
}
`
	rt, _, _ := exec(t, src)
	if races := rt.ReportsOfKind(interp.ReportRace); len(races) != 0 {
		t.Fatalf("unexpected races: %v", races)
	}
}

func TestGlobalArraysAndInit(t *testing.T) {
	_, ret, _ := exec(t, `
int table[8];
int limit = 5;
int main(void) {
	for (int i = 0; i < 8; i++) table[i] = i;
	int s = 0;
	for (int i = 0; i < limit; i++) s += table[i];
	return s;
}
`)
	if ret != 10 {
		t.Fatalf("ret = %d, want 10", ret)
	}
}

func TestMemBuiltins(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	char *a = malloc(16);
	memset(a, 7, 16);
	char *b = malloc(16);
	memcpy(b, a, 16);
	int s = 0;
	for (int i = 0; i < 16; i++) s += b[i];
	free(a);
	free(b);
	return s;
}
`)
	if ret != 112 {
		t.Fatalf("ret = %d, want 112", ret)
	}
}

func TestStrstrAndStrcpy(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	char *buf = malloc(32);
	strcpy(buf, "needle in haystack");
	return strstr(buf, "hay");
}
`)
	if ret != 10 {
		t.Fatalf("strstr = %d, want 10", ret)
	}
}
