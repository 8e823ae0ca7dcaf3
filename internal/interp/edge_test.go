package interp_test

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
)

func TestCondBroadcastWakesAll(t *testing.T) {
	src := `
struct gate {
	mutex *m;
	cond *cv;
	int locked(m) open;
	int locked(m) through;
};
void *waiter(void *d) {
	struct gate *g = d;
	mutexLock(g->m);
	while (!g->open) condWait(g->cv, g->m);
	g->through = g->through + 1;
	mutexUnlock(g->m);
	return NULL;
}
int main(void) {
	struct gate *g = malloc(sizeof(struct gate));
	g->m = mutexNew();
	g->cv = condNew();
	mutexLock(g->m);
	g->open = 0;
	g->through = 0;
	mutexUnlock(g->m);
	struct gate dynamic *gd = SCAST(struct gate dynamic *, g);
	int h1 = spawn(waiter, gd);
	int h2 = spawn(waiter, gd);
	int h3 = spawn(waiter, gd);
	sleepMs(5);
	mutexLock(gd->m);
	gd->open = 1;
	condBroadcast(gd->cv);
	mutexUnlock(gd->m);
	join(h1);
	join(h2);
	join(h3);
	mutexLock(gd->m);
	int n = gd->through;
	mutexUnlock(gd->m);
	return n;
}
`
	rt, ret, _ := exec(t, src)
	if ret != 3 {
		t.Fatalf("through = %d, want 3", ret)
	}
	for _, r := range rt.Reports() {
		t.Errorf("report: %s", r)
	}
}

func TestSwitchFallthroughRuntime(t *testing.T) {
	_, ret, _ := exec(t, `
int f(int n) {
	int acc = 0;
	switch (n) {
	case 1:
		acc += 1;
	case 2:
		acc += 10;
		break;
	case 3:
		acc += 100;
	default:
		acc += 1000;
	}
	return acc;
}
int main(void) { return f(1) * 1000000 + f(3) * 1000 + f(9); }
`)
	// f(1): 1+10 = 11 (fallthrough then break); f(3): 100+1000 = 1100;
	// f(9): default = 1000.
	if ret != 11*1000000+1100*1000+1000 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestStackOverflowCaught(t *testing.T) {
	cfg := interp.DefaultConfig()
	cfg.StackCells = 256
	_, _, err := core.BuildAndRun(`
int recurse(int n) { return recurse(n + 1); }
int main(void) { return recurse(0); }
`, compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfMemoryCaught(t *testing.T) {
	cfg := interp.DefaultConfig()
	cfg.HeapCells = 1024
	_, _, err := core.BuildAndRun(`
int main(void) {
	while (1) {
		int *p = malloc(512);
		p[0] = 1;
	}
	return 0;
}
`, compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v", err)
	}
}

func TestFreeInvalidPointerCaught(t *testing.T) {
	cfg := interp.DefaultConfig()
	_, _, err := core.BuildAndRun(`
int main(void) {
	int *p = malloc(8);
	free(p + 1);
	return 0;
}
`, compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "free of invalid pointer") {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleFreeCaught(t *testing.T) {
	cfg := interp.DefaultConfig()
	_, _, err := core.BuildAndRun(`
int main(void) {
	int *p = malloc(8);
	int *q = p;
	free(p);
	free(q);
	return 0;
}
`, compile.DefaultOptions(), cfg)
	if err == nil || !strings.Contains(err.Error(), "free of invalid pointer") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnlockUnheldReported(t *testing.T) {
	rt, _, _ := exec(t, `
int main(void) {
	mutex *m = mutexNew();
	mutexUnlock(m);
	return 0;
}
`)
	locks := rt.ReportsOfKind(interp.ReportLock)
	if len(locks) == 0 {
		t.Fatal("expected unlock-unheld report")
	}
}

func TestThreadExitHoldingLockReported(t *testing.T) {
	src := `
void *worker(void *d) {
	mutex *m = mutexNew();
	mutexLock(m);
	return NULL;
}
int main(void) {
	int h = spawn(worker, malloc(2));
	join(h);
	return 0;
}
`
	rt, _, _ := exec(t, src)
	found := false
	for _, r := range rt.ReportsOfKind(interp.ReportLock) {
		if strings.Contains(r.Msg, "exited holding") {
			found = true
		}
	}
	if !found {
		t.Fatal("expected exited-holding-lock report")
	}
}

func TestCondWaitWithoutMutexReported(t *testing.T) {
	rt, _, _ := exec(t, `
int racy poked;
void *poker(void *d) {
	while (!poked) yield();
	sleepMs(1);
	cond racy *c = d;
	condSignal(c);
	return NULL;
}
int main(void) {
	cond *c = condNew();
	mutex *m = mutexNew();
	int h = spawn(poker, c);
	mutexLock(m);
	poked = 1;
	condWait(c, m);
	mutexUnlock(m);
	join(h);
	return 0;
}
`)
	_ = rt // waiting correctly here; just ensure no deadlock and clean exit
}

func TestSpawnThroughFunctionPointerField(t *testing.T) {
	src := `
struct task { void *(*run)(void dynamic *arg); };
int racy ran;
void *doit(void *d) { ran = 1; return NULL; }
int main(void) {
	struct task *t = malloc(sizeof(struct task));
	t->run = doit;
	int h = spawn(t->run, malloc(2));
	join(h);
	return ran;
}
`
	_, ret, _ := exec(t, src)
	if ret != 1 {
		t.Fatalf("ran = %d", ret)
	}
}

func TestNegativeModuloAndDivision(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	int a = -7 % 3;
	int b = -7 / 2;
	return (a == -1) + (b == -3) * 2;
}
`)
	_ = ret
}

func TestCharTruncationSemantics(t *testing.T) {
	// Cells are int64: ShC chars are not truncated at 8 bits (documented
	// divergence from C); programs use explicit masking when they care.
	_, ret, _ := exec(t, `
int main(void) {
	char *c = malloc(1);
	c[0] = 300;
	return c[0] & 255;
}
`)
	if ret != 44 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestLogicalShortCircuit(t *testing.T) {
	_, ret, _ := exec(t, `
int g;
int bump(void) { g = g + 1; return 1; }
int main(void) {
	g = 0;
	int a = 0 && bump();
	int b = 1 || bump();
	return g * 10 + a + b;
}
`)
	if ret != 1 {
		t.Fatalf("short circuit: ret = %d, want 1 (g must stay 0)", ret)
	}
}

func TestTernaryAndComparisons(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	int x = 5;
	int y = x > 3 ? (x <= 5 ? 10 : 20) : 30;
	return y + (x != 5) + (x == 5) * 2;
}
`)
	if ret != 12 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestMaxReportsCap(t *testing.T) {
	// A very racy program must not accumulate unbounded reports.
	src := `
int racy phase;
void *writerA(void *d) {
	int *p = d;
	for (int i = 0; i < 32; i++) p[i*2] = 1;
	phase = 1;
	while (phase < 2) yield();
	return NULL;
}
void *writerB(void *d) {
	int *p = d;
	while (phase < 1) yield();
	for (int i = 0; i < 32; i++) p[i*2] = 2;
	phase = 2;
	return NULL;
}
int main(void) {
	int *buf = malloc(64 * sizeof(int));
	int dynamic *s = SCAST(int dynamic *, buf);
	int t1 = spawn(writerA, s);
	int t2 = spawn(writerB, s);
	join(t1);
	join(t2);
	return 0;
}
`
	cfg := interp.DefaultConfig()
	cfg.MaxReports = 5
	rt, _, err := core.BuildAndRun(src, compile.DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Reports()); n > 5 {
		t.Fatalf("reports capped at 5, got %d", n)
	}
	if n := len(rt.Reports()); n == 0 {
		t.Fatal("expected some reports")
	}
}

// TestCustomAllocatorSupport exercises the §4.5 extension: a user-written
// arena allocator recycles chunks between threads. Without the
// shcRecycle trusted annotation SharC reports false races on recycled
// chunks; with it the program runs clean.
func TestCustomAllocatorSupport(t *testing.T) {
	const tmpl = `
struct arena {
	mutex *m;
	char dynamic *base;
	int locked(m) next;
};

char dynamic *arenaAlloc(struct arena dynamic *a, int n) {
	mutexLock(a->m);
	int off = a->next;
	a->next = off + n;
	mutexUnlock(a->m);
	RECYCLE
	return a->base + off;
}

void arenaResetHalf(struct arena dynamic *a) {
	mutexLock(a->m);
	a->next = 0;
	mutexUnlock(a->m);
}

int racy phase;

void *workerA(void *d) {
	struct arena *a = d;
	char dynamic *buf = arenaAlloc(a, 64);
	for (int i = 0; i < 64; i++) buf[i] = i;
	phase = 1;
	while (phase < 2) yield();
	return NULL;
}

void *workerB(void *d) {
	struct arena *a = d;
	while (phase < 1) yield();
	arenaResetHalf(a);
	char dynamic *buf = arenaAlloc(a, 64);
	for (int i = 0; i < 64; i++) buf[i] = 64 - i;
	phase = 2;
	return NULL;
}

int main(void) {
	struct arena *a = malloc(sizeof(struct arena));
	a->m = mutexNew();
	char *raw = malloc(4096);
	a->base = SCAST(char dynamic *, raw);
	mutexLock(a->m);
	a->next = 0;
	mutexUnlock(a->m);
	struct arena dynamic *ad = SCAST(struct arena dynamic *, a);
	int h1 = spawn(workerA, ad);
	int h2 = spawn(workerB, ad);
	join(h1);
	join(h2);
	return 0;
}
`
	// Without the hook: the recycled chunk still carries workerA's writer
	// bits and workerB's writes are reported.
	without := strings.Replace(tmpl, "RECYCLE", "", 1)
	rt, _, _ := exec(t, without)
	if len(rt.ReportsOfKind(interp.ReportRace)) == 0 {
		t.Fatal("custom allocator without shcRecycle should misreport (§4.5)")
	}
	// With the hook the recycled range is cleared, like free().
	with := strings.Replace(tmpl, "RECYCLE", "shcRecycle(a->base + off, n);", 1)
	rt2, _, _ := exec(t, with)
	if races := rt2.ReportsOfKind(interp.ReportRace); len(races) != 0 {
		t.Fatalf("shcRecycle should silence the recycling: %v", races)
	}
}

func TestPrintVariadicInts(t *testing.T) {
	_, _, out := exec(t, `
int main(void) {
	print("values:", 1, 2, 3);
	print("\n");
	return 0;
}
`)
	if !strings.Contains(out, "values: 1 2 3") {
		t.Fatalf("output = %q", out)
	}
}

func TestCondSignalBeforeAnyWaiter(t *testing.T) {
	// Signaling a condition variable nobody has waited on is a no-op.
	_, ret, _ := exec(t, `
int main(void) {
	cond *c = condNew();
	condSignal(c);
	condBroadcast(c);
	return 7;
}
`)
	if ret != 7 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestStrBuiltinsEdgeCases(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	char *empty = malloc(1);
	empty[0] = 0;
	int a = strlen(empty);              // 0
	int b = strcmp(empty, "");          // 0
	int c = strstr("hay", "missing");   // -1
	int d = strstr("abc", "");          // 0 (empty needle matches at 0)
	return a * 1000 + (b == 0) * 100 + (c == -1) * 10 + (d == 0);
}
`)
	if ret != 111 {
		t.Fatalf("ret = %d, want 111", ret)
	}
}

func TestCompoundOpsFullMatrix(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	int x = 100;
	x += 10;  // 110
	x -= 20;  // 90
	x *= 2;   // 180
	x /= 3;   // 60
	x %= 7;   // 4
	x <<= 3;  // 32
	x >>= 1;  // 16
	x |= 3;   // 19
	x &= 29;  // 17
	x ^= 5;   // 20
	return x;
}
`)
	if ret != 20 {
		t.Fatalf("ret = %d, want 20", ret)
	}
}

func TestPrefixPostfixSemantics(t *testing.T) {
	_, ret, _ := exec(t, `
int main(void) {
	int i = 5;
	int a = i++; // a=5, i=6
	int b = ++i; // b=7, i=7
	int c = i--; // c=7, i=6
	int d = --i; // d=5, i=5
	return a * 1000 + b * 100 + c * 10 + d - 5000 - 700 - 70 - 5;
}
`)
	if ret != 0 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestPointerIncrementScales(t *testing.T) {
	_, ret, _ := exec(t, `
struct pair { int a; int b; };
int main(void) {
	struct pair *arr = malloc(3 * sizeof(struct pair));
	arr[0].a = 1; arr[0].b = 2;
	arr[1].a = 3; arr[1].b = 4;
	arr[2].a = 5; arr[2].b = 6;
	struct pair *p = arr;
	p++;
	int mid = p->a;   // 3
	p--;
	int first = p->b; // 2
	return mid * 10 + first;
}
`)
	if ret != 32 {
		t.Fatalf("ret = %d, want 32", ret)
	}
}

func TestShcRecycleNullAndNegative(t *testing.T) {
	// Degenerate arguments are ignored, not fatal.
	_, ret, _ := exec(t, `
int main(void) {
	shcRecycle(NULL, 8);
	char *p = malloc(8);
	shcRecycle(p, 0);
	shcRecycle(p, -3);
	return 5;
}
`)
	if ret != 5 {
		t.Fatalf("ret = %d", ret)
	}
}
