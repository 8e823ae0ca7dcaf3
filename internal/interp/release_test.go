package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/locklog"
	"repro/internal/sched"
)

// TestReleasedMemoryReadsZero: a runtime set up after another one was
// released, and so most likely on its recycled cell directory, starts
// from zeroed memory and gives the same exit and reports as the first.
// racy_fresh.shc reads a global and a fresh heap block before writing
// them, and its exit and reports depend on both reading 0.
func TestReleasedMemoryReadsZero(t *testing.T) {
	prog := buildCorpus(t, "racy_fresh.shc", compile.DefaultOptions())
	run := func() (int64, string) {
		cfg := interp.DefaultConfig()
		cfg.Sched = sched.New(sched.NewRandom(3), sched.Options{})
		rt := interp.New(prog, cfg)
		exit, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		reports := rt.FormatReports()
		rt.Release()
		rt.Release() // idempotent
		return exit, reports
	}
	exit, reports := run()
	if exit != 0 || !strings.Contains(reports, "h @") {
		t.Fatalf("first run: exit %d, reports:\n%s", exit, reports)
	}
	for i := 0; i < 5; i++ {
		if e, r := run(); e != exit || r != reports {
			t.Fatalf("run %d after a release: exit %d, reports:\n%s\nwant exit %d, reports:\n%s", i+2, e, r, exit, reports)
		}
	}
}

// TestNewAfterReleaseAllocatesLittle: New takes a released runtime's cell
// directory instead of allocating one, so its set-up is a few small
// structures. sync.Pool may drop a released directory (the race detector
// does so on purpose), so the least of several tries is measured.
func TestNewAfterReleaseAllocatesLittle(t *testing.T) {
	prog := buildProg(t, `int main(void) { return 0; }`)
	least := ^uint64(0)
	for i := 0; i < 10; i++ {
		interp.New(prog, interp.DefaultConfig()).Release()
		var rt *interp.Runtime
		least = min(least, bytesAllocated(func() { rt = interp.New(prog, interp.DefaultConfig()) }))
		rt.Release()
	}
	t.Logf("interp.New after a Release: %d B", least)
	if least >= 16<<10 {
		t.Fatalf("interp.New after a Release allocated %d KiB, want < 16 KiB", least>>10)
	}
}

// TestRunAfterReleasePanics: a released runtime's memory is gone, and
// running it again must fail loudly rather than read the cells of
// whichever runtime took the memory next.
func TestRunAfterReleasePanics(t *testing.T) {
	prog := buildProg(t, `int main(void) { return 0; }`)
	rt := interp.New(prog, interp.DefaultConfig())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	rt.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Run of a released runtime did not panic")
		}
	}()
	rt.Run()
}

// tidObserver records the thread ids spawns take and threads return.
type tidObserver struct {
	events []string
}

func (o *tidObserver) Spawn(parent, child int) {
	o.events = append(o.events, fmt.Sprintf("+%d", child))
}
func (o *tidObserver) ThreadEnd(tid int)                        { o.events = append(o.events, fmt.Sprintf("-%d", tid)) }
func (*tidObserver) Access(int, int64, bool, *locklog.Log, int) {}
func (*tidObserver) Acquire(int, int64)                         {}
func (*tidObserver) Release(int, int64)                         {}
func (*tidObserver) Join(int, int)                              {}
func (*tidObserver) CondSignal(int, int64)                      {}
func (*tidObserver) CondWake(int, int64)                        {}
func (*tidObserver) Malloc(int, int64, int64)                   {}
func (*tidObserver) Free(int, int64, int64)                     {}

// manyThreads spawns 40 threads at once, more than there are thread ids,
// then six rounds of eight: 88 threads over its life. Each worker takes a
// lock a few times, so it lives across several scheduling decisions.
const manyThreads = `
void *work(void *d) {
	mutex *m = d;
	for (int i = 0; i < 20; i++) {
		mutexLock(m);
		mutexUnlock(m);
	}
	return NULL;
}

int main(void) {
	mutex *m = mutexNew();
	int h[40];
	for (int i = 0; i < 40; i++) h[i] = spawn(work, m);
	for (int i = 0; i < 40; i++) join(h[i]);
	for (int round = 0; round < 6; round++) {
		for (int i = 0; i < 8; i++) h[i] = spawn(work, m);
		for (int i = 7; i >= 0; i--) join(h[i]);
	}
	return 0;
}
`

// TestTidAssignmentOrder: thread ids go out as from a FIFO pre-filled with
// 1..MaxThreads that exiting threads append to, so every report that
// names a thread id reads the same. The model replays the observer's
// spawn and exit events under controlled schedules (a thread returns its
// id before passing the execution token on), and seed 1's sequence is
// pinned.
func TestTidAssignmentOrder(t *testing.T) {
	prog := buildProg(t, manyThreads)
	run := func(seed int64) []string {
		obs := &tidObserver{}
		cfg := interp.DefaultConfig()
		cfg.Sched = sched.New(sched.NewRandom(seed), sched.Options{})
		cfg.Observer = obs
		rt := interp.New(prog, cfg)
		defer rt.Release()
		if exit, err := rt.Run(); exit != 0 || err != nil {
			t.Fatalf("seed %d: exit %d, %v", seed, exit, err)
		}
		return obs.events
	}
	for _, seed := range []int64{1, 2, 3} {
		events := run(seed)
		fifo := []int{}
		for tid := 2; tid <= 31; tid++ { // main holds 1
			fifo = append(fifo, tid)
		}
		spawns, live, peak := 0, 1, 1
		for i, ev := range events {
			var tid int
			fmt.Sscanf(ev[1:], "%d", &tid)
			if ev[0] == '-' {
				fifo = append(fifo, tid)
				live--
				continue
			}
			spawns++
			live++
			peak = max(peak, live)
			if len(fifo) == 0 || fifo[0] != tid {
				t.Fatalf("seed %d, event %d: spawn took id %d, FIFO front %v", seed, i, tid, fifo[:min(len(fifo), 1)])
			}
			fifo = fifo[1:]
		}
		if spawns != 88 || peak != 31 {
			t.Fatalf("seed %d: %d spawns with at most %d threads live, want 88 and every id held at once", seed, spawns, peak)
		}
		if seed != 1 {
			continue
		}
		got := strings.Join(events, " ")
		if want := strings.Join(strings.Fields(pinnedTidEvents), " "); got != want {
			t.Fatalf("seed 1 id events changed:\n got %s\nwant %s", got, want)
		}
	}
}

// pinnedTidEvents is manyThreads' spawn (+tid) and exit (-tid) sequence
// under the random strategy with seed 1, as the pre-filled FIFO gave it.
const pinnedTidEvents = `
+2 +3 +4 +5 +6 +7 +8 +9 +10 +11 +12 +13 +14 +15 +16 +17 +18 +19 +20
+21 +22 +23 +24 +25 +26 +27 +28 +29 +30 +31 -2 +2 -3 -7 +3 -5 +7 +5
-6 -11 -13 +6 -10 +11 -18 +13 -15 -17 +10 +18 -14 +15 -4 -16 -23 -8
-12 -20 -19 -29 -25 -9 -26 -24 -27 -28 -21 -22 -31 -30 -3 -7 -10 -11
-18 -15 -2 -6 -13 -5 +17 +14 +4 +16 +23 +8 +12 +20 -16 -4 -14 -17
-12 -20 -23 -8 +19 +29 +25 +9 +26 +24 +27 +28 -19 -25 -26 -9 -28 -29
-27 -24 +21 +22 +31 +30 +3 +7 +10 +11 -22 -7 -10 -30 -31 -3 -21 -11
+18 +15 +2 +6 +13 +5 +16 +4 -6 -15 -2 -13 -5 -18 -16 -4 +14 +17 +12
+20 +23 +8 +19 +25 -14 -19 -17 -25 -8 -12 -20 -23 +26 +9 +28 +29 +27
+24 +22 +7 -26 -29 -9 -22 -28 -7 -27 -24 -1
`
