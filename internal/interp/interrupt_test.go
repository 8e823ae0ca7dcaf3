package interp_test

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sched"
)

// longRunner is a program whose workers loop over shared locked state long
// enough that an interrupt lands mid-run: two tellers plus main touching a
// locked counter for tens of thousands of scheduling points.
const longRunner = `
struct box {
	mutex *m;
	int locked(m) n;
};

void *worker(void *d) {
	struct box *b = d;
	for (int i = 0; i < 200000; i++) {
		mutexLock(b->m);
		b->n = b->n + 1;
		mutexUnlock(b->m);
	}
	return NULL;
}

int main(void) {
	struct box *b = malloc(sizeof(struct box));
	b->m = mutexNew();
	mutexLock(b->m);
	b->n = 0;
	mutexUnlock(b->m);
	struct box dynamic *bd = SCAST(struct box dynamic *, b);
	int h1 = spawn(worker, bd);
	int h2 = spawn(worker, bd);
	join(h1);
	join(h2);
	mutexLock(bd->m);
	int n = bd->n;
	mutexUnlock(bd->m);
	if (n != 400000) return 1;
	return 0;
}
`

func buildLongRunner(t *testing.T) *interp.Runtime {
	t.Helper()
	a, err := core.Analyze(parser.Source{Name: "longrunner.shc", Text: longRunner})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := interp.DefaultConfig()
	cfg.Stdout = io.Discard
	cfg.Interrupt = new(atomic.Bool)
	cfg.Sched = sched.New(sched.NewRandom(7), sched.Options{})
	return interp.New(prog, cfg)
}

// TestInterruptSeededRun pins the serve layer's timeout contract: a seeded
// run stops promptly when interrupted from another goroutine, returns
// ErrInterrupted, and leaves no deadlock or failure reports behind.
func TestInterruptSeededRun(t *testing.T) {
	rt := buildLongRunner(t)
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rt.Interrupt()
	select {
	case err := <-done:
		if !errors.Is(err, interp.ErrInterrupted) {
			t.Fatalf("Run returned %v, want ErrInterrupted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted run did not terminate")
	}
	if !rt.Interrupted() {
		t.Fatal("Interrupted() = false after teardown")
	}
	for _, r := range rt.Reports() {
		t.Errorf("unexpected report after interrupt: %s", r.Msg)
	}
}

// TestInterruptIdempotentAndLate verifies Interrupt is safe to call
// repeatedly and after the run already finished, free-running and under
// the cooperative scheduler.
func TestInterruptIdempotentAndLate(t *testing.T) {
	for _, scheduled := range []bool{false, true} {
		var flag atomic.Bool
		cfg := interp.DefaultConfig()
		cfg.Stdout = io.Discard
		cfg.Interrupt = &flag
		if scheduled {
			cfg.Sched = sched.New(sched.NewRandom(1), sched.Options{})
		}
		rt, ret, err := core.BuildAndRun(`int main(void) { return 5; }`, compile.DefaultOptions(), cfg)
		if err != nil || ret != 5 {
			t.Fatalf("scheduled %t: run: ret=%d err=%v", scheduled, ret, err)
		}
		rt.Interrupt()
		rt.Interrupt()
		if rt.Interrupted() {
			t.Fatalf("scheduled %t: a completed run must not report Interrupted", scheduled)
		}
	}
}

// TestInterruptFreeRun exercises the best-effort free-running path: the
// flag is noticed at shared-memory scheduling points without a controller.
func TestInterruptFreeRun(t *testing.T) {
	a, err := core.Analyze(parser.Source{Name: "longrunner.shc", Text: longRunner})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := interp.DefaultConfig()
	cfg.Stdout = io.Discard
	cfg.Interrupt = new(atomic.Bool)
	rt := interp.New(prog, cfg)
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	rt.Interrupt()
	select {
	case err := <-done:
		// The run either unwound on the flag or finished just before the
		// interrupt landed; both are legal for the best-effort path.
		if err != nil && !errors.Is(err, interp.ErrInterrupted) {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("free-running interrupt did not terminate")
	}
}

// TestInterruptUnfiredIsInert pins that merely configuring the interrupt
// flag changes nothing about the run's result.
func TestInterruptUnfiredIsInert(t *testing.T) {
	a, err := core.Analyze(parser.Source{Name: "longrunner.shc", Text: longRunner})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	run := func(withFlag bool) int64 {
		cfg := interp.DefaultConfig()
		cfg.Stdout = io.Discard
		cfg.Sched = sched.New(sched.NewRandom(3), sched.Options{})
		if withFlag {
			cfg.Interrupt = new(atomic.Bool)
		}
		rt := interp.New(prog, cfg)
		ret, err := rt.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return ret
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("exit with interrupt configured %d != without %d", b, a)
	}
}

// spawnFirst is a program whose second thread's first action is a spawn:
// main spawns outer and then loops on yield(), and under a round-robin
// quantum longer than the run, outer has not begun when the interrupt
// lands.
const spawnFirst = `
void *inner(void *d) {
	return NULL;
}

void *outer(void *d) {
	int h = spawn(inner, NULL);
	join(h);
	return NULL;
}

int main(void) {
	int h = spawn(outer, NULL);
	for (int i = 0; i < 1000000000; i++) {
		yield();
	}
	join(h);
	return 0;
}
`

// TestInterruptUnbegunSpawner pins the teardown of a thread that had not
// begun when the run was interrupted: it is released, runs to its first
// action, a spawn, and the thread it spawns must get a teardown token too,
// or its first wait for the token never returns and neither does Run.
func TestInterruptUnbegunSpawner(t *testing.T) {
	for _, withFlag := range []bool{true, false} {
		a, err := core.Analyze(parser.Source{Name: "spawnfirst.shc", Text: spawnFirst})
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		prog, err := a.Build(compile.DefaultOptions())
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		cfg := interp.DefaultConfig()
		cfg.Stdout = io.Discard
		if withFlag {
			cfg.Interrupt = new(atomic.Bool)
		}
		cfg.Sched = sched.New(sched.NewRoundRobin(1<<40), sched.Options{})
		rt := interp.New(prog, cfg)
		done := make(chan error, 1)
		go func() {
			_, err := rt.Run()
			done <- err
		}()
		time.Sleep(50 * time.Millisecond)
		rt.Interrupt()
		select {
		case err := <-done:
			if !errors.Is(err, interp.ErrInterrupted) {
				t.Fatalf("interrupt flag %t: Run returned %v, want ErrInterrupted", withFlag, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("interrupt flag %t: Run did not return within 5s of the interrupt", withFlag)
		}
	}
}
