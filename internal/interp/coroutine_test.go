package interp_test

import (
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sched"
)

// settledGoroutines waits up to a second for the goroutine count to fall
// to base (a goroutine that has signalled its caller may still be
// exiting) and returns the last count seen.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// deadlockOnJoin deadlocks under every schedule: main holds the mutex
// while it joins a worker that needs it, and a third thread spawned last
// may not have started when the deadlock is found.
const deadlockOnJoin = `
void *worker(void *d) {
	mutex *m = d;
	mutexLock(m);
	mutexUnlock(m);
	return NULL;
}

void *idle(void *d) {
	return NULL;
}

int main(void) {
	mutex *m = mutexNew();
	mutexLock(m);
	int h = spawn(worker, m);
	int i = spawn(idle, NULL);
	join(h);
	join(i);
	mutexUnlock(m);
	return 0;
}
`

// twoWorkers finishes: main spawns two workers and joins them.
const twoWorkers = `
int g;

void *worker(void *d) {
	g = 1;
	return NULL;
}

int main(void) {
	int h1 = spawn(worker, NULL);
	int h2 = spawn(worker, NULL);
	join(h1);
	join(h2);
	return 7;
}
`

// TestScheduledRunsLeaveNoGoroutines: a scheduled run drives its threads
// as coroutines on the calling goroutine, and every one of them is
// finished when Run returns, whether the run finished, deadlocked, failed
// a thread with an internal-error panic, or was interrupted (a spawner
// that had not started included).
func TestScheduledRunsLeaveNoGoroutines(t *testing.T) {
	for _, r := range []struct {
		name      string
		src       string
		strategy  sched.Strategy
		observer  interp.Observer
		interrupt bool   // stop the run from another goroutine
		wantErr   string // a substring of Run's error; "" wants none
	}{
		{"finish", twoWorkers, sched.NewRandom(1), nil, false, ""},
		{"deadlock", deadlockOnJoin, sched.NewRoundRobin(1), nil, false, "deadlock"},
		{"internal-error", twoWorkers, sched.NewRandom(1), panicObserver{baseline.NewEraser()}, false, "internal error: observer fault"},
		{"interrupt", longRunner, sched.NewRandom(7), nil, true, interp.ErrInterrupted.Error()},
		{"interrupt-unbegun-spawner", spawnFirst, sched.NewRoundRobin(1 << 40), nil, true, interp.ErrInterrupted.Error()},
	} {
		a, err := core.Analyze(parser.Source{Name: r.name + ".shc", Text: r.src})
		if err != nil {
			t.Fatalf("%s: analyze: %v", r.name, err)
		}
		prog, err := a.Build(compile.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: build: %v", r.name, err)
		}
		base := runtime.NumGoroutine()
		cfg := interp.DefaultConfig()
		cfg.Stdout = io.Discard
		cfg.Observer = r.observer
		cfg.Sched = sched.New(r.strategy, sched.Options{})
		if r.interrupt {
			cfg.Interrupt = new(atomic.Bool)
		}
		rt := interp.New(prog, cfg)
		if r.interrupt {
			time.AfterFunc(20*time.Millisecond, rt.Interrupt)
		}
		_, err = rt.Run()
		if r.wantErr == "" && err != nil || r.wantErr != "" && (err == nil || !strings.Contains(err.Error(), r.wantErr)) {
			t.Fatalf("%s: Run returned %v, want %q", r.name, err, r.wantErr)
		}
		rt.Release()
		if n := settledGoroutines(base); n > base {
			t.Fatalf("%s: %d goroutines after the run, %d before", r.name, n, base)
		}
	}
}
