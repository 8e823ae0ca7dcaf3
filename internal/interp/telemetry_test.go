package interp_test

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// statsSrc is schedule-independent: four free-running workers each perform a
// fixed number of dynamic and locked accesses, so every aggregate count must
// come out the same on every run regardless of interleaving — which makes
// exact equality assertions meaningful under -race and across repetitions.
const statsSrc = `
struct shared {
	mutex *m;
	int locked(m) count;
	int cells[4];
};

void *worker(void *d) {
	struct shared *s = d;
	int acc = 0;
	for (int i = 0; i < 50; i++) {
		mutexLock(s->m);
		s->count = s->count + 1;
		acc += s->cells[i % 4];
		mutexUnlock(s->m);
	}
	return NULL;
}

int main(void) {
	struct shared *s = malloc(sizeof(struct shared));
	s->m = mutexNew();
	mutexLock(s->m);
	s->count = 0;
	for (int i = 0; i < 4; i++) s->cells[i] = i;
	mutexUnlock(s->m);
	struct shared dynamic *sd = SCAST(struct shared dynamic *, s);
	// Holding the lock across the spawns keeps every worker live until the
	// last one is spawned, so the peak of five live threads is exact.
	mutexLock(sd->m);
	int t1 = spawn(worker, sd);
	int t2 = spawn(worker, sd);
	int t3 = spawn(worker, sd);
	int t4 = spawn(worker, sd);
	mutexUnlock(sd->m);
	join(t1);
	join(t2);
	join(t3);
	join(t4);
	mutexLock(sd->m);
	int total = sd->count;
	mutexUnlock(sd->m);
	return total;
}
`

func runStats(t *testing.T, ctl *sched.Controller) *interp.Runtime {
	t.Helper()
	cfg := interp.DefaultConfig()
	cfg.Stdout = io.Discard
	cfg.Metrics = true
	cfg.TraceCapacity = 1 << 14
	cfg.Sched = ctl
	rt, ret, err := core.BuildAndRun(statsSrc, compile.DefaultOptions(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret != 200 {
		t.Fatalf("count = %d, want 200", ret)
	}
	for _, r := range rt.Reports() {
		t.Errorf("unexpected report: %s", r)
	}
	return rt
}

// TestStatsExactUnderFreeRun is the regression test for the stats spine:
// before the counters moved onto the atomic telemetry.Counters, the
// per-thread tallies were flushed into a plain struct under a mutex taken
// inconsistently, and this test flipped under -race and occasionally lost
// whole thread contributions. Now every run — free-running Go scheduling,
// four workers — must report byte-exact aggregates matching a deterministic
// reference run of the same program.
func TestStatsExactUnderFreeRun(t *testing.T) {
	ref := runStats(t, sched.New(sched.NewRandom(1), sched.Options{})).Stats()

	for rep := 0; rep < 4; rep++ {
		rt := runStats(t, nil) // free-running goroutines
		got := rt.Stats()
		if got.TotalAccesses != ref.TotalAccesses ||
			got.DynamicAccesses != ref.DynamicAccesses ||
			got.LockChecks != ref.LockChecks ||
			got.Barriers != ref.Barriers {
			t.Fatalf("rep %d: free-run stats %+v != deterministic reference %+v", rep, got, ref)
		}
		if got.MaxThreads != ref.MaxThreads {
			t.Fatalf("rep %d: MaxThreads = %d, want %d", rep, got.MaxThreads, ref.MaxThreads)
		}

		// The snapshot's global rollup is a view over the same spine and
		// must agree with Stats exactly.
		snap := rt.TelemetrySnapshot()
		if snap == nil {
			t.Fatal("telemetry snapshot missing with Metrics on")
		}
		if snap.Global.DynamicChecks != got.DynamicAccesses ||
			snap.Global.LockChecks != got.LockChecks ||
			snap.Global.TotalAccesses != got.TotalAccesses {
			t.Fatalf("rep %d: snapshot global %+v disagrees with Stats %+v", rep, snap.Global, got)
		}

		// Per-site reads/writes/locked sum to the global check counts.
		var siteChecks int64
		for i := range snap.Sites {
			siteChecks += snap.Sites[i].Checks()
		}
		if siteChecks != got.DynamicAccesses+got.LockChecks {
			t.Fatalf("rep %d: site checks sum %d != global %d",
				rep, siteChecks, got.DynamicAccesses+got.LockChecks)
		}
	}
}

// TestTracerCompleteUnderFreeRun: the event *set* for this program is
// schedule-independent (free runs emit no scheduler events), so the tracer
// total must match the free-run reference and nothing may be dropped at
// this capacity. Exercises the ring buffer's mutex under real contention.
func TestTracerCompleteUnderFreeRun(t *testing.T) {
	ref := runStats(t, nil).Tracer()
	if ref == nil {
		t.Fatal("tracer missing with TraceCapacity set")
	}
	if ref.Dropped() != 0 {
		t.Fatalf("reference run dropped %d events", ref.Dropped())
	}
	for rep := 0; rep < 3; rep++ {
		tr := runStats(t, nil).Tracer()
		if tr.Total() != ref.Total() || tr.Dropped() != 0 {
			t.Fatalf("rep %d: %d events (%d dropped), want %d (0 dropped)",
				rep, tr.Total(), tr.Dropped(), ref.Total())
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("rep %d: jsonl export: %v", rep, err)
		}
		if int64(bytes.Count(buf.Bytes(), []byte("\n"))) != int64(tr.Total()) {
			t.Fatalf("rep %d: jsonl line count != %d events", rep, tr.Total())
		}
	}
}

// TestSharedCountersAcrossRuns mirrors what Explore does: successive
// runtimes handed the same Counters and Collector must accumulate, and the
// spine must be safe for a concurrent reader while a run is in flight.
func TestSharedCountersAcrossRuns(t *testing.T) {
	cfg := interp.DefaultConfig()
	cfg.Stdout = io.Discard
	cfg.Metrics = true
	cfg.Counters = &telemetry.Counters{}

	var first int64
	for i := 0; i < 3; i++ {
		var stop atomic.Bool
		done := make(chan struct{})
		go func() { // concurrent reader of the live spine
			defer close(done)
			for !stop.Load() {
				if cfg.Counters.DynamicChecks.Load() < 0 {
					t.Error("counter went negative")
					return
				}
			}
		}()
		if _, _, err := core.BuildAndRun(statsSrc, compile.DefaultOptions(), cfg); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		stop.Store(true)
		<-done
		if i == 0 {
			first = cfg.Counters.DynamicChecks.Load()
			if first == 0 {
				t.Fatal("no dynamic checks counted")
			}
		}
	}
	if got := cfg.Counters.DynamicChecks.Load(); got != 3*first {
		t.Fatalf("shared spine accumulated %d dynamic checks, want %d", got, 3*first)
	}
}
