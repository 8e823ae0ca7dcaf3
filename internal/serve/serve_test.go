package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// counter returns a program that spins a heap cell n times and prints the
// result: every iteration is a shared access, i.e. an interruptible
// scheduling point, and the stdout pins determinism end to end.
func counter(n int) string {
	return fmt.Sprintf(`
int main(void) {
	int *p = malloc(sizeof(int));
	*p = 0;
	for (int i = 0; i < %d; i++) {
		*p = *p + 1;
	}
	print("count=");
	printInt(*p);
	return *p - %d;
}
`, n, n)
}

// racer has two threads hitting an unprotected racy cell — it exercises
// multi-thread scheduling and yields deterministic reports under a seed.
const racer = `
int racy *cell;

void *worker(void *d) {
	for (int i = 0; i < 50; i++) {
		cell[0] = cell[0] + 1;
	}
	return NULL;
}

int main(void) {
	cell = malloc(sizeof(int));
	cell[0] = 0;
	int h1 = spawn(worker, NULL);
	int h2 = spawn(worker, NULL);
	join(h1);
	join(h2);
	print("done");
	return 0;
}
`

// banker is a locked-counter program: lock churn plus dynamic casts.
const banker = `
struct acct {
	mutex *m;
	int locked(m) bal;
};

void *deposit(void *d) {
	struct acct *a = d;
	for (int i = 0; i < 40; i++) {
		mutexLock(a->m);
		a->bal = a->bal + 1;
		mutexUnlock(a->m);
	}
	return NULL;
}

int main(void) {
	struct acct *a = malloc(sizeof(struct acct));
	a->m = mutexNew();
	mutexLock(a->m);
	a->bal = 0;
	mutexUnlock(a->m);
	struct acct dynamic *ad = SCAST(struct acct dynamic *, a);
	int h1 = spawn(deposit, ad);
	int h2 = spawn(deposit, ad);
	join(h1);
	join(h2);
	mutexLock(ad->m);
	print("bal=");
	printInt(ad->bal);
	mutexUnlock(ad->m);
	return 0;
}
`

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, "http://" + s.Addr()
}

// post sends a JSON body and returns status, X-Sharc-Cache, and raw body.
func post(t *testing.T, url string, body any) (int, string, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Sharc-Cache"), raw
}

func TestRunInlineBasic(t *testing.T) {
	_, base := startServer(t, Config{})
	status, cache, body := post(t, base+"/run", map[string]any{"source": counter(100)})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	if cache != "miss" {
		t.Fatalf("first request X-Sharc-Cache = %q, want miss", cache)
	}
	var reply runReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("bad reply: %v\n%s", err, body)
	}
	if reply.Exit != 0 || reply.Stdout != "count=100\n" || reply.Handle == "" {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Stats.TotalAccesses == 0 {
		t.Fatal("stats missing shared-access counts")
	}
	if reply.Reports == nil || len(reply.Reports) != 0 {
		t.Fatalf("clean program produced reports: %v", reply.Reports)
	}
}

// TestCacheHitMissByteIdentical is the determinism contract: the same
// (program, seed, options) request gets a byte-identical JSON body
// whether the program was compiled for this request or pulled from cache,
// and whether it was named inline or by handle.
func TestCacheHitMissByteIdentical(t *testing.T) {
	_, base := startServer(t, Config{})
	req := map[string]any{"source": racer, "seed": 7}

	s1, c1, b1 := post(t, base+"/run", req)
	s2, c2, b2 := post(t, base+"/run", req)
	if s1 != 200 || s2 != 200 {
		t.Fatalf("statuses %d, %d: %s %s", s1, s2, b1, b2)
	}
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers (%q, %q), want (miss, hit)", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit reply differs from miss reply:\n%s\n%s", b1, b2)
	}

	// By handle: compile explicitly, then run by the returned handle.
	sc, _, cb := post(t, base+"/compile", map[string]any{"source": racer})
	if sc != 200 {
		t.Fatalf("compile: %d %s", sc, cb)
	}
	var comp compileReply
	if err := json.Unmarshal(cb, &comp); err != nil {
		t.Fatal(err)
	}
	s3, c3, b3 := post(t, base+"/run", map[string]any{"handle": comp.Handle, "seed": 7})
	if s3 != 200 || c3 != "hit" {
		t.Fatalf("run by handle: status %d cache %q", s3, c3)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("by-handle reply differs from inline reply:\n%s\n%s", b1, b3)
	}

	// A different seed is a different request; its reply must still be
	// internally reproducible.
	s4, _, b4 := post(t, base+"/run", map[string]any{"source": racer, "seed": 8})
	s5, _, b5 := post(t, base+"/run", map[string]any{"source": racer, "seed": 8})
	if s4 != 200 || s5 != 200 || !bytes.Equal(b4, b5) {
		t.Fatalf("seed-8 replies not reproducible:\n%s\n%s", b4, b5)
	}
}

func TestOptionsArePartOfTheKey(t *testing.T) {
	_, base := startServer(t, Config{})
	get := func(m map[string]any) string {
		sc, _, b := post(t, base+"/compile", m)
		if sc != 200 {
			t.Fatalf("compile: %d %s", sc, b)
		}
		var c compileReply
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		return c.Handle
	}
	plain := get(map[string]any{"source": banker})
	discharged := get(map[string]any{"source": banker, "discharge": true})
	renamed := get(map[string]any{"source": banker, "name": "other.shc"})
	handles := map[string]bool{plain: true, discharged: true, renamed: true}
	if len(handles) != 3 {
		t.Fatalf("option variants collided: %v", handles)
	}
	if again := get(map[string]any{"source": banker}); again != plain {
		t.Fatalf("identical resubmission changed handle: %s vs %s", again, plain)
	}
}

func TestBadRequests(t *testing.T) {
	_, base := startServer(t, Config{})
	cases := []struct {
		name   string
		body   any
		status int
	}{
		{"empty", map[string]any{}, 400},
		{"both source and handle", map[string]any{"source": "int main(void){return 0;}", "handle": "x"}, 400},
		{"unknown handle", map[string]any{"handle": strings.Repeat("ab", 32)}, 404},
		{"removed engine field", map[string]any{"source": "int main(void){return 0;}", "engine": "vm"}, 400},
		{"removed elide field", map[string]any{"source": "int main(void){return 0;}", "elide": true}, 400},
		{"compile error", map[string]any{"source": "int main(void{"}, 400},
		{"check error", map[string]any{"source": "int racy *p; int main(void){ p = malloc(4); int private *q = p; return 0; }"}, 400},
	}
	for _, tc := range cases {
		status, _, body := post(t, base+"/run", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, status, tc.status, body)
		}
		var er errorReply
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: refusal body is not an error reply: %s", tc.name, body)
		}
	}
}

func TestTimeoutInterruptsRun(t *testing.T) {
	_, base := startServer(t, Config{Timeout: 30 * time.Second})
	status, _, body := post(t, base+"/run",
		map[string]any{"source": counter(200_000_000), "timeout_ms": 150})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", status, body)
	}
}

func TestAdmissionRefusal(t *testing.T) {
	s, base := startServer(t, Config{MaxSessions: 1, QueueDepth: 0})
	slow := map[string]any{"source": counter(200_000_000), "timeout_ms": 3000}
	done := make(chan int, 1)
	go func() {
		st, _, _ := post(t, base+"/run", slow)
		done <- st
	}()
	waitFor(t, 5*time.Second, func() bool { return s.activeCount() == 1 })

	status, _, body := post(t, base+"/run", map[string]any{"source": counter(10)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503 (body %s)", status, body)
	}
	if st := <-done; st != http.StatusGatewayTimeout {
		t.Fatalf("slot-holding request finished with %d", st)
	}
	if s.refused.Load() == 0 {
		t.Fatal("refusal not counted")
	}
}

// TestGracefulDrain pins the SIGTERM contract: requests in flight when the
// drain starts run to completion; new work is refused.
func TestGracefulDrain(t *testing.T) {
	s, base := startServer(t, Config{Timeout: 2 * time.Minute})
	// Size the in-flight run from a measured one, so it is still running
	// when Shutdown starts yet finishes well inside the 30 s drain deadline
	// on any host, -race instrumentation included. The calibration time
	// includes the compile and the round trip, so the estimate errs short.
	const calibN = 200_000
	calibStart := time.Now()
	if st, _, b := post(t, base+"/run", map[string]any{"source": counter(calibN)}); st != http.StatusOK {
		t.Fatalf("calibration run: %d %s", st, b)
	}
	n := max(calibN, int(int64(calibN)*int64(2*time.Second)/int64(time.Since(calibStart))))
	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		st, _, b := post(t, base+"/run", map[string]any{"source": counter(n)})
		inflight <- result{st, b}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.activeCount() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	waitFor(t, 5*time.Second, func() bool { return s.draining.Load() })

	// New work is refused while the drain runs: either the listener is
	// already closed (connection error) or the draining gate answers 503.
	if resp, err := http.Post(base+"/run", "application/json",
		strings.NewReader(`{"source":"int main(void){return 0;}"}`)); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("request during drain got %d, want refusal", resp.StatusCode)
		}
		resp.Body.Close()
	}

	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request did not complete cleanly: %d %s", r.status, r.body)
	}
	var reply runReply
	if err := json.Unmarshal(r.body, &reply); err != nil || reply.Exit != 0 {
		t.Fatalf("in-flight reply corrupted by drain: %s", r.body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain did not finish cleanly: %v", err)
	}
}

// TestDrainDeadlineInterruptsStragglers: a run that outlives the drain
// deadline is interrupted rather than wedging shutdown forever.
func TestDrainDeadlineInterruptsStragglers(t *testing.T) {
	s, base := startServer(t, Config{Timeout: 5 * time.Minute})
	done := make(chan int, 1)
	go func() {
		st, _, _ := post(t, base+"/run", map[string]any{"source": counter(2_000_000_000)})
		done <- st
	}()
	waitFor(t, 5*time.Second, func() bool { return s.activeCount() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown reported clean drain despite a straggler")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
	if st := <-done; st != http.StatusGatewayTimeout {
		t.Fatalf("straggler got status %d, want 504", st)
	}
}

// TestConcurrentMixedHammer is the -race soak: many concurrent sessions
// over several distinct cached programs, all replies deterministic.
func TestConcurrentMixedHammer(t *testing.T) {
	s, base := startServer(t, Config{MaxSessions: 4, QueueDepth: 256})
	programs := []string{counter(500), racer, banker}

	// One warm-up pass records each program's canonical reply.
	want := make([][]byte, len(programs))
	for i, src := range programs {
		st, _, b := post(t, base+"/run", map[string]any{"source": src, "seed": 3})
		if st != 200 {
			t.Fatalf("warmup %d: %d %s", i, st, b)
		}
		want[i] = b
	}

	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := i % len(programs)
			st, _, b := post(t, base+"/run", map[string]any{"source": programs[p], "seed": 3})
			if st != 200 {
				errs <- fmt.Errorf("req %d: status %d: %s", i, st, b)
				return
			}
			if !bytes.Equal(b, want[p]) {
				errs <- fmt.Errorf("req %d: reply diverged for program %d:\n%s\n%s", i, p, b, want[p])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := s.cache.hits.Load(); hits < n-int64(len(programs)) {
		t.Errorf("cache hits = %d, want >= %d", hits, n-len(programs))
	}

	// The server-wide aggregate absorbed every run.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats statsReply
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("bad stats: %v\n%s", err, raw)
	}
	var runs int64
	for _, p := range stats.Programs {
		runs += p.Runs
	}
	if runs != n+int64(len(programs)) {
		t.Errorf("aggregated runs = %d, want %d", runs, n+len(programs))
	}
	if stats.Global.Spawns == 0 || stats.Global.TotalAccesses == 0 {
		t.Errorf("global aggregate empty: %+v", stats.Global)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
