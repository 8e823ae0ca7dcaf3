package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsrv"
	"repro/internal/serve"
)

// The serve workload mix: three small programs exercising the three main
// runtime regimes — single-thread heap churn, unsynchronized multi-thread
// access (race reports), and lock-protected sharing. Small enough that a
// request is dominated by service overhead (the thing a server benchmark
// should measure), distinct enough that the cache holds several programs.
var serveWorkload = []struct {
	Name string
	Src  string
}{
	{"spin", `
int main(void) {
	int *p = malloc(sizeof(int));
	*p = 0;
	for (int i = 0; i < 2000; i++) {
		*p = *p + 1;
	}
	printInt(*p);
	return 0;
}
`},
	{"racy", `
int racy *cell;

void *worker(void *d) {
	for (int i = 0; i < 40; i++) {
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
	return 0;
}
`},
	{"locked", `
struct acct {
	mutex *m;
	int locked(m) bal;
};

void *deposit(void *d) {
	struct acct *a = d;
	for (int i = 0; i < 30; i++) {
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
	printInt(a->bal);
	return 0;
}
`},
}

// ServeRow is one load scenario's measurement.
type ServeRow struct {
	Scenario string `json:"scenario"`
	// Loop is the arrival model: "closed" (next request waits for the
	// previous reply; concurrency fixed) or "open" (requests fire on a
	// clock regardless of completions).
	Loop        string  `json:"loop"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	Refused     int     `json:"refused"`
	Timeouts    int     `json:"timeouts"`
	Errors      int     `json:"errors"`
	DurationNS  int64   `json:"duration_ns"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50NS       int64   `json:"p50_ns"`
	P99NS       int64   `json:"p99_ns"`
	// CacheHitRate is hits/(hits+misses) among OK replies, read from the
	// X-Sharc-Cache response header.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SlowConnsCut counts slowloris connections the server terminated
	// (slowloris scenario only).
	SlowConnsCut int `json:"slow_conns_cut,omitempty"`
}

// ServeReport is the BENCH_serve.json shape: scenario rows plus the same
// provenance fields the other BENCH files carry.
type ServeReport struct {
	Rows []ServeRow `json:"rows"`
	// External records whether the target was an already-running server
	// (true) or an in-process one started for the measurement.
	External        bool `json:"external"`
	StaticDischarge bool `json:"static_discharge"`
	NumCPU          int  `json:"num_cpu"`
	GOMAXPROCS      int  `json:"gomaxprocs"`
	// ObsOverheadPct is the throughput cost of the fully-armed
	// observability layer on the hot sequential path: 100*(off-on)/off
	// from the obs-off-hot and obs-on-hot rows. Only measured against
	// in-process targets (an external server's obs config is its own).
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
}

// serveTarget is a server under measurement: a base URL plus an optional
// teardown for in-process servers.
type serveTarget struct {
	base  string
	close func()
}

// startTarget connects to addr, or starts an in-process server when addr
// is empty.
func startTarget(addr string) (*serveTarget, error) {
	if addr != "" {
		return &serveTarget{base: "http://" + addr}, nil
	}
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.MaxSessions = runtime.GOMAXPROCS(0)
	cfg.QueueDepth = 512
	cfg.ReadTimeout = 2 * time.Second
	s := serve.New(cfg)
	if err := s.Listen(); err != nil {
		return nil, err
	}
	go s.Serve()
	return &serveTarget{
		base: "http://" + s.Addr(),
		close: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		},
	}, nil
}

// reqBody renders the canonical run request for workload program i.
func reqBody(i int) string {
	src, _ := json.Marshal(serveWorkload[i%len(serveWorkload)].Src)
	return fmt.Sprintf(`{"source":%s,"name":"%s.shc","seed":3}`,
		src, serveWorkload[i%len(serveWorkload)].Name)
}

// outcome classifies one request's result.
type outcome struct {
	latency time.Duration
	status  int
	hit     bool
	err     error
}

func doRequest(client *http.Client, base, body string) outcome {
	start := time.Now()
	resp, err := client.Post(base+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return outcome{latency: time.Since(start), err: err}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return outcome{
		latency: time.Since(start),
		status:  resp.StatusCode,
		hit:     resp.Header.Get("X-Sharc-Cache") == "hit",
	}
}

// tally folds outcomes into a row and computes the derived columns.
func tally(row ServeRow, outs []outcome, elapsed time.Duration) ServeRow {
	var lats []time.Duration
	hits, misses := 0, 0
	for _, o := range outs {
		row.Requests++
		switch {
		case o.err != nil:
			row.Errors++
			continue
		case o.status == http.StatusOK:
			row.OK++
			if o.hit {
				hits++
			} else {
				misses++
			}
			lats = append(lats, o.latency)
		case o.status == http.StatusServiceUnavailable:
			row.Refused++
		case o.status == http.StatusGatewayTimeout:
			row.Timeouts++
		default:
			row.Errors++
		}
	}
	row.DurationNS = elapsed.Nanoseconds()
	if elapsed > 0 {
		row.ReqPerSec = float64(row.OK) / elapsed.Seconds()
	}
	if hits+misses > 0 {
		row.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		row.P50NS = lats[len(lats)/2].Nanoseconds()
		p99 := (len(lats) * 99) / 100
		if p99 >= len(lats) {
			p99 = len(lats) - 1
		}
		row.P99NS = lats[p99].Nanoseconds()
	}
	return row
}

// closedLoop runs n requests with c workers, each worker issuing the next
// request as soon as the previous reply lands.
func closedLoop(client *http.Client, base string, n, c int, body func(int) string) ([]outcome, time.Duration) {
	outs := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				outs[i] = doRequest(client, base, body(i))
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop fires n requests at a fixed arrival rate regardless of
// completions (the latency therefore includes queueing delay, and an
// overloaded server shows refusals rather than a silently stretched
// run — the usual closed-loop blind spot).
func openLoop(client *http.Client, base string, n int, interval time.Duration, body func(int) string) ([]outcome, time.Duration) {
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < n; i++ {
		if i > 0 {
			<-tick.C
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = doRequest(client, base, body(i))
		}(i)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// slowloris opens conns raw TCP connections that trickle one header byte
// per write and counts how many the server cuts off within window.
func slowloris(addr string, conns int, window time.Duration) int {
	var cut atomic.Int64
	var wg sync.WaitGroup
	partial := "POST /run HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{"
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				cut.Add(1) // never even admitted: counts as repelled
				return
			}
			defer conn.Close()
			deadline := time.Now().Add(window)
			for j := 0; time.Now().Before(deadline); j++ {
				b := partial[j%len(partial)]
				if _, err := conn.Write([]byte{b}); err != nil {
					cut.Add(1)
					return
				}
				// Confirm the close: a successful read of EOF/RST also
				// means the server hung up.
				conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
				buf := make([]byte, 256)
				if _, err := conn.Read(buf); err == io.EOF {
					cut.Add(1)
					return
				}
				time.Sleep(150 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	return int(cut.Load())
}

// ServeOptions sizes the load run.
type ServeOptions struct {
	// Addr targets a running server ("host:port"); empty starts one
	// in-process.
	Addr string
	// Requests is the per-scenario request budget.
	Requests int
	// Concurrency is the closed-loop worker count.
	Concurrency int
	// SlowlorisWindow bounds the trickling-connection scenario; it must
	// exceed the server's read timeout for the cut to be observable.
	// Zero means 8s.
	SlowlorisWindow time.Duration
}

// RunServeBench measures the serve scenarios and returns the report.
func RunServeBench(opts ServeOptions) (*ServeReport, error) {
	if opts.Requests <= 0 {
		opts.Requests = 400
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.SlowlorisWindow <= 0 {
		opts.SlowlorisWindow = 8 * time.Second
	}
	target, err := startTarget(opts.Addr)
	if err != nil {
		return nil, err
	}
	if target.close != nil {
		defer target.close()
	}
	base := target.base
	addr := strings.TrimPrefix(base, "http://")

	keepalive := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: opts.Concurrency * 2,
	}}
	churny := &http.Client{Transport: &http.Transport{
		DisableKeepAlives: true,
	}}
	defer keepalive.CloseIdleConnections()

	hot := func(int) string { return reqBody(0) }
	mixed := func(i int) string { return reqBody(i) }

	rep := &ServeReport{
		External:        opts.Addr != "",
		StaticDischarge: false,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}
	add := func(row ServeRow, outs []outcome, d time.Duration) {
		rep.Rows = append(rep.Rows, tally(row, outs, d))
	}

	// Warm the cache so the steady-state scenarios measure the hit path;
	// the cold compile cost is its own row below.
	var cold []outcome
	coldStart := time.Now()
	for i := range serveWorkload {
		cold = append(cold, doRequest(keepalive, base, reqBody(i)))
	}
	add(ServeRow{Scenario: "cold-compile", Loop: "closed", Concurrency: 1},
		cold, time.Since(coldStart))

	outs, d := closedLoop(keepalive, base, opts.Requests, 1, hot)
	add(ServeRow{Scenario: "closed-sequential-hot", Loop: "closed", Concurrency: 1}, outs, d)

	outs, d = closedLoop(keepalive, base, opts.Requests, opts.Concurrency, hot)
	add(ServeRow{Scenario: "closed-concurrent-hot", Loop: "closed", Concurrency: opts.Concurrency}, outs, d)

	outs, d = closedLoop(keepalive, base, opts.Requests, opts.Concurrency, mixed)
	add(ServeRow{Scenario: "closed-concurrent-mixed", Loop: "closed", Concurrency: opts.Concurrency}, outs, d)

	// Open loop at a rate derived from the measured closed-loop service
	// capacity (~70%: stressed but not a pure refusal benchmark).
	capacity := rep.Rows[len(rep.Rows)-1].ReqPerSec
	rate := capacity * 0.7
	if rate < 20 {
		rate = 20
	}
	interval := time.Duration(float64(time.Second) / rate)
	outs, d = openLoop(keepalive, base, opts.Requests, interval, mixed)
	add(ServeRow{Scenario: "open-fixed-rate", Loop: "open", Concurrency: 0}, outs, d)

	// Bursts: the full budget in batches of 4x the worker pool, arriving
	// simultaneously with idle gaps between batches.
	burst := opts.Concurrency * 4
	var burstOuts []outcome
	burstStart := time.Now()
	for done := 0; done < opts.Requests; done += burst {
		n := burst
		if done+n > opts.Requests {
			n = opts.Requests - done
		}
		o, _ := closedLoop(keepalive, base, n, n, mixed)
		burstOuts = append(burstOuts, o...)
		time.Sleep(50 * time.Millisecond)
	}
	add(ServeRow{Scenario: "bursty", Loop: "open", Concurrency: burst},
		burstOuts, time.Since(burstStart))

	// Connection churn: every request pays TCP setup (no keep-alive).
	outs, d = closedLoop(churny, base, opts.Requests/2, opts.Concurrency, mixed)
	add(ServeRow{Scenario: "connection-churn", Loop: "closed", Concurrency: opts.Concurrency}, outs, d)

	// Slowloris: trickling connections in the background must be cut by
	// the server's read deadline while a foreground closed loop keeps
	// getting answers.
	const slowConns = 8
	cutCh := make(chan int, 1)
	go func() { cutCh <- slowloris(addr, slowConns, opts.SlowlorisWindow) }()
	outs, d = closedLoop(keepalive, base, opts.Requests/2, opts.Concurrency, hot)
	row := ServeRow{Scenario: "slowloris", Loop: "closed", Concurrency: opts.Concurrency}
	row.SlowConnsCut = <-cutCh
	add(row, outs, d)

	// Observability overhead: the same hot sequential loop against two
	// fresh in-process servers, observability off vs fully armed. Skipped
	// for external targets, whose obs config we can't toggle.
	if !rep.External {
		if err := measureObsOverhead(rep, opts.Requests); err != nil {
			return nil, err
		}
	}

	return rep, nil
}

// measureObsOverhead appends obs-off-hot and obs-on-hot rows and sets
// ObsOverheadPct. "Fully armed" means span trees, metrics, JSONL access
// logging, and slow-capture with a per-request event ring — the capture
// threshold is an hour so the capture machinery runs but never writes.
func measureObsOverhead(rep *ServeReport, requests int) error {
	capDir, err := os.MkdirTemp("", "sharc-obs-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(capDir)

	run := func(scenario string, obsCfg obsrv.Config) (ServeRow, error) {
		cfg := serve.DefaultConfig()
		cfg.Addr = "127.0.0.1:0"
		cfg.ReadTimeout = 2 * time.Second
		cfg.Obs = obsCfg
		s := serve.New(cfg)
		if err := s.Listen(); err != nil {
			return ServeRow{}, err
		}
		go s.Serve()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
		defer client.CloseIdleConnections()
		base := "http://" + s.Addr()
		doRequest(client, base, reqBody(0)) // warm: compile once off the clock
		outs, d := closedLoop(client, base, requests, 1, func(int) string { return reqBody(0) })
		return tally(ServeRow{Scenario: scenario, Loop: "closed", Concurrency: 1}, outs, d), nil
	}

	off, err := run("obs-off-hot", obsrv.Config{})
	if err != nil {
		return err
	}
	on, err := run("obs-on-hot", obsrv.Config{
		Enabled:       true,
		SlowThreshold: time.Hour,
		CaptureDir:    capDir,
		AccessLog:     io.Discard,
		LogLevel:      obsrv.LevelInfo,
	})
	if err != nil {
		return err
	}
	rep.Rows = append(rep.Rows, off, on)
	if off.ReqPerSec > 0 {
		rep.ObsOverheadPct = 100 * (off.ReqPerSec - on.ReqPerSec) / off.ReqPerSec
	}
	return nil
}

// FormatServe renders the scenario table.
func FormatServe(rep *ServeReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-6s %5s %6s %6s %5s %5s %9s %9s %9s %5s\n",
		"scenario", "loop", "conc", "reqs", "ok", "ref", "t/o", "req/s", "p50", "p99", "hit%")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-24s %-6s %5d %6d %6d %5d %5d %9.1f %9s %9s %5.1f\n",
			r.Scenario, r.Loop, r.Concurrency, r.Requests, r.OK, r.Refused, r.Timeouts,
			r.ReqPerSec,
			time.Duration(r.P50NS).Round(time.Microsecond),
			time.Duration(r.P99NS).Round(time.Microsecond),
			r.CacheHitRate*100)
	}
	if !rep.External {
		fmt.Fprintf(&b, "observability overhead (hot sequential, fully armed): %.1f%%\n",
			rep.ObsOverheadPct)
	}
	return b.String()
}

// ServeJSON renders the report for BENCH_serve.json.
func ServeJSON(rep *ServeReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// RunServeSmoke is the acceptance harness behind `make serve-smoke`: 1000
// sequential requests, then 100 concurrent ones across the three workload
// programs, asserting every reply arrives, cache hit and miss replies are
// byte-identical, and the deterministic bodies never drift. Returns an
// error on the first violated assertion.
func RunServeSmoke(addr string, progress io.Writer) error {
	target, err := startTarget(addr)
	if err != nil {
		return err
	}
	if target.close != nil {
		defer target.close()
	}
	base := target.base
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()

	fetch := func(i int) (int, string, []byte, error) {
		resp, err := client.Post(base+"/run", "application/json", strings.NewReader(reqBody(i)))
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Sharc-Cache"), body, err
	}

	// Canonical replies: the first request per program is the compile
	// (miss), the second the cache hit — the bodies must already agree.
	canon := make([][]byte, len(serveWorkload))
	for i := range serveWorkload {
		st, cache, miss, err := fetch(i)
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("smoke: canonical request %d: status %d err %v", i, st, err)
		}
		if cache != "hit" { // a fresh server answers miss; a warm one hit
			st2, cache2, hit, err := fetch(i)
			if err != nil || st2 != http.StatusOK || cache2 != "hit" {
				return fmt.Errorf("smoke: warm request %d: status %d cache %q err %v", i, st2, cache2, err)
			}
			if !bytes.Equal(miss, hit) {
				return fmt.Errorf("smoke: program %d: cache hit reply differs from miss reply:\n%s\n%s", i, miss, hit)
			}
		}
		canon[i] = miss
	}

	// 1000 sequential requests, round-robin over the programs.
	const sequential = 1000
	for i := 0; i < sequential; i++ {
		st, _, body, err := fetch(i)
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("smoke: sequential request %d: status %d err %v", i, st, err)
		}
		if !bytes.Equal(body, canon[i%len(canon)]) {
			return fmt.Errorf("smoke: sequential request %d: reply drifted:\n%s\n%s", i, body, canon[i%len(canon)])
		}
		if progress != nil && (i+1)%250 == 0 {
			fmt.Fprintf(progress, "smoke: %d/%d sequential ok\n", i+1, sequential)
		}
	}

	// 100 concurrent mixed-program requests.
	const concurrent = 100
	errs := make(chan error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, body, err := fetch(i)
			if err != nil || st != http.StatusOK {
				errs <- fmt.Errorf("smoke: concurrent request %d: status %d err %v", i, st, err)
				return
			}
			if !bytes.Equal(body, canon[i%len(canon)]) {
				errs <- fmt.Errorf("smoke: concurrent request %d: reply drifted", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	if progress != nil {
		fmt.Fprintf(progress, "smoke: %d concurrent ok; %d+%d requests, all replies deterministic\n",
			concurrent, sequential, concurrent)
	}
	return nil
}
