package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obsrv"
	"repro/internal/serve"
)

const (
	serveClients  = 2  // closed-loop keep-alive clients, and the server's session limit
	serveSeeds    = 4  // requests use schedule seeds 1..serveSeeds
	serveOpenRate = 60 // open-loop arrivals per second, about half the closed loop's rate
)

// server is an in-process sharc serve instance and the client that loads it.
type server struct {
	srv    *serve.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer(traced bool) (*server, error) {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.MaxSessions = serveClients
	if traced {
		cfg.Obs = obsrv.Config{Enabled: true}
	}
	s := serve.New(cfg)
	if err := s.Listen(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return &server{
		srv:  s,
		base: "http://" + s.Addr(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
		done: done,
	}, nil
}

// close drains the server and waits for it to stop serving.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// run posts one /run request and returns the reply body.
func (s *server) run(payload []byte) ([]byte, error) {
	resp, err := s.client.Post(s.base+"/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, err
}

type runRequest struct {
	Source string `json:"source"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
}

type runReply struct {
	Handle   string `json:"handle"`
	Exit     int64  `json:"exit"`
	RunError string `json:"run_error"`
	Reports  []struct {
		Kind string `json:"kind"`
		Pos  string `json:"pos"`
	} `json:"reports"`
}

// canonical is the first reply to one (program, seed) pair; every later
// reply to it must be byte-identical, up to the handle of a variant.
type canonical struct {
	payload []byte
	body    []byte
	handle  string
}

// checkReply compares a reply with the pinned answer and the canonical
// reply.
func checkReply(p *program, body []byte, canon *canonical) error {
	var r runReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: bad reply: %w", p.id, err)
	}
	if r.RunError != "" {
		return fmt.Errorf("%s: run error: %s", p.id, r.RunError)
	}
	if r.Exit != p.want.Exit {
		return fmt.Errorf("%s: exit %d, want %d", p.id, r.Exit, p.want.Exit)
	}
	kinds := make([]string, len(r.Reports))
	sites := make([]string, len(r.Reports))
	for i, rep := range r.Reports {
		kinds[i], sites[i] = rep.Kind, rep.Pos
	}
	if err := p.checkReports(kinds, sites); err != nil {
		return err
	}
	if canon == nil {
		return nil
	}
	if r.Handle != canon.handle {
		body = bytes.Replace(body, []byte(r.Handle), []byte(canon.handle), 1)
	}
	if !bytes.Equal(body, canon.body) {
		return fmt.Errorf("%s: reply differs from the first reply for its seed", p.id)
	}
	return nil
}

// runServe loads an in-process server with POST /run requests over the
// clean test programs and racy_pair: first a closed loop of two keep-alive
// clients for two thirds of the window, then an open loop at a fixed rate
// for the rest. One request in ten is a variant the cache has never seen.
func runServe(b *bench) (err error) {
	progs, err := loadPrograms(b.exp, programSets[b.workload])
	if err != nil {
		return err
	}
	var (
		srv   *server
		canon map[[2]int64]*canonical
	)
	// A set-up starts a server and warms its cache with every (program,
	// seed) pair, which also records the canonical replies.
	err = b.setUp(func() error {
		if srv != nil {
			err := srv.close()
			srv = nil
			if err != nil {
				return err
			}
		}
		s, err := startServer(b.trace)
		if err != nil {
			return err
		}
		srv = s
		canon = make(map[[2]int64]*canonical)
		for i, p := range progs {
			for seed := int64(1); seed <= serveSeeds; seed++ {
				payload, err := json.Marshal(runRequest{Source: p.source, Name: p.file, Seed: seed})
				if err != nil {
					return err
				}
				body, err := srv.run(payload)
				if err == nil {
					err = checkReply(p, body, nil)
				}
				if err != nil {
					return err
				}
				var r runReply
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				canon[[2]int64{int64(i), seed}] = &canonical{payload: payload, body: body, handle: r.Handle}
			}
		}
		return nil
	})
	defer func() {
		if srv == nil {
			return
		}
		if cerr := srv.close(); cerr != nil && err == nil {
			err = fmt.Errorf("server shutdown: %w", cerr)
		}
	}()
	if err != nil {
		return err
	}

	var genMu sync.Mutex
	gen := newGenerator(b.workload, b.seed, len(progs))
	next := func() opSpec {
		genMu.Lock()
		defer genMu.Unlock()
		return gen.next()
	}
	// request sends one generated request and checks the reply.
	request := func(tr *tracer, op opSpec, lane int) (*program, error) {
		p := progs[op.prog]
		cn := canon[[2]int64{int64(op.prog), op.seed}]
		payload := cn.payload
		if op.miss {
			var err error
			if payload, err = json.Marshal(runRequest{Source: p.source + op.variant, Name: p.file, Seed: op.seed}); err != nil {
				return p, err
			}
		}
		root := tr.begin("serve.op", op.n, lane, -1)
		var body []byte
		var err error
		tr.call("serve", op.n, lane, root, func() { body, err = srv.run(payload) })
		if err == nil {
			err = checkReply(p, body, cn)
		}
		tr.finish(root)
		return p, err
	}

	closedWindow := b.window * 2 / 3
	var before *serverView
	if b.trace {
		if before, err = scrapeServer(srv); err != nil {
			return err
		}
	}
	// A round holds whole program rotations and whole blocks of one miss in
	// missEvery requests.
	b.use = b.loop(serveClients, closedWindow, missEvery*len(progs), func(lane int) {
		op := next()
		start := time.Now()
		p, err := request(b.tr, op, lane)
		b.rec.record(p.label(), time.Since(start), err)
	})
	if rtts := b.rec.all(); b.trace && len(rtts) > 0 {
		after, err := scrapeServer(srv)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, x := range rtts {
			sum += x
		}
		after.phaseMetrics(before, b.layerValues, sum/float64(len(rtts)))
	}

	// Open loop: each request is due at a fixed time whatever the server
	// does, and is timed from when it was due. Its requests are not traced:
	// they overlap, and only their latency is reported.
	b.open = newRecorder()
	interval := time.Second / serveOpenRate
	openWindow := b.window - closedWindow
	start := time.Now()
	var (
		wg   sync.WaitGroup
		late time.Duration
	)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= openWindow {
			break
		}
		time.Sleep(time.Until(due))
		late = max(late, time.Since(due))
		op := next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := request(nil, op, 0)
			b.open.record(p.label(), time.Since(due), err)
		}()
	}
	wg.Wait()
	openP99, used := tail(b.open.all(), 99)
	b.layerValues["serve.open_ms_p99"] = openP99
	b.derived["open_ms_p99"] = openP99
	b.derived["open_rate_per_s"] = serveOpenRate
	b.derived["open_generator_late_ms_max"] = ms(late)
	b.samples["open_ops"] = float64(b.open.attempted)
	b.samples["open_ms_p99_percentile"] = used
	// The burst of set-ups closes the measured server and starts its own;
	// the deferred close stops the last of them.
	return b.setUpAgain()
}

// serverView is one scrape of the traced server's /metrics and /stats.
type serverView struct {
	phases      map[string]*histogram
	cacheHits   float64
	cacheMisses float64
}

// histogram is one Prometheus histogram series: cumulative bucket counts
// at the bucket upper bounds (seconds), plus sum and count.
type histogram struct {
	bounds []float64
	cum    []float64
	sum    float64
	count  float64
}

const phaseFamily = "sharc_phase_duration_seconds"

func scrapeServer(s *server) (*serverView, error) {
	text, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	v := &serverView{phases: make(map[string]*histogram)}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, phaseFamily) {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		labels, val, _ := strings.Cut(rest, "} ")
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		phase, le := labelValue(labels, "phase"), labelValue(labels, "le")
		h := v.phases[phase]
		if h == nil {
			h = &histogram{}
			v.phases[phase] = h
		}
		switch strings.TrimPrefix(name, phaseFamily) {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics: bucket bound %q: %w", le, err)
			}
			h.bounds = append(h.bounds, bound)
			h.cum = append(h.cum, x)
		case "_sum":
			h.sum = x
		case "_count":
			h.count = x
		}
	}
	if len(v.phases) != len(obsrv.PhaseNames) {
		return nil, fmt.Errorf("/metrics: %d request phases, want %d", len(v.phases), len(obsrv.PhaseNames))
	}
	stats, err := s.get("/stats")
	if err != nil {
		return nil, err
	}
	var st struct {
		Hits   float64 `json:"cache_hits"`
		Misses float64 `json:"cache_misses"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	v.cacheHits, v.cacheMisses = st.Hits, st.Misses
	return v, nil
}

// labelValue extracts one label's value from a rendered label set.
func labelValue(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// phaseMetrics turns the difference between two scrapes into the serve
// per-layer metrics. rttMS is the clients' mean round trip over the same
// interval.
func (v *serverView) phaseMetrics(before *serverView, out map[string]float64, rttMS float64) {
	names := map[string]string{
		"admission-wait": "serve.admission_wait_ms", "resolve": "serve.resolve_ms",
		"schedule": "serve.schedule_ms", "execute": "serve.execute_ms", "telemetry-merge": "serve.merge_ms",
	}
	phaseMS := 0.0
	for phase, name := range names {
		h, h0 := v.phases[phase], before.phases[phase]
		n := h.count - h0.count
		if n <= 0 {
			continue
		}
		delta := make([]float64, len(h.cum))
		for i := range h.cum {
			delta[i] = h.cum[i] - h0.cum[i]
		}
		out[name+"_p50"] = 1000 * bucketQuantile(h.bounds, delta, 0.50)
		out[name+"_p99"] = 1000 * bucketQuantile(h.bounds, delta, 0.99)
		phaseMS += 1000 * (h.sum - h0.sum) / n
	}
	out["http.client_overhead_ms"] = rttMS - phaseMS
	if lookups := (v.cacheHits - before.cacheHits) + (v.cacheMisses - before.cacheMisses); lookups > 0 {
		out["serve.cache_hit_frac"] = (v.cacheHits - before.cacheHits) / lookups
	}
}

// bucketQuantile estimates quantile q from cumulative bucket counts the way
// Prometheus's histogram_quantile does: linear within the bucket that holds
// it, the last finite bound for the +Inf bucket.
func bucketQuantile(bounds, cum []float64, q float64) float64 {
	total := cum[len(cum)-1]
	rank := q * total
	lower, below := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if i == len(cum)-1 && i > 0 {
				return bounds[i-1]
			}
			if c == below {
				return bounds[i]
			}
			return lower + (bounds[i]-lower)*(rank-below)/(c-below)
		}
		lower, below = bounds[i], c
	}
	return lower
}
