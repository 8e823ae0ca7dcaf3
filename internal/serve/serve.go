package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/obsrv"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Config tunes the service. Zero values are filled from DefaultConfig.
type Config struct {
	// Addr is the TCP listen address; ":0" picks an ephemeral port
	// (read the bound address back with Server.Addr).
	Addr string
	// MaxSessions bounds concurrently executing checked runs. Requests
	// beyond it queue; requests beyond the queue are refused with 503.
	MaxSessions int
	// QueueDepth bounds admitted-but-waiting requests on top of
	// MaxSessions.
	QueueDepth int
	// Timeout caps one request's execution wall clock; the run is
	// interrupted at the deadline and the client gets 504. A request may
	// ask for less via timeout_ms, never for more.
	Timeout time.Duration
	// CacheCap bounds the compiled-program cache (entries). 0 means the
	// default; a negative value disables caching and every request
	// compiles from scratch.
	CacheCap int
	// TelemetryBatch is how many finished requests' collectors accumulate
	// per program before one canonical merge folds them (amortizes the
	// site-table walk; /stats forces a flush).
	TelemetryBatch int
	// ReadTimeout bounds how long a client may take to deliver a request
	// (header + body). It is the slowloris guard: a trickling writer is
	// cut off here and never reaches admission.
	ReadTimeout time.Duration
	// DrainGrace keeps the listener open for this long after Shutdown is
	// called, with /healthz and /readyz answering 503, so load balancers
	// can observe the drain before connections start being refused. Zero
	// closes the listener immediately (the pre-observability behavior).
	DrainGrace time.Duration
	// Obs configures the request-scoped observability layer (spans,
	// /metrics, access logs, slow-request capture). Zero value = disabled;
	// disabling never changes reply bytes, only headers and side channels.
	Obs obsrv.Config
}

// DefaultConfig returns the service defaults.
func DefaultConfig() Config {
	return Config{
		Addr:           "127.0.0.1:7077",
		MaxSessions:    4,
		QueueDepth:     64,
		Timeout:        10 * time.Second,
		CacheCap:       128,
		TelemetryBatch: 8,
		ReadTimeout:    5 * time.Second,
	}
}

// maxBodyBytes caps request bodies; checked programs are source text, not
// bulk data.
const maxBodyBytes = 4 << 20

// runRequest is the wire form of one execution request.
type runRequest struct {
	// Exactly one of Source (inline program text) or Handle (a handle
	// returned by /compile or a prior /run) must be set.
	Source string `json:"source,omitempty"`
	Handle string `json:"handle,omitempty"`
	// Name is the source file name used in report positions (and is part
	// of the cache key). Defaults to "prog.shc".
	Name string `json:"name,omitempty"`
	// Seed selects the deterministic cooperative schedule. Omitted
	// defaults to 1; a negative seed requests free-running (real Go
	// scheduling, replies not deterministic).
	Seed *int64 `json:"seed,omitempty"`
	// Elide and Discharge select compile options and are part of the
	// program identity (ignored when Handle names the program).
	Elide     bool `json:"elide,omitempty"`
	Discharge bool `json:"discharge,omitempty"`
	// Metrics enables the per-site collector for this run; its results
	// feed the server-side aggregate, not the reply.
	Metrics bool `json:"metrics,omitempty"`
	// TimeoutMS lowers the server's per-request timeout for this request.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// reportJSON is one runtime violation in the reply.
type reportJSON struct {
	Kind string `json:"kind"`
	Pos  string `json:"pos"`
	Msg  string `json:"msg"`
}

// runStats is the deterministic slice of the run's counters: every field
// is a pure function of (program, seed, options) under the
// cooperative scheduler. Page/cache/timing gauges are deliberately
// excluded — they may vary run to run and would break the byte-identical
// reply contract.
type runStats struct {
	TotalAccesses int64 `json:"total_accesses"`
	DynamicChecks int64 `json:"dynamic_checks"`
	LockChecks    int64 `json:"lock_checks"`
	ElidedChecks  int64 `json:"elided_checks"`
	Barriers      int64 `json:"rc_barriers"`
	LockAcquires  int64 `json:"lock_acquires"`
	LockReleases  int64 `json:"lock_releases"`
	Spawns        int64 `json:"spawns"`
	MaxThreads    int64 `json:"max_threads"`
}

// runReply is the wire form of one execution result. Field order is the
// canonical reply order; the body is marshaled from deterministic data
// only, so a cache hit and a cache miss for the same request are
// byte-identical (cache status travels in the X-Sharc-Cache header, never
// the body).
type runReply struct {
	Handle   string       `json:"handle"`
	Exit     int64        `json:"exit"`
	RunError string       `json:"run_error,omitempty"`
	Reports  []reportJSON `json:"reports"`
	Stdout   string       `json:"stdout"`
	Stats    runStats     `json:"stats"`
}

// compileReply is the wire form of a /compile result.
type compileReply struct {
	Handle string `json:"handle"`
}

// errorReply is the wire form of every failure.
type errorReply struct {
	Error string `json:"error"`
}

// statsReply is the /stats snapshot. ServerStart/GoVersion make a scraped
// snapshot attributable: which process, built with what.
type statsReply struct {
	ServerStart   string                `json:"server_start"`
	GoVersion     string                `json:"go_version"`
	Endpoints     []string              `json:"endpoints"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	Requests      int64                 `json:"requests"`
	Refused       int64                 `json:"refused"`
	Timeouts      int64                 `json:"timeouts"`
	BadRequests   int64                 `json:"bad_requests"`
	CacheEntries  int                   `json:"cache_entries"`
	CacheHits     int64                 `json:"cache_hits"`
	CacheMisses   int64                 `json:"cache_misses"`
	CacheEvicted  int64                 `json:"cache_evictions"`
	Active        int                   `json:"active_sessions"`
	Queued        int64                 `json:"queued_sessions"`
	Programs      []programStats        `json:"programs"`
	Global        telemetry.GlobalStats `json:"global"`
}

// programStats is one cached program's aggregate in /stats.
type programStats struct {
	Handle string                `json:"handle"`
	Runs   int64                 `json:"runs"`
	Global telemetry.GlobalStats `json:"global"`
}

// Server is the long-running checked-execution service.
type Server struct {
	cfg   Config
	cache *cache
	obs   *obsrv.Observer

	slots    chan struct{}
	waiting  atomic.Int64
	draining atomic.Bool

	ln   net.Listener
	hsrv *http.Server

	// runners tracks in-flight executions so Shutdown can bound the tail:
	// past the drain deadline every active runtime is interrupted and the
	// group is waited out.
	runners  sync.WaitGroup
	activeMu sync.Mutex
	active   map[*interp.Runtime]struct{}

	start       time.Time
	requests    atomic.Int64
	refused     atomic.Int64
	timeouts    atomic.Int64
	badRequests atomic.Int64

	gmu    sync.Mutex
	gstats telemetry.GlobalStats
}

// New builds a server; call Listen then Serve (or ListenAndServe).
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.Addr == "" {
		cfg.Addr = def.Addr
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = def.MaxSessions
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = def.Timeout
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = def.CacheCap
	}
	if cfg.TelemetryBatch <= 0 {
		cfg.TelemetryBatch = def.TelemetryBatch
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = def.ReadTimeout
	}
	s := &Server{
		cfg:    cfg,
		cache:  newCache(cfg.CacheCap, cfg.TelemetryBatch),
		slots:  make(chan struct{}, cfg.MaxSessions),
		active: make(map[*interp.Runtime]struct{}),
		start:  time.Now(),
		obs:    obsrv.New(cfg.Obs),
	}
	if reg := s.obs.Registry(); reg != nil {
		reg.Gauge("sharc_sessions_inflight", "Checked runs executing right now.",
			func() float64 { return float64(s.activeCount()) })
		reg.Gauge("sharc_admission_queue_depth", "Requests parked in the waiting room.",
			func() float64 { return float64(s.waiting.Load()) })
		reg.Gauge("sharc_cache_entries", "Compiled programs resident in the cache.",
			func() float64 { return float64(s.cache.len()) })
		reg.Gauge("sharc_cache_hits_total", "Program cache hits.",
			func() float64 { return float64(s.cache.hits.Load()) })
		reg.Gauge("sharc_cache_misses_total", "Program cache misses (compiles).",
			func() float64 { return float64(s.cache.misses.Load()) })
		reg.Gauge("sharc_cache_evictions_total", "Program cache LRU evictions.",
			func() float64 { return float64(s.cache.evictions.Load()) })
		reg.Gauge("sharc_draining", "1 while the server is draining.",
			func() float64 {
				if s.draining.Load() {
					return 1
				}
				return 0
			})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.hsrv = &http.Server{
		Handler:           mux,
		ReadTimeout:       cfg.ReadTimeout,
		ReadHeaderTimeout: cfg.ReadTimeout,
	}
	return s
}

// Preload compiles a program into the cache ahead of any request (the
// CLI's positional files), returning its handle.
func (s *Server) Preload(name, src string) (string, error) {
	e, _, err := s.cache.getOrCompile(progKey{Name: name}, src)
	if err != nil {
		return "", err
	}
	return e.handle, nil
}

// Listen binds the TCP address. Split from Serve so callers (and the CLI's
// -addr-file) can learn the bound port before serving.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (valid after Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Shutdown. It returns nil after a clean
// shutdown (http.ErrServerClosed is the normal exit, not an error).
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	err := s.hsrv.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Shutdown drains the server: new requests are refused immediately,
// in-flight requests run to completion until ctx expires, and past the
// deadline every remaining execution is interrupted and waited out. The
// listener is closed in all cases. With DrainGrace set, the listener
// stays open for the grace window first — /healthz and /readyz answer
// 503 throughout — so external health checks see the drain before
// connections start failing.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.obs.Info("drain-start", obsrv.Field{Key: "grace_ms", Val: s.cfg.DrainGrace.Milliseconds()})
	if g := s.cfg.DrainGrace; g > 0 {
		t := time.NewTimer(g)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	err := s.hsrv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with handlers still running: cut the stragglers
		// loose and wait for their (now prompt) teardown.
		s.interruptAll()
		s.runners.Wait()
	}
	s.obs.Info("drain-done", obsrv.Field{Key: "err", Val: fmt.Sprint(err)})
	return err
}

func (s *Server) interruptAll() {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	for rt := range s.active {
		rt.Interrupt()
	}
}

func (s *Server) trackActive(rt *interp.Runtime) func() {
	s.activeMu.Lock()
	s.active[rt] = struct{}{}
	s.activeMu.Unlock()
	return func() {
		s.activeMu.Lock()
		delete(s.active, rt)
		s.activeMu.Unlock()
	}
}

func (s *Server) activeCount() int {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	return len(s.active)
}

// admit reserves an execution slot. It returns a release func on success,
// or a (status, message) refusal. A request that cannot take a slot
// immediately joins the wait queue; when the queue is at QueueDepth the
// request is refused rather than parked.
func (s *Server) admit(ctx context.Context) (func(), int, string) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, "server is draining"
	}
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release, 0, ""
	default:
	}
	n := s.waiting.Add(1)
	defer s.waiting.Add(-1)
	if n > int64(s.cfg.QueueDepth) {
		return nil, http.StatusServiceUnavailable, "admission queue full"
	}
	select {
	case s.slots <- struct{}{}:
		return release, 0, ""
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable, "client gone while queued"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.badRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorReply{Error: msg})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolve turns a request into a compiled-program entry, reporting
// whether the program came from cache.
func (s *Server) resolve(req *runRequest) (*entry, bool, int, string) {
	switch {
	case req.Handle != "" && req.Source != "":
		return nil, false, http.StatusBadRequest, "give source or handle, not both"
	case req.Handle != "":
		e := s.cache.lookup(req.Handle)
		if e == nil {
			return nil, false, http.StatusNotFound, "unknown handle (compile first, or the entry was evicted)"
		}
		return e, true, 0, ""
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "prog.shc"
		}
		k := progKey{Name: name, Elide: req.Elide, Discharge: req.Discharge}
		e, hit, err := s.cache.getOrCompile(k, req.Source)
		if err != nil {
			return nil, false, http.StatusBadRequest, err.Error()
		}
		return e, hit, 0, ""
	}
	return nil, false, http.StatusBadRequest, "empty request: source or handle required"
}

// cacheHeader is the out-of-band cache status: hit|miss in a header keeps
// the JSON body a pure function of the request.
func cacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Sharc-Cache", "hit")
	} else {
		w.Header().Set("X-Sharc-Cache", "miss")
	}
}

// obsBegin opens an observed request for one endpoint and returns it with
// an Outcome holder the handler fills in; the deferred end closes spans,
// bumps metrics, logs, and fires capture. The X-Sharc-Request header goes
// out immediately so even refused requests are correlatable. All of it is
// nil-safe: with observability off, or == nil flows through every call.
func (s *Server) obsBegin(w http.ResponseWriter, endpoint string) (*obsrv.Req, *obsrv.Outcome, func()) {
	or := s.obs.Begin(endpoint)
	out := &obsrv.Outcome{Status: http.StatusOK, Decisions: -1}
	if or != nil {
		w.Header().Set("X-Sharc-Request", or.ID)
	}
	return or, out, func() { s.obs.End(or, *out) }
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	or, out, end := s.obsBegin(w, "run")
	defer end()
	if r.Method != http.MethodPost {
		out.Status = http.StatusMethodNotAllowed
		writeJSON(w, http.StatusMethodNotAllowed, errorReply{Error: "POST only"})
		return
	}
	s.requests.Add(1)
	var req runRequest
	if err := decodeBody(w, r, &req); err != nil {
		out.Status, out.Err = http.StatusBadRequest, "bad body"
		s.badRequest(w, "bad request body: "+err.Error())
		return
	}
	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}

	sp := or.StartSpan("admission-wait")
	release, status, msg := s.admit(r.Context())
	sp.End()
	if release == nil {
		s.refused.Add(1)
		out.Status, out.Err = status, msg
		writeJSON(w, status, errorReply{Error: msg})
		return
	}
	defer release()

	sp = or.StartSpan("resolve")
	e, hit, status, msg := s.resolve(&req)
	sp.End()
	if e == nil {
		if status == http.StatusBadRequest {
			s.badRequests.Add(1)
		}
		out.Status, out.Err = status, msg
		writeJSON(w, status, errorReply{Error: msg})
		return
	}
	or.SetHandle(e.handle)
	if hit {
		or.SetField("cache", "hit")
	} else {
		or.SetField("cache", "miss")
	}

	reply, timedOut := s.execute(e, &req, timeout, or, out)
	if timedOut {
		s.timeouts.Add(1)
		out.Status, out.Err = http.StatusGatewayTimeout, "deadline"
		cacheHeader(w, hit)
		writeJSON(w, http.StatusGatewayTimeout,
			errorReply{Error: fmt.Sprintf("run exceeded %v and was interrupted", timeout)})
		return
	}
	cacheHeader(w, hit)
	writeJSON(w, http.StatusOK, reply)
}

// execute runs one request against a compiled program. The reply carries
// only deterministic data (see runStats); telemetry flows into the
// server-side aggregates instead. The schedule/execute/telemetry-merge
// request phases are spanned here; when slow-capture is armed the run
// also gets a private event ring so a capture can show what the program
// did, never affecting the reply.
func (s *Server) execute(e *entry, req *runRequest, timeout time.Duration, or *obsrv.Req, obsOut *obsrv.Outcome) (*runReply, bool) {
	s.runners.Add(1)
	defer s.runners.Done()

	sp := or.StartSpan("schedule")
	var out bytes.Buffer
	cfg := interp.DefaultConfig()
	cfg.Stdout = &out
	cfg.Metrics = req.Metrics
	cfg.Interrupt = new(atomic.Bool)
	if cap := s.obs.TraceCapacity(); cap > 0 {
		cfg.TraceCapacity = cap
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if seed >= 0 {
		cfg.Sched = sched.New(sched.NewRandom(seed), sched.Options{})
		cfg.SeedRand = seed
	}
	rt := interp.New(e.prog, cfg)
	sp.End()

	sp = or.StartSpan("execute")
	untrack := s.trackActive(rt)
	timer := time.AfterFunc(timeout, rt.Interrupt)
	ret, runErr := rt.Run()
	timer.Stop()
	untrack()
	sp.End()
	if obsOut != nil {
		obsOut.Tracer = rt.Tracer()
		obsOut.Decisions = rt.Decisions()
	}

	if errors.Is(runErr, interp.ErrInterrupted) {
		return nil, true
	}

	sp = or.StartSpan("telemetry-merge")
	g := rt.GlobalStats()
	e.addRun(rt.Collector(), g, s.cfg.TelemetryBatch)
	s.gmu.Lock()
	s.gstats = telemetry.MergeGlobalStats(s.gstats, g)
	s.gmu.Unlock()
	sp.End()

	reports := rt.Reports()
	rj := make([]reportJSON, 0, len(reports))
	for _, rep := range reports {
		rj = append(rj, reportJSON{Kind: rep.Kind.String(), Pos: rep.Pos.String(), Msg: rep.Msg})
	}
	reply := &runReply{
		Handle:  e.handle,
		Exit:    ret,
		Reports: rj,
		Stdout:  out.String(),
		Stats: runStats{
			TotalAccesses: g.TotalAccesses,
			DynamicChecks: g.DynamicChecks,
			LockChecks:    g.LockChecks,
			ElidedChecks:  g.ElidedChecks,
			Barriers:      g.Barriers,
			LockAcquires:  g.LockAcquires,
			LockReleases:  g.LockReleases,
			Spawns:        g.Spawns,
			MaxThreads:    g.MaxThreads,
		},
	}
	if runErr != nil {
		reply.RunError = runErr.Error()
	}
	return reply, false
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	or, out, end := s.obsBegin(w, "compile")
	defer end()
	if r.Method != http.MethodPost {
		out.Status = http.StatusMethodNotAllowed
		writeJSON(w, http.StatusMethodNotAllowed, errorReply{Error: "POST only"})
		return
	}
	s.requests.Add(1)
	if s.draining.Load() {
		s.refused.Add(1)
		out.Status, out.Err = http.StatusServiceUnavailable, "draining"
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: "server is draining"})
		return
	}
	var req runRequest
	if err := decodeBody(w, r, &req); err != nil {
		out.Status, out.Err = http.StatusBadRequest, "bad body"
		s.badRequest(w, "bad request body: "+err.Error())
		return
	}
	if req.Source == "" {
		out.Status, out.Err = http.StatusBadRequest, "no source"
		s.badRequest(w, "compile needs inline source")
		return
	}
	name := req.Name
	if name == "" {
		name = "prog.shc"
	}
	sp := or.StartSpan("resolve")
	k := progKey{Name: name, Elide: req.Elide, Discharge: req.Discharge}
	e, hit, err := s.cache.getOrCompile(k, req.Source)
	sp.End()
	if err != nil {
		out.Status, out.Err = http.StatusBadRequest, "compile error"
		s.badRequest(w, err.Error())
		return
	}
	or.SetHandle(e.handle)
	cacheHeader(w, hit)
	writeJSON(w, http.StatusOK, compileReply{Handle: e.handle})
}

// serveEndpoints is the self-description /stats advertises.
var serveEndpoints = []string{"/run", "/compile", "/stats", "/metrics", "/healthz", "/readyz"}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	_, _, end := s.obsBegin(w, "stats")
	defer end()
	reply := statsReply{
		ServerStart:   s.start.UTC().Format(time.RFC3339Nano),
		GoVersion:     runtime.Version(),
		Endpoints:     serveEndpoints,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Refused:       s.refused.Load(),
		Timeouts:      s.timeouts.Load(),
		BadRequests:   s.badRequests.Load(),
		CacheEntries:  s.cache.len(),
		CacheHits:     s.cache.hits.Load(),
		CacheMisses:   s.cache.misses.Load(),
		CacheEvicted:  s.cache.evictions.Load(),
		Active:        s.activeCount(),
		Queued:        s.waiting.Load(),
		Programs:      []programStats{},
	}
	s.cache.forEach(func(e *entry) {
		runs, g := e.snapshot()
		reply.Programs = append(reply.Programs, programStats{Handle: e.handle, Runs: runs, Global: g})
	})
	// Entries come out of a map; order the report.
	sort.Slice(reply.Programs, func(i, j int) bool {
		return reply.Programs[i].Handle < reply.Programs[j].Handle
	})
	s.gmu.Lock()
	reply.Global = s.gstats
	s.gmu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// handleHealthz serves both /healthz and /readyz: liveness and readiness
// coincide here because the only not-ready state is the drain, during
// which both must flip to 503 so load balancers stop routing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	endpoint := "healthz"
	if r.URL.Path == "/readyz" {
		endpoint = "readyz"
	}
	_, out, end := s.obsBegin(w, endpoint)
	defer end()
	if s.draining.Load() {
		out.Status, out.Err = http.StatusServiceUnavailable, "draining"
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: "draining"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"ok\":true}\n"))
}

// handleMetrics is the Prometheus text exposition. 404 when observability
// is off — scrapers then know the layer is disabled rather than empty.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "observability disabled"})
		return
	}
	_, out, end := s.obsBegin(w, "metrics")
	defer end()
	var buf bytes.Buffer
	if err := s.obs.WriteMetrics(&buf); err != nil {
		out.Status, out.Err = http.StatusInternalServerError, "exposition failure"
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: "exposition failure"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}
