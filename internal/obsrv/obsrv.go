// Package obsrv is the request-scoped observability layer for sharc
// serve. It complements the program-level telemetry spine (PR 3,
// internal/telemetry) one level up: where the Tracer records what a
// checked program did, obsrv records what the service did to each
// request — a span tree over the five request phases (admission-wait,
// resolve, schedule, execute, telemetry-merge), Prometheus-text metrics,
// structured JSONL access logs keyed by stable request IDs, and
// automatic capture of slow outliers that bundles the span tree with the
// program-level Tracer ring into one Chrome-openable trace.
//
// The whole package is nil-safe by construction: a nil *Observer hands
// out nil *Req and nil *Span values whose methods are no-ops, so the
// disabled path costs a few nil comparisons (BenchmarkDisabledPath) and
// serve code needs no "if enabled" branches. Observability never changes
// reply bytes — only headers and side channels — which the serve tests
// pin with an obs-on/obs-off equivalence test.
package obsrv

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Config controls one Observer. The zero value means disabled.
type Config struct {
	// Enabled turns the layer on. When false, New returns nil and every
	// downstream call is a no-op.
	Enabled bool

	// SlowThreshold captures any request slower than this. Zero disables
	// the fixed threshold.
	SlowThreshold time.Duration

	// SlowQuantile (0 < q < 1) captures requests slower than the given
	// quantile of a trailing latency window. Zero disables.
	SlowQuantile float64
	// SlowWindow is the trailing-window size for SlowQuantile (default 256).
	SlowWindow int
	// SlowMin floors the quantile threshold so cold windows don't capture
	// everything (default 1ms).
	SlowMin time.Duration

	// CaptureDir is where slow-request captures land; empty disables
	// capture even when a threshold is set.
	CaptureDir string
	// CaptureMax bounds the number of capture files kept (default 32);
	// oldest are pruned.
	CaptureMax int

	// AccessLog receives one JSONL record per request when non-nil and
	// LogLevel admits it.
	AccessLog io.Writer
	// LogLevel gates access-log records (default LevelInfo).
	LogLevel Level

	// TraceCapacity is the per-request program-event ring size handed to
	// the interpreter when capture is armed (default
	// telemetry.DefaultTraceCapacity). Zero keeps the default; capture
	// disarmed means no ring is requested at all.
	TraceCapacity int
}

// Observer is the service-wide observability root: metric registry,
// access logger, slow-request capturer, and the request-ID sequence.
type Observer struct {
	cfg Config
	reg *Registry
	log *Logger
	cap *Capturer
	seq atomic.Int64

	start time.Time

	// Pre-registered hot-path series so a request touches no maps.
	reqTotal map[string]*Counter   // endpoint|code
	reqDur   map[string]*Histogram // endpoint
	phaseDur map[string]*Histogram // phase
	refused  *Counter
	timedOut *Counter
	captures *Counter
}

// Endpoints and codes covered by pre-registered counters; anything else
// falls back to the registry's locked lookup (rare codes only).
var (
	hotEndpoints = []string{"run", "compile", "stats", "metrics", "healthz", "readyz"}
	hotCodes     = []string{"200", "400", "404", "405", "500", "503", "504"}
)

// PhaseNames are the five request phases, in order. The slow-request
// capture acceptance check asserts all five appear in a capture.
var PhaseNames = []string{
	"admission-wait", "resolve", "schedule", "execute", "telemetry-merge",
}

// New builds an Observer, or nil when cfg.Enabled is false (the nil
// Observer is fully usable — all methods no-op).
func New(cfg Config) *Observer {
	if !cfg.Enabled {
		return nil
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 256
	}
	if cfg.SlowMin <= 0 {
		cfg.SlowMin = time.Millisecond
	}
	if cfg.CaptureMax <= 0 {
		cfg.CaptureMax = 32
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = telemetry.DefaultTraceCapacity
	}
	o := &Observer{
		cfg:      cfg,
		reg:      NewRegistry(),
		start:    time.Now(),
		reqTotal: make(map[string]*Counter),
		reqDur:   make(map[string]*Histogram),
		phaseDur: make(map[string]*Histogram),
	}
	if cfg.AccessLog != nil && cfg.LogLevel > LevelOff {
		o.log = NewLogger(cfg.AccessLog, cfg.LogLevel)
	}
	if cfg.CaptureDir != "" && (cfg.SlowThreshold > 0 || cfg.SlowQuantile > 0) {
		o.cap = newCapturer(cfg)
	}
	for _, ep := range hotEndpoints {
		for _, code := range hotCodes {
			o.reqTotal[ep+"|"+code] = o.reg.Counter("sharc_requests_total",
				"Requests served, by endpoint and status code.",
				"endpoint", ep, "code", code)
		}
		o.reqDur[ep] = o.reg.Histogram("sharc_request_duration_seconds",
			"End-to-end request latency.", "endpoint", ep)
	}
	for _, ph := range PhaseNames {
		o.phaseDur[ph] = o.reg.Histogram("sharc_phase_duration_seconds",
			"Per-phase request latency.", "phase", ph)
	}
	o.refused = o.reg.Counter("sharc_admission_refused_total",
		"Requests refused with 503 at admission.")
	o.timedOut = o.reg.Counter("sharc_request_timeouts_total",
		"Requests that hit their deadline and returned 504.")
	o.captures = o.reg.Counter("sharc_slow_captures_total",
		"Slow-request captures written.")
	o.reg.Gauge("sharc_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(o.start).Seconds() })
	registerGoRuntime(o.reg)
	o.reg.Counter("sharc_build_info",
		"Build metadata (constant 1).",
		"go_version", runtime.Version()).Add(1)
	return o
}

// Registry exposes the metric registry for extra gauges (serve wires
// in-flight, queue-depth, and cache gauges). Nil-safe.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// TraceCapacity is the program-event ring size to request from the
// interpreter when a capture could fire; 0 means capture is disarmed and
// no ring is needed. Nil-safe.
func (o *Observer) TraceCapacity() int {
	if o == nil || o.cap == nil {
		return 0
	}
	return o.cfg.TraceCapacity
}

// Req is one observed request: identity, span tree, and the fields that
// end up in the access log and capture.
type Req struct {
	ID       string
	Endpoint string

	start time.Time
	root  *Span
	cur   *Span
	obs   *Observer

	// Handle is the program cache handle, set once resolved.
	Handle string
	// fields are extra access-log key/values.
	fields []Field
}

// Field is one access-log key/value.
type Field struct {
	Key string
	Val any
}

// Begin opens an observed request for an endpoint. Nil-safe: a nil
// Observer returns a nil Req.
func (o *Observer) Begin(endpoint string) *Req {
	if o == nil {
		return nil
	}
	r := &Req{
		ID:       fmt.Sprintf("r-%06d", o.seq.Add(1)),
		Endpoint: endpoint,
		start:    time.Now(),
		obs:      o,
	}
	r.root = &Span{Name: endpoint, StartNS: 0, DurNS: -1, req: r}
	r.cur = r.root
	return r
}

// SetField attaches a key/value to the request's access-log record.
func (r *Req) SetField(key string, val any) {
	if r == nil {
		return
	}
	r.fields = append(r.fields, Field{key, val})
}

// SetHandle records the resolved program handle.
func (r *Req) SetHandle(h string) {
	if r == nil {
		return
	}
	r.Handle = h
}

// Outcome carries the request's terminal state into End.
type Outcome struct {
	Status int
	// Tracer is the program-level event ring from the run, when one was
	// requested; bundled into a slow capture.
	Tracer *telemetry.Tracer
	// Decisions is the scheduler decision count from the run (-1 when
	// free-running or not applicable).
	Decisions int64
	// Err is a short error string for the access log ("" on success).
	Err string
}

// End finishes the request: closes open spans, bumps metrics, writes the
// access log record, and fires a slow capture if the latency crosses the
// threshold. Nil-safe on both receiver and request.
func (o *Observer) End(r *Req, out Outcome) {
	if o == nil || r == nil {
		return
	}
	r.closeAll()
	lat := time.Duration(r.root.DurNS)

	code := fmt.Sprintf("%d", out.Status)
	if c, ok := o.reqTotal[r.Endpoint+"|"+code]; ok {
		c.Inc()
	} else {
		o.reg.Counter("sharc_requests_total",
			"Requests served, by endpoint and status code.",
			"endpoint", r.Endpoint, "code", code).Inc()
	}
	if h, ok := o.reqDur[r.Endpoint]; ok {
		h.Observe(lat)
	}
	for _, c := range r.root.Children {
		if h, ok := o.phaseDur[c.Name]; ok {
			h.Observe(time.Duration(c.DurNS))
		}
	}
	switch out.Status {
	case 503:
		o.refused.Inc()
	case 504:
		o.timedOut.Inc()
	}

	captured := ""
	if o.cap != nil {
		if path := o.cap.maybeCapture(r, lat, out); path != "" {
			o.captures.Inc()
			captured = path
		}
	}

	if o.log != nil {
		lvl := LevelInfo
		if out.Status >= 500 {
			lvl = LevelError
		}
		fields := []Field{
			{"req", r.ID},
			{"endpoint", r.Endpoint},
			{"status", out.Status},
			{"latency_ns", int64(lat)},
		}
		if r.Handle != "" {
			fields = append(fields, Field{"handle", r.Handle})
		}
		if out.Err != "" {
			fields = append(fields, Field{"error", out.Err})
		}
		if captured != "" {
			fields = append(fields, Field{"capture", captured})
		}
		fields = append(fields, r.fields...)
		o.log.Log(lvl, "request", fields...)
	}
}

// Debug writes a debug-level record to the access log (server lifecycle
// events: start, drain, shutdown). Nil-safe.
func (o *Observer) Debug(event string, fields ...Field) {
	if o == nil || o.log == nil {
		return
	}
	o.log.Log(LevelDebug, event, fields...)
}

// Info writes an info-level record to the access log. Nil-safe.
func (o *Observer) Info(event string, fields ...Field) {
	if o == nil || o.log == nil {
		return
	}
	o.log.Log(LevelInfo, event, fields...)
}

// WriteMetrics renders the registry as Prometheus text. Nil-safe (writes
// nothing on a nil Observer).
func (o *Observer) WriteMetrics(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.reg.WritePrometheus(w)
}

type ctxKey struct{}

// NewContext attaches a request to a context.
func NewContext(ctx context.Context, r *Req) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext recovers the request, or nil.
func FromContext(ctx context.Context) *Req {
	r, _ := ctx.Value(ctxKey{}).(*Req)
	return r
}
