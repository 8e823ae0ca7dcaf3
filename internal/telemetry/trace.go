package telemetry

// The structured event tracer: an optional fixed-capacity ring buffer of
// runtime events (checks, cache hits, lock operations, thread lifecycle,
// scheduler decisions and blocking edges), each stamped with a logical
// sequence number and the scheduler's decision index at emission. No wall
// clock is consulted anywhere, so a seeded deterministic run produces a
// byte-identical export — the property the golden tests pin down.
//
// Exports: JSONL (one event per line, stable field order) and the Chrome
// trace_event format, so a schedule opens directly in a trace viewer
// (chrome://tracing, Perfetto).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Kind classifies trace events.
type Kind uint8

const (
	KindChkRead       Kind = iota // dynamic read check (addr = cell)
	KindChkWrite                  // dynamic write check
	KindLockedCheck               // locked-mode check (aux = 1 on violation)
	KindElidedCheck               // access whose check was statically elided
	KindCacheHit                  // check answered on the cache fast path
	KindConflict                  // dynamic-mode violation detected
	KindLockViolation             // locked-mode violation detected
	KindScast                     // sharing cast (addr = source slot)
	KindOnerefFail                // failed oneref check (addr = object base)
	KindLockAcquire               // addr = lock
	KindLockRelease               // addr = lock
	KindSpawn                     // aux = child tid
	KindJoin                      // aux = joined tid
	KindThreadEnd                 // thread epilogue
	KindMalloc                    // addr = base, aux = size
	KindFree                      // addr = base, aux = size
	KindSchedDecision             // scheduler picked this thread (aux = point)
	KindSchedBlock                // thread blocked at a point (aux = point)
)

var kindNames = [...]string{
	KindChkRead:       "chkread",
	KindChkWrite:      "chkwrite",
	KindLockedCheck:   "chklock",
	KindElidedCheck:   "elided",
	KindCacheHit:      "cachehit",
	KindConflict:      "conflict",
	KindLockViolation: "lockviol",
	KindScast:         "scast",
	KindOnerefFail:    "onereffail",
	KindLockAcquire:   "acquire",
	KindLockRelease:   "release",
	KindSpawn:         "spawn",
	KindJoin:          "join",
	KindThreadEnd:     "end",
	KindMalloc:        "malloc",
	KindFree:          "free",
	KindSchedDecision: "decision",
	KindSchedBlock:    "block",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// sched reports whether the kind is a scheduler event (aux is a
// sched.Point rather than a value).
func (k Kind) sched() bool { return k == KindSchedDecision || k == KindSchedBlock }

// Event is one traced runtime event. Seq is the global emission order;
// Step is the scheduler's decision count when the event fired (-1 under
// free running); Sched is the explore schedule index (0 for single runs).
type Event struct {
	Seq   uint64
	Step  int64
	Addr  int64
	Aux   int64
	Site  int32 // program site index; -1 when the event has no site
	Tid   int32
	Sched int32
	Kind  Kind
}

// Tracer is the ring buffer. Append is mutex-guarded: tracing is opt-in
// and the cost is paid only when enabled, so a contended fast path is not
// worth racing the ring slots for.
//
// All state is instance-scoped — there is deliberately no package-level
// mutable state anywhere in this package, so any number of checked
// programs (or portfolio explorer workers) can trace concurrently in one
// process. The step and sched stamps are ambient per-instance state: a
// tracer must therefore be driven by one runtime at a time (the portfolio
// explorer gives every worker its own tracer and merges afterwards with
// MergeTracers).
type Tracer struct {
	mu sync.Mutex
	// events grows on demand up to capacity, then wraps as a ring: a run
	// that appends few events never pays for the whole ring.
	events   []Event
	capacity int
	total    uint64
	// frozen marks a tracer produced by MergeTracers: events holds the
	// retained window verbatim (not a ring), total counts pre-merge
	// appends, and further appends are rejected.
	frozen bool

	info  []SiteInfo
	step  atomic.Int64
	sched atomic.Int32
}

// DefaultTraceCapacity is the ring size used when a caller enables tracing
// without choosing one.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer holding the last capacity events for a
// program whose sites are info.
func NewTracer(capacity int, info []SiteInfo) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{capacity: capacity, info: info}
	t.step.Store(-1)
	return t
}

// Append records one event (nil-safe: a nil tracer drops it; a frozen
// merged tracer is read-only and drops it too).
func (t *Tracer) Append(kind Kind, tid, site int, addr, aux int64) {
	if t == nil || t.frozen {
		return
	}
	e := Event{
		Step:  t.step.Load(),
		Addr:  addr,
		Aux:   aux,
		Site:  int32(site),
		Tid:   int32(tid),
		Sched: t.sched.Load(),
		Kind:  kind,
	}
	t.mu.Lock()
	e.Seq = t.total
	if len(t.events) < t.capacity {
		t.events = append(t.events, e)
	} else {
		t.events[t.total%uint64(len(t.events))] = e
	}
	t.total++
	t.mu.Unlock()
}

// SetStep stamps subsequent events with the scheduler's decision index.
func (t *Tracer) SetStep(n int64) {
	if t != nil {
		t.step.Store(n)
	}
}

// SetSchedule stamps subsequent events with an explore schedule index.
func (t *Tracer) SetSchedule(i int) {
	if t != nil {
		t.sched.Store(int32(i))
	}
}

// Total returns the number of events ever appended (including dropped).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring has overwritten (for a merged
// tracer: dropped before or during the merge).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := uint64(len(t.events)); t.total > n {
		return t.total - n
	}
	return 0
}

// Events returns the retained events oldest-first. Call after the program
// has quiesced.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		out := make([]Event, len(t.events))
		copy(out, t.events)
		return out
	}
	n := uint64(len(t.events))
	if t.total <= n {
		out := make([]Event, t.total)
		copy(out, t.events[:t.total])
		return out
	}
	out := make([]Event, 0, n)
	for i := t.total - n; i < t.total; i++ {
		out = append(out, t.events[i%n])
	}
	return out
}

// siteString renders an event's site, or "" when it has none.
func (t *Tracer) siteString(site int32) string {
	if site < 0 || int(site) >= len(t.info) {
		return ""
	}
	return t.info[site].String()
}

// SiteLabel renders an event's site exactly as the JSONL export would, or
// "" when the event has none. Nil-safe; lets consumers that hold raw
// Events (obsrv's combined capture view) label them consistently.
func (t *Tracer) SiteLabel(site int32) string {
	if t == nil {
		return ""
	}
	return t.siteString(site)
}

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}

// WriteJSONL writes the retained events as JSON Lines with a stable field
// order: seq, sched, step, tid, kind, then the kind-specific tail.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		fmt.Fprintf(bw, `{"seq":%d,"sched":%d,"step":%d,"tid":%d,"kind":%s`,
			e.Seq, e.Sched, e.Step, e.Tid, jstr(e.Kind.String()))
		if e.Kind.sched() {
			fmt.Fprintf(bw, `,"point":%s`, jstr(sched.Point(e.Aux).String()))
		} else {
			fmt.Fprintf(bw, `,"addr":%d`, e.Addr)
			if s := t.siteString(e.Site); s != "" {
				fmt.Fprintf(bw, `,"site":%s`, jstr(s))
			}
			if e.Aux != 0 {
				fmt.Fprintf(bw, `,"aux":%d`, e.Aux)
			}
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChrome writes the retained events in Chrome trace_event JSON. Each
// event is a 1-tick complete slice at ts=seq (logical time); pid is the
// explore schedule + 1, tid the ShC thread. Scheduler decisions and blocks
// become instant events so the interleaving reads directly off the track.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	// Thread-name metadata, one per (sched, tid) in first-appearance order.
	type lane struct{ sched, tid int32 }
	seen := map[lane]bool{}
	for _, e := range events {
		l := lane{e.Sched, e.Tid}
		if seen[l] {
			continue
		}
		seen[l] = true
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"shc-thread-%d"}}`,
			l.sched+1, l.tid, l.tid))
	}
	for _, e := range events {
		ph, dur := "X", `,"dur":1`
		if e.Kind.sched() || e.Kind == KindConflict || e.Kind == KindLockViolation || e.Kind == KindOnerefFail {
			ph, dur = "i", `,"s":"t"`
		}
		args := fmt.Sprintf(`"step":%d`, e.Step)
		if e.Kind.sched() {
			args += fmt.Sprintf(`,"point":%s`, jstr(sched.Point(e.Aux).String()))
		} else {
			args += fmt.Sprintf(`,"addr":%d`, e.Addr)
			if s := t.siteString(e.Site); s != "" {
				args += fmt.Sprintf(`,"site":%s`, jstr(s))
			}
			if e.Aux != 0 {
				args += fmt.Sprintf(`,"aux":%d`, e.Aux)
			}
		}
		emit(fmt.Sprintf(`{"name":%s,"cat":"shc","ph":%q,"ts":%d%s,"pid":%d,"tid":%d,"args":{%s}}`,
			jstr(e.Kind.String()), ph, e.Seq, dur, e.Sched+1, e.Tid, args))
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}
