package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans stay in memory until the run ends.
type span struct {
	name   string
	op     int64 // operation id; every span of one operation shares it
	lane   int   // the benchmark goroutine that ran it
	parent int   // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or -1 on a nil tracer.
func (t *tracer) begin(name string, op int64, lane, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call runs fn as a child span of parent and returns how long it took,
// traced or not.
func (t *tracer) call(name string, op int64, lane, parent int, fn func()) time.Duration {
	id := t.begin(name, op, lane, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.finish(id)
	return d
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	Share   float64 `json:"self_share"`
}

// selfTimes aggregates span self time by name: a span's duration minus the
// part of it its children cover.
func selfTimes(spans []span) []selfRow {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := make(map[string]*selfRow)
	var all float64
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		dur := ms(s.end - s.start)
		self := dur - ms(covered(spans, children[i]))
		r := rows[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.TotalMS += dur
		r.SelfMS += self
		all += self
	}
	var out []selfRow
	for _, r := range rows {
		if all > 0 {
			r.Share = r.SelfMS / all
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		if s := spans[id]; s.end >= 0 {
			ivs = append(ivs, iv{s.start, s.end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func writeSelfTimes(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "self time by layer (%s):\n", workload)
	fmt.Fprintf(w, "  %-20s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %8d %12.2f %12.2f %6.1f%%\n", r.Name, r.Count, r.TotalMS, r.SelfMS, 100*r.Share)
	}
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	SelfTime        []selfRow    `json:"selfTime"`
}

// chromeTrace renders the spans as Chrome trace_event JSON with the
// self-time table alongside.
func chromeTrace(spans []span) ([]byte, error) {
	f := traceFile{DisplayTimeUnit: "ms", SelfTime: selfTimes(spans)}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.name,
			Ph:   "X",
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			PID:  1,
			TID:  s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	return json.Marshal(f)
}
