// Package serve is the long-running checked-execution service: a client
// submits ShC programs over HTTP and gets back the report/exit/telemetry
// JSON that `sharc run` would print, but the front half of the pipeline
// (lex, type, infer, check, vet, compile) runs once per distinct program
// and the frozen flat IR is shared read-only by every subsequent request.
//
// The cache below is that compile-once half. Keys are content hashes over
// the canonical (name, options, source) tuple, so a byte-identical
// resubmission — inline or by handle — hits the same entry regardless of
// which connection sent it. Concurrent identical misses are collapsed to
// one compile (singleflight); capacity is bounded by LRU eviction.
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/vet"
)

// progKey names the compiled artifact: the same source compiled with
// and without vet discharge is a different program with different check
// sites, so the option is part of the identity.
type progKey struct {
	Name      string
	Discharge bool
}

// keyOf derives the cache handle. The canonical string is versioned so a
// future change to key composition cannot alias old handles.
func keyOf(k progKey, src string) string {
	h := sha256.New()
	fmt.Fprintf(h, "sharc-serve-v2\x00name=%s\x00discharge=%t\x00", k.Name, k.Discharge)
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one compiled program plus its server-side telemetry aggregate.
type entry struct {
	handle string
	key    progKey

	// ready is closed when the compile finishes; until then prog and
	// compileErr are not readable. This is the singleflight latch: the
	// first requester compiles, everyone else waits on the channel.
	ready      chan struct{}
	prog       *ir.Program
	compileErr error

	// Telemetry flush is batched: finished requests append their
	// collector here and every batchSize-th arrival folds the pending
	// slice into agg with the canonical site-aligned merge. GlobalStats
	// are cheap value merges and fold immediately.
	mu      sync.Mutex
	pending []*telemetry.Collector
	agg     *telemetry.Collector
	gstats  telemetry.GlobalStats
	runs    int64
}

// addRun folds one finished request's telemetry into the entry.
func (e *entry) addRun(col *telemetry.Collector, g telemetry.GlobalStats, batch int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runs++
	e.gstats = telemetry.MergeGlobalStats(e.gstats, g)
	if col == nil {
		return
	}
	e.pending = append(e.pending, col)
	if len(e.pending) >= batch {
		e.flushLocked()
	}
}

func (e *entry) flushLocked() {
	for _, c := range e.pending {
		if e.agg == nil {
			e.agg = c
			continue
		}
		e.agg.Merge(c)
	}
	e.pending = e.pending[:0]
}

// snapshot flushes pending collectors and returns the entry's aggregate
// view for the /stats endpoint.
func (e *entry) snapshot() (int64, telemetry.GlobalStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushLocked()
	return e.runs, e.gstats
}

// cache is the bounded compiled-program store. All bookkeeping (map, LRU
// list, hit/miss tallies) lives under one mutex; compiles happen outside
// it so a slow build never stalls unrelated lookups.
type cache struct {
	cap   int // max entries; <= 0 disables caching entirely
	batch int // telemetry flush batch size

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List               // front = most recently used
	elems   map[string]*list.Element // handle -> lru element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newCache(capacity, batch int) *cache {
	if batch <= 0 {
		batch = 8
	}
	return &cache{
		cap:     capacity,
		batch:   batch,
		entries: make(map[string]*entry),
		lru:     list.New(),
		elems:   make(map[string]*list.Element),
	}
}

// lookup returns the cached entry for a handle, or nil. It counts neither
// hit nor miss: by-handle requests for unknown handles are client errors,
// not cache misses.
func (c *cache) lookup(handle string) *entry {
	c.mu.Lock()
	e := c.entries[handle]
	if e != nil {
		c.touchLocked(handle)
	}
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	<-e.ready
	if e.compileErr != nil {
		return nil
	}
	return e
}

// getOrCompile returns the entry for (key, src), compiling at most once
// per distinct program across concurrent requesters. The bool reports
// whether this call was a cache hit (an already-finished entry existed).
func (c *cache) getOrCompile(k progKey, src string) (*entry, bool, error) {
	handle := keyOf(k, src)

	if c.cap <= 0 {
		// Caching disabled: compile fresh every time.
		c.misses.Add(1)
		e := &entry{handle: handle, key: k, ready: make(chan struct{})}
		e.prog, e.compileErr = compileProgram(k, src)
		close(e.ready)
		return e, false, e.compileErr
	}

	c.mu.Lock()
	if e, ok := c.entries[handle]; ok {
		c.touchLocked(handle)
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e, true, e.compileErr
	}
	e := &entry{handle: handle, key: k, ready: make(chan struct{})}
	c.entries[handle] = e
	c.elems[handle] = c.lru.PushFront(handle)
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Add(1)

	e.prog, e.compileErr = compileProgram(k, src)
	close(e.ready)
	if e.compileErr != nil {
		// Drop failed compiles so a corrected resubmission is not poisoned
		// by the stale error (the handle is content-addressed, but the
		// slot is better spent on programs that run).
		c.remove(handle)
	}
	return e, false, e.compileErr
}

func (c *cache) touchLocked(handle string) {
	if el, ok := c.elems[handle]; ok {
		c.lru.MoveToFront(el)
	}
}

// evictLocked trims to capacity from the LRU tail. Evicted entries stay
// valid for requests already holding them (the runner keeps its own
// pointer); only the map slot is reclaimed.
func (c *cache) evictLocked() {
	for len(c.entries) > c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		h := back.Value.(string)
		c.lru.Remove(back)
		delete(c.elems, h)
		delete(c.entries, h)
		c.evictions.Add(1)
	}
}

func (c *cache) remove(handle string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[handle]; ok {
		c.lru.Remove(el)
		delete(c.elems, handle)
	}
	delete(c.entries, handle)
}

// forEach visits every completed entry (for /stats aggregation).
func (c *cache) forEach(f func(*entry)) {
	c.mu.Lock()
	snap := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		snap = append(snap, e)
	}
	c.mu.Unlock()
	for _, e := range snap {
		select {
		case <-e.ready:
			if e.compileErr == nil {
				f(e)
			}
		default: // still compiling; skip
		}
	}
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// compileProgram runs the front half of the pipeline once: analysis,
// optional vet discharge, and compilation to the frozen flat IR that all
// subsequent requests share read-only.
func compileProgram(k progKey, src string) (*ir.Program, error) {
	a, err := core.Analyze(parser.Source{Name: k.Name, Text: src})
	if err != nil {
		return nil, err
	}
	if err := a.Err(); err != nil {
		return nil, err
	}
	opts := compile.DefaultOptions()
	if k.Discharge {
		opts.Discharge = vet.Analyze(a.World, a.Inf).Discharge()
	}
	return a.Build(opts)
}
