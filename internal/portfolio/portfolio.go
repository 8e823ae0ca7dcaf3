// Package portfolio is the worker-coordination layer for parallel schedule
// exploration: a portfolio of deterministic explorer workers exchanging
// covered-schedule digests and deduplicated findings through a pluggable
// sharing topology, in the architecture of portfolio SAT solvers (one
// Sharer per topology, strategies selected by a factory).
//
// The layer is deliberately ignorant of the interpreter: it moves only
// plain identities, digests, and finding summaries, so it can be tested in
// isolation and reused by any engine that explores a deterministic
// schedule space.
//
// Determinism contract. Everything a Sharing implementation transports is
// advisory: a memo lets a worker *skip re-executing* an interleaving whose
// byte-identical decision trace some worker has already covered, and the
// known-site set lets a worker *reorder* its remaining queue — neither may
// change the merged exploration output. Two schedules share an identity
// only when their strategies are the same pure function of the exploration
// seed, so their decision traces, reports, and outcome rows are equal by
// construction; skipping one and copying the other's memo is
// output-neutral no matter how many workers run or how messages race.
package portfolio

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sched"
)

// Digest is the 64-bit FNV-1a hash of a run-length-encoded decision trace:
// two schedules with equal digests executed the same interleaving.
type Digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash64 folds one 64-bit word into an FNV-1a state byte by byte.
func hash64(h Digest, v uint64) Digest {
	for i := 0; i < 8; i++ {
		h ^= Digest(v & 0xff)
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// DigestTrace hashes a recorded RLE decision trace. Only the decision
// steps enter the hash — not the strategy name or seed — so two schedules
// from different generators that happen to walk the same interleaving
// collide, which is exactly the equivalence the digest exists to detect.
func DigestTrace(tr *sched.Trace) Digest {
	h := Digest(fnvOffset)
	for _, s := range tr.Steps {
		h = hash64(h, uint64(s.Key))
		h = hash64(h, uint64(s.N))
	}
	return h
}

// Finding is the engine-independent summary of one distinct violation,
// carried inside memos so a skipped duplicate schedule still contributes
// its (identical) findings to the canonical merge.
type Finding struct {
	Kind     int
	KindName string
	File     string
	Line     int
	Col      int
	Site     string
	Msg      string
}

// Memo is the replay-free record of one covered schedule: everything a
// worker needs to emit the byte-identical outcome row for a duplicate of
// that schedule without executing it.
type Memo struct {
	Digest    Digest
	Decisions int64
	Deadlock  bool
	Reports   int
	Findings  []Finding
}

// Stats counts what a sharing instance transported. Timing-dependent by
// nature; used for benchmarking and logging, never for output.
type Stats struct {
	Published int64 // memos published by workers
	Hits      int64 // lookups answered with a memo
	Rounds    int64 // gather/redistribute rounds (global topology only)
}

// Sharing is one cross-worker exchange topology. Implementations must be
// safe for concurrent use by every worker plus the merger.
type Sharing interface {
	// Publish makes the memo for identity id visible to other workers
	// (eventually, depending on the topology).
	Publish(id string, m Memo)
	// Lookup returns the memo for id if the topology has made one visible
	// to the caller.
	Lookup(id string) (Memo, bool)
	// PublishSites shares the source sites of newly found violations, so
	// other workers can re-prioritize their remaining schedule queues.
	PublishSites(sites []string)
	// SiteCount returns how many distinct violation sites are known.
	SiteCount() int
	// Sites returns the known violation sites, sorted.
	Sites() []string
	// Stats reports transport counters.
	Stats() Stats
	// Close releases topology resources (the global topology's sharer
	// goroutine); the instance must not be used afterwards.
	Close()
}

// Kinds lists the sharing topologies the factory accepts.
var Kinds = []string{"none", "local", "global"}

// ValidKind reports whether kind names a sharing topology.
func ValidKind(kind string) bool {
	for _, k := range Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// New is the sharing-strategy factory: it instantiates the topology named
// by kind for a portfolio of the given worker count.
//
//	none    no cross-worker exchange; workers skip only duplicates they
//	        covered themselves
//	local   shared-memory broadcast: a published memo is visible to every
//	        worker immediately
//	global  gather rounds: a sharer goroutine periodically collects every
//	        worker's outbox and redistributes the merged view, modeling
//	        distributed portfolios where exchange is batched
func New(kind string, workers int) (Sharing, error) {
	switch kind {
	case "none":
		return &noneSharing{}, nil
	case "local", "":
		return newLocalSharing(), nil
	case "global":
		return newGlobalSharing(), nil
	}
	return nil, fmt.Errorf("portfolio: unknown sharing topology %q (want one of %v)", kind, Kinds)
}

// ---------------------------------------------------------------------------
// none

// noneSharing drops everything: the portfolio degenerates to independent
// workers with worker-local duplicate memos only.
type noneSharing struct{}

func (*noneSharing) Publish(string, Memo)       {}
func (*noneSharing) Lookup(string) (Memo, bool) { return Memo{}, false }
func (*noneSharing) PublishSites([]string)      {}
func (*noneSharing) SiteCount() int             { return 0 }
func (*noneSharing) Sites() []string            { return nil }
func (*noneSharing) Stats() Stats               { return Stats{} }
func (*noneSharing) Close()                     {}

// ---------------------------------------------------------------------------
// local broadcast

// localSharing is the shared-memory broadcast topology: one mutex-guarded
// map every worker publishes into and reads from directly.
type localSharing struct {
	mu    sync.RWMutex
	memos map[string]Memo
	sites map[string]bool
	stats Stats
}

func newLocalSharing() *localSharing {
	return &localSharing{memos: make(map[string]Memo), sites: make(map[string]bool)}
}

func (s *localSharing) Publish(id string, m Memo) {
	s.mu.Lock()
	if _, ok := s.memos[id]; !ok {
		s.memos[id] = m
		s.stats.Published++
	}
	s.mu.Unlock()
}

func (s *localSharing) Lookup(id string) (Memo, bool) {
	s.mu.RLock()
	m, ok := s.memos[id]
	s.mu.RUnlock()
	if ok {
		s.mu.Lock()
		s.stats.Hits++
		s.mu.Unlock()
	}
	return m, ok
}

func (s *localSharing) PublishSites(sites []string) {
	s.mu.Lock()
	for _, site := range sites {
		s.sites[site] = true
	}
	s.mu.Unlock()
}

func (s *localSharing) SiteCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sites)
}

func (s *localSharing) Sites() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.sites))
	for site := range s.sites {
		out = append(out, site)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

func (s *localSharing) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

func (s *localSharing) Close() {}

// ---------------------------------------------------------------------------
// global gather

// gatherInterval is how often the global topology's sharer goroutine
// gathers pending publications and redistributes the merged view.
const gatherInterval = 2 * time.Millisecond

type pendingMemo struct {
	id string
	m  Memo
}

// globalSharing is the gather-rounds topology: workers publish into a
// pending outbox; a dedicated sharer goroutine periodically merges the
// outbox into the visible view that Lookup reads. Propagation is delayed
// by up to one round, which models batched exchange between solver groups
// — and exercises the determinism contract, since a missed lookup only
// costs a redundant execution, never a different result.
type globalSharing struct {
	mu      sync.RWMutex
	pending []pendingMemo
	pSites  []string
	visible map[string]Memo
	sites   map[string]bool
	stats   Stats

	done chan struct{}
	wg   sync.WaitGroup
}

func newGlobalSharing() *globalSharing {
	s := &globalSharing{
		visible: make(map[string]Memo),
		sites:   make(map[string]bool),
		done:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.sharer()
	return s
}

// sharer is the gather loop: one round per tick until Close.
func (s *globalSharing) sharer() {
	defer s.wg.Done()
	ticker := time.NewTicker(gatherInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.gather()
		case <-s.done:
			return
		}
	}
}

// gather merges the pending outbox into the visible view.
func (s *globalSharing) gather() {
	s.mu.Lock()
	for _, p := range s.pending {
		if _, ok := s.visible[p.id]; !ok {
			s.visible[p.id] = p.m
		}
	}
	for _, site := range s.pSites {
		s.sites[site] = true
	}
	s.pending = s.pending[:0]
	s.pSites = s.pSites[:0]
	s.stats.Rounds++
	s.mu.Unlock()
}

func (s *globalSharing) Publish(id string, m Memo) {
	s.mu.Lock()
	s.pending = append(s.pending, pendingMemo{id: id, m: m})
	s.stats.Published++
	s.mu.Unlock()
}

func (s *globalSharing) Lookup(id string) (Memo, bool) {
	s.mu.RLock()
	m, ok := s.visible[id]
	s.mu.RUnlock()
	if ok {
		s.mu.Lock()
		s.stats.Hits++
		s.mu.Unlock()
	}
	return m, ok
}

func (s *globalSharing) PublishSites(sites []string) {
	s.mu.Lock()
	s.pSites = append(s.pSites, sites...)
	s.mu.Unlock()
}

func (s *globalSharing) SiteCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sites)
}

func (s *globalSharing) Sites() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.sites))
	for site := range s.sites {
		out = append(out, site)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

func (s *globalSharing) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Close stops the sharer goroutine after one final gather, so memos
// published before Close are visible to a post-Close merger.
func (s *globalSharing) Close() {
	close(s.done)
	s.wg.Wait()
	s.gather()
}
