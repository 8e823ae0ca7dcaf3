// Package shadow implements SharC's reader/writer-set tracking (§4.2.1).
//
// For every granule of memory (16 bytes in the paper; two 8-byte cells
// here) the runtime keeps a small bit set recording how threads have
// accessed it: bit 0 set means "the single thread whose reader bit is set
// also writes"; bit n (n >= 1) means thread n reads the granule. The checks
// enforce the n-readers-xor-1-writer discipline of the dynamic sharing mode:
//
//	chkread(id):  fails iff some other thread writes the granule
//	chkwrite(id): fails iff some other thread reads or writes the granule
//
// Updates are lock-free CAS loops, the moral equivalent of the cmpxchg
// instruction the paper uses. Each thread logs the granules it touches on
// first access so its bits can be cleared cheaply when it exits; free()
// clears a granule range outright (two threads whose lifetimes do not
// overlap do not race).
//
// An optional per-thread fast path (Options.CheckCache) remembers recently
// validated granules and answers repeat checks without touching the shared
// shadow words; see cache.go.
package shadow

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/paged"
	"repro/internal/token"
)

// GranuleCells is the number of memory cells per shadow granule. A cell
// models 8 bytes, so 2 cells = the paper's 16-byte granularity.
const GranuleCells = 2

// MaxThreads is the maximum concurrently live thread id (bits 1..31 of a
// 32-bit shadow word; bit 0 is the writer flag). The paper's n-byte
// encoding supports 8n-1 threads; a 4-byte word gives 31.
const MaxThreads = 31

// AccessKind distinguishes reads from writes in conflict reports.
type AccessKind int

const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Access describes one checked access for conflict reporting: which thread,
// through which l-value, at which source position.
type Access struct {
	Tid  int
	Kind AccessKind
	Site Site
}

// Site is an interned source location + l-value text.
type Site struct {
	LValue string
	Pos    token.Pos
}

// Conflict is a detected violation of the dynamic-mode discipline.
type Conflict struct {
	Addr int64 // cell address of the access
	Who  Access
	Last Access
}

// Error renders the conflict in the paper's report format:
//
//	read conflict(0x75324464):
//	 who(2)  S->sdata @ pipeline_test.c: 15
//	 last(1) nextS->sdata @ pipeline_test.c: 27
func (c *Conflict) Error() string {
	return fmt.Sprintf("%s conflict(0x%x):\n who(%d)  %s @ %s: %d\n last(%d) %s @ %s: %d",
		c.Who.Kind, c.Addr,
		c.Who.Tid, c.Who.Site.LValue, c.Who.Site.Pos.File, c.Who.Site.Pos.Line,
		c.Last.Tid, c.Last.Site.LValue, c.Last.Site.Pos.File, c.Last.Site.Pos.Line)
}

// threadLog collects the granules one thread has set bits on (first access
// only), so ClearThread is proportional to the thread's footprint. Each
// thread appends to its own log under its own lock: first accesses by
// different threads never serialize on a shared mutex.
type threadLog struct {
	mu sync.Mutex
	gs []int32
}

// CheckSink receives check-cache fast-path outcomes for telemetry
// attribution. Implementations must be safe for concurrent use; the site
// id is the interned shadow site of the check being answered.
type CheckSink interface {
	CacheLookup(tid int, siteID uint32, hit bool)
}

// Options configures a Shadow beyond its size.
type Options struct {
	// Encoding selects the reader/writer-set representation.
	Encoding Encoding
	// CheckCache enables the per-thread direct-mapped granule cache and the
	// per-thread last-page memo (the runtime half of check elision).
	CheckCache bool
	// Sink, when non-nil, observes cache lookups (telemetry).
	Sink CheckSink
}

// Shadow tracks reader/writer sets for a fixed-size cell memory. The
// per-granule state is demand-paged (internal/paged): programs use a small
// fraction of the address space, and eager full-size arrays would dominate
// runtime startup.
type Shadow struct {
	granules int
	enc      Encoding
	words    paged.Table[atomic.Uint32] // reader/writer bit sets
	// last is best-effort metadata for reports: the last checked access per
	// granule, packed as tid<<33 | kind<<32 | siteID.
	last paged.Table[atomic.Uint64]

	// sites interns (lvalue, pos) pairs.
	sitesMu sync.Mutex
	sites   []Site
	siteIDs map[Site]uint32

	// logs[tid] is the preallocated first-access log for the thread ids the
	// bitset encoding admits; extraLogs is the locked slow path for
	// state-encoding thread ids beyond MaxThreads.
	logs      [MaxThreads + 1]threadLog
	extraMu   sync.Mutex
	extraLogs map[int][]int32

	// caches holds the per-thread check caches when Options.CheckCache is
	// set (nil otherwise); epoch invalidates all of them at once. sink,
	// when non-nil, observes every cache lookup.
	caches []threadCache
	epoch  atomic.Uint64
	sink   CheckSink

	// pages tracks which 4096-byte pages of the logical 1-byte-per-granule
	// shadow area have been touched, for the paper's minor-pagefault metric.
	pages sync.Map // page index -> struct{}
}

// New returns a shadow for a memory of the given number of cells, using
// the paper's bit-set encoding.
func New(cells int) *Shadow { return NewWithOptions(cells, Options{}) }

// NewWithEncoding selects the reader/writer-set representation.
func NewWithEncoding(cells int, enc Encoding) *Shadow {
	return NewWithOptions(cells, Options{Encoding: enc})
}

// NewWithOptions returns a shadow configured by o.
func NewWithOptions(cells int, o Options) *Shadow {
	n := (cells+GranuleCells-1)/GranuleCells + 1
	s := &Shadow{
		granules: n,
		enc:      o.Encoding,
		words:    paged.NewTable[atomic.Uint32](int64(n)),
		last:     paged.NewTable[atomic.Uint64](int64(n)),
		siteIDs:  make(map[Site]uint32),
		sink:     o.Sink,
	}
	if o.CheckCache {
		s.caches = make([]threadCache, MaxThreads+1)
		s.epoch.Store(1)
	}
	return s
}

// NumGranules returns the number of granules covered.
func (s *Shadow) NumGranules() int { return s.granules }

// word returns the shadow word for granule g, allocating its page on
// first touch.
func (s *Shadow) word(g int) *atomic.Uint32 { return s.words.Slot(int64(g)) }

// wordValue reads granule g's shadow word without allocating.
func (s *Shadow) wordValue(g int) uint32 {
	if w := s.words.Lookup(int64(g)); w != nil {
		return w.Load()
	}
	return 0
}

// InternSite returns a stable id for a report site; the compiler interns
// each static access site once.
func (s *Shadow) InternSite(site Site) uint32 {
	s.sitesMu.Lock()
	defer s.sitesMu.Unlock()
	if id, ok := s.siteIDs[site]; ok {
		return id
	}
	id := uint32(len(s.sites))
	s.sites = append(s.sites, site)
	s.siteIDs[site] = id
	return id
}

func (s *Shadow) site(id uint32) Site {
	s.sitesMu.Lock()
	defer s.sitesMu.Unlock()
	if int(id) < len(s.sites) {
		return s.sites[id]
	}
	return Site{LValue: "?", Pos: token.Pos{}}
}

func granuleOf(cell int64) int { return int(cell) / GranuleCells }

// touchPage records the shadow page backing granule g as mapped (1 logical
// shadow byte per granule, 4096-byte pages). With the check cache enabled,
// a per-thread memo of the last page recorded skips the sync.Map round
// trip for runs of accesses on the same page; the page set is append-only,
// so the memo never suppresses a first touch.
func (s *Shadow) touchPage(tid, g int) {
	p := g / 4096
	if c := s.cacheFor(tid); c != nil {
		if c.lastPage == int64(p)+1 {
			c.pageHits++
			return
		}
		c.lastPage = int64(p) + 1
	}
	s.pages.LoadOrStore(p, struct{}{})
}

// PagesTouched returns the number of distinct logical shadow pages touched,
// the reproduction's stand-in for the paper's minor-pagefault overhead.
func (s *Shadow) PagesTouched() int {
	n := 0
	s.pages.Range(func(_, _ any) bool { n++; return true })
	return n
}

func (s *Shadow) logFirstAccess(tid, g int) {
	if tid >= 0 && tid <= MaxThreads {
		l := &s.logs[tid]
		l.mu.Lock()
		l.gs = append(l.gs, int32(g))
		l.mu.Unlock()
		return
	}
	// The state encoding admits thread ids beyond MaxThreads.
	s.extraMu.Lock()
	if s.extraLogs == nil {
		s.extraLogs = make(map[int][]int32)
	}
	s.extraLogs[tid] = append(s.extraLogs[tid], int32(g))
	s.extraMu.Unlock()
}

// takeLog detaches and returns tid's first-access log.
func (s *Shadow) takeLog(tid int) []int32 {
	if tid >= 0 && tid <= MaxThreads {
		l := &s.logs[tid]
		l.mu.Lock()
		log := l.gs
		l.gs = nil
		l.mu.Unlock()
		return log
	}
	s.extraMu.Lock()
	log := s.extraLogs[tid]
	delete(s.extraLogs, tid)
	s.extraMu.Unlock()
	return log
}

func (s *Shadow) recordLast(g int, tid int, kind AccessKind, siteID uint32) {
	s.last.Slot(int64(g)).Store(uint64(tid)<<33 | uint64(kind&1)<<32 | uint64(siteID))
}

func (s *Shadow) lastAccess(g int) Access {
	var v uint64
	if c := s.last.Lookup(int64(g)); c != nil {
		v = c.Load()
	}
	return Access{
		Tid:  int(v >> 33),
		Kind: AccessKind((v >> 32) & 1),
		Site: s.site(uint32(v)),
	}
}

// ChkRead implements chkread: thread tid reads the granule holding cell.
// It returns a conflict when another thread writes the granule, updating
// the reader set otherwise.
func (s *Shadow) ChkRead(tid int, cell int64, siteID uint32) *Conflict {
	if c := s.cacheFor(tid); c != nil {
		g := granuleOf(cell)
		c.lookups++
		epoch := s.epoch.Load()
		if c.get(g, strengthRead, epoch) {
			c.hits++
			if s.sink != nil {
				s.sink.CacheLookup(tid, siteID, true)
			}
			return nil
		}
		conf := s.chkReadSlow(tid, cell, siteID)
		if conf == nil && g < s.granules {
			c.put(g, strengthRead, epoch)
		}
		if s.sink != nil {
			s.sink.CacheLookup(tid, siteID, false)
		}
		return conf
	}
	return s.chkReadSlow(tid, cell, siteID)
}

func (s *Shadow) chkReadSlow(tid int, cell int64, siteID uint32) *Conflict {
	if s.enc == EncodingState {
		return s.chkReadState(tid, cell, siteID)
	}
	g := granuleOf(cell)
	if g >= s.granules {
		return nil
	}
	s.touchPage(tid, g)
	wp := s.word(g)
	me := uint32(1) << uint(tid)
	for {
		w := wp.Load()
		if w&1 != 0 && w&^(1|me) != 0 {
			// Someone else is the writer.
			return s.conflict(cell, g, tid, Read, siteID)
		}
		if w&me != 0 {
			// Already a reader; nothing to update.
			s.recordLast(g, tid, Read, siteID)
			return nil
		}
		if wp.CompareAndSwap(w, w|me) {
			s.logFirstAccess(tid, g)
			s.recordLast(g, tid, Read, siteID)
			return nil
		}
	}
}

// ChkWrite implements chkwrite: thread tid writes the granule holding
// cell. It returns a conflict when any other thread reads or writes the
// granule, updating the writer marking otherwise.
func (s *Shadow) ChkWrite(tid int, cell int64, siteID uint32) *Conflict {
	if c := s.cacheFor(tid); c != nil {
		g := granuleOf(cell)
		c.lookups++
		epoch := s.epoch.Load()
		if c.get(g, strengthWrite, epoch) {
			c.hits++
			if s.sink != nil {
				s.sink.CacheLookup(tid, siteID, true)
			}
			return nil
		}
		conf := s.chkWriteSlow(tid, cell, siteID)
		if conf == nil && g < s.granules {
			c.put(g, strengthWrite, epoch)
		}
		if s.sink != nil {
			s.sink.CacheLookup(tid, siteID, false)
		}
		return conf
	}
	return s.chkWriteSlow(tid, cell, siteID)
}

func (s *Shadow) chkWriteSlow(tid int, cell int64, siteID uint32) *Conflict {
	if s.enc == EncodingState {
		return s.chkWriteState(tid, cell, siteID)
	}
	g := granuleOf(cell)
	if g >= s.granules {
		return nil
	}
	s.touchPage(tid, g)
	wp := s.word(g)
	me := uint32(1) << uint(tid)
	for {
		w := wp.Load()
		if w&^(1|me) != 0 {
			// Another thread reads or writes the granule.
			return s.conflict(cell, g, tid, Write, siteID)
		}
		nw := w | me | 1
		if w == nw {
			s.recordLast(g, tid, Write, siteID)
			return nil
		}
		if wp.CompareAndSwap(w, nw) {
			if w&me == 0 {
				s.logFirstAccess(tid, g)
			}
			s.recordLast(g, tid, Write, siteID)
			return nil
		}
	}
}

func (s *Shadow) conflict(cell int64, g, tid int, kind AccessKind, siteID uint32) *Conflict {
	return &Conflict{
		Addr: cell,
		Who:  Access{Tid: tid, Kind: kind, Site: s.site(siteID)},
		Last: s.lastAccess(g),
	}
}

// ClearThread removes tid's bits from every granule it touched: SharC does
// not consider accesses by threads whose lifetimes do not overlap to race.
func (s *Shadow) ClearThread(tid int) {
	s.Invalidate()
	log := s.takeLog(tid)
	if s.enc == EncodingState {
		s.clearThreadState(tid, log)
		return
	}
	me := uint32(1) << uint(tid)
	for _, g32 := range log {
		wp := s.word(int(g32))
		for {
			w := wp.Load()
			nw := w &^ me
			if nw&^1 == 0 {
				nw = 0 // no readers left: clear the writer flag too
			}
			if w == nw || wp.CompareAndSwap(w, nw) {
				break
			}
		}
	}
}

// ClearRange clears all access bits for the cells [cell, cell+n): used when
// memory is freed and when a sharing cast transfers an object (the formal
// semantics clears the readers/writers sets on scast).
func (s *Shadow) ClearRange(cell, n int64) {
	if n <= 0 {
		return
	}
	s.Invalidate()
	g0 := granuleOf(cell)
	g1 := granuleOf(cell + n - 1)
	for g := g0; g <= g1 && g < s.granules; g++ {
		if w := s.words.Lookup(int64(g)); w != nil {
			w.Store(0)
		}
	}
}

// Readers returns the reader set and writer flag of the granule holding
// cell, for tests and diagnostics.
func (s *Shadow) Readers(cell int64) (readers []int, hasWriter bool) {
	g := granuleOf(cell)
	if g >= s.granules {
		return nil, false
	}
	w := s.wordValue(g)
	for t := 1; t <= MaxThreads; t++ {
		if w&(1<<uint(t)) != 0 {
			readers = append(readers, t)
		}
	}
	return readers, w&1 != 0
}
