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
package shadow

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ir"
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

// Site is a report site: an l-value's text and source position. A site
// id is the site's index in the table passed to New; the compiler's
// program site table may list equal sites twice, and both print alike.
type Site = ir.Site

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

// Shadow tracks reader/writer sets for a fixed-size cell memory. The
// per-granule state is demand-paged (internal/paged): programs use a small
// fraction of the address space, and eager full-size arrays would dominate
// runtime startup.
type Shadow struct {
	granules int
	words    paged.Table[atomic.Uint32] // reader/writer bit sets
	// last is best-effort metadata for reports: the last checked access per
	// granule, packed as tid<<33 | kind<<32 | siteID.
	last paged.Table[atomic.Uint64]

	// sites maps site ids to sites. It is the caller's table, shared and
	// never written.
	sites []Site

	// logs[tid] lists the granules thread tid has set bits on (first
	// access only), so ClearThread is proportional to the thread's
	// footprint. The logs have no lock. Only the goroutine holding tid
	// appends to logs[tid] (ChkRead, ChkWrite) and calls ClearThread(tid),
	// which the runtime does in its thread epilogue before returning tid
	// to its id pool; the pool's channel orders one holder's last use of
	// the log before the next holder's first (an id the pool hands out
	// fresh has had no holder). ClearThread truncates the log and keeps
	// its capacity for that next holder.
	logs [MaxThreads + 1][]int32
}

// New returns a shadow for a memory of the given number of cells whose
// checks name their sites by index into sites. The shadow keeps sites by
// reference; the caller must not change it.
func New(cells int, sites []Site) *Shadow {
	n := (cells+GranuleCells-1)/GranuleCells + 1
	return &Shadow{
		granules: n,
		words:    paged.NewTable[atomic.Uint32](int64(n)),
		last:     paged.NewTable[atomic.Uint64](int64(n)),
		sites:    sites,
	}
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

func (s *Shadow) site(id uint32) Site {
	if int(id) < len(s.sites) {
		return s.sites[id]
	}
	return Site{LValue: "?", Pos: token.Pos{}}
}

func granuleOf(cell int64) int { return int(cell) / GranuleCells }

// shadowPage is the number of granules one 4096-byte page of the logical
// shadow area covers, at one shadow byte per granule.
const shadowPage = 4096

// PagesTouched returns the number of distinct logical shadow pages touched,
// the reproduction's stand-in for the paper's minor-pagefault overhead. It
// is derived from the words directory at report time: only a check
// allocates a words page (ClearRange, Readers and wordValue look pages up,
// and ClearThread revisits granules a check logged), so a logical page is
// touched exactly when one of the words pages under its shadowPage
// granules exists.
func (s *Shadow) PagesTouched() int {
	n, end := 0, int64(s.granules)
	for g := int64(0); g < end; g += shadowPage {
		if s.words.Allocated(g, min(g+shadowPage, end)) {
			n++
		}
	}
	return n
}

func (s *Shadow) logFirstAccess(tid, g int) {
	s.logs[tid] = append(s.logs[tid], int32(g))
}

// recordLast notes the access as granule g's last. A thread re-checking a
// granule it checked last finds the value already there and stores
// nothing, so it does not write to a shared cache line on every check.
func (s *Shadow) recordLast(g int, tid int, kind AccessKind, siteID uint32) {
	v := uint64(tid)<<33 | uint64(kind&1)<<32 | uint64(siteID)
	if c := s.last.Slot(int64(g)); c.Load() != v {
		c.Store(v)
	}
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
// the reader set otherwise. Only the goroutine holding tid may call it
// (see Shadow.logs).
func (s *Shadow) ChkRead(tid int, cell int64, siteID uint32) *Conflict {
	g := granuleOf(cell)
	if g >= s.granules {
		return nil
	}
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
// granule, updating the writer marking otherwise. Only the goroutine
// holding tid may call it.
func (s *Shadow) ChkWrite(tid int, cell int64, siteID uint32) *Conflict {
	g := granuleOf(cell)
	if g >= s.granules {
		return nil
	}
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
// Only the goroutine holding tid may call it, after its last check.
func (s *Shadow) ClearThread(tid int) {
	me := uint32(1) << uint(tid)
	log := s.logs[tid]
	s.logs[tid] = log[:0]
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
