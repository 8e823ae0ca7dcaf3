package shadow

// Encoding selects how reader/writer sets are represented per granule.
//
// The paper's encoding (EncodingBitset) keeps one bit per thread, which
// "does not scale well to larger numbers of threads"; §4.2.1 and §7 name
// more efficient encodings as future work. EncodingState is that
// alternative: a compact state machine per granule —
//
//	EMPTY → RD1(tid) → RDMANY        readers
//	EMPTY/RD1(tid) → WR(tid)         the single writer
//
// which supports an unbounded number of thread ids in one word. The
// trade-off is precision on thread exit: a granule in RDMANY no longer
// knows *which* threads read it, so exiting readers cannot be removed
// individually and a later writer may see a stale conflict until the
// granule is cleared by free or a sharing cast. The tests pin down both
// the checking behavior and this documented imprecision.
type Encoding int

const (
	// EncodingBitset is the paper's n-byte reader/writer bit set
	// (bit 0 = writer flag, bit t = thread t reads): exact thread-exit
	// clearing, at most MaxThreads concurrent threads.
	EncodingBitset Encoding = iota
	// EncodingState is the compact state-machine encoding: unlimited
	// thread ids, approximate clearing for read-shared granules.
	EncodingState
)

// State-encoding word layout: state in the top 2 bits, tid in the rest.
const (
	stEmpty  uint32 = 0 << 30
	stRd1    uint32 = 1 << 30
	stRdMany uint32 = 2 << 30
	stWr     uint32 = 3 << 30

	stMask  uint32 = 3 << 30
	tidMask uint32 = 1<<30 - 1
)

// chkReadState implements chkread over the state encoding.
func (s *Shadow) chkReadState(tid int, cell int64, siteID uint32) *Conflict {
	g := granuleOf(cell)
	if g >= s.granules {
		return nil
	}
	s.touchPage(tid, g)
	wp := s.word(g)
	me := uint32(tid) & tidMask
	for {
		w := wp.Load()
		switch w & stMask {
		case stEmpty:
			if wp.CompareAndSwap(w, stRd1|me) {
				s.logFirstAccess(tid, g)
				s.recordLast(g, tid, Read, siteID)
				return nil
			}
		case stRd1:
			if w&tidMask == me {
				s.recordLast(g, tid, Read, siteID)
				return nil
			}
			if wp.CompareAndSwap(w, stRdMany) {
				s.logFirstAccess(tid, g)
				s.recordLast(g, tid, Read, siteID)
				return nil
			}
		case stRdMany:
			s.recordLast(g, tid, Read, siteID)
			return nil
		case stWr:
			if w&tidMask == me {
				s.recordLast(g, tid, Read, siteID)
				return nil
			}
			return s.conflict(cell, g, tid, Read, siteID)
		}
	}
}

// chkWriteState implements chkwrite over the state encoding.
func (s *Shadow) chkWriteState(tid int, cell int64, siteID uint32) *Conflict {
	g := granuleOf(cell)
	if g >= s.granules {
		return nil
	}
	s.touchPage(tid, g)
	wp := s.word(g)
	me := uint32(tid) & tidMask
	for {
		w := wp.Load()
		switch w & stMask {
		case stEmpty:
			if wp.CompareAndSwap(w, stWr|me) {
				s.logFirstAccess(tid, g)
				s.recordLast(g, tid, Write, siteID)
				return nil
			}
		case stRd1:
			if w&tidMask != me {
				return s.conflict(cell, g, tid, Write, siteID)
			}
			if wp.CompareAndSwap(w, stWr|me) {
				s.recordLast(g, tid, Write, siteID)
				return nil
			}
		case stRdMany:
			return s.conflict(cell, g, tid, Write, siteID)
		case stWr:
			if w&tidMask == me {
				s.recordLast(g, tid, Write, siteID)
				return nil
			}
			return s.conflict(cell, g, tid, Write, siteID)
		}
	}
}

// clearThreadState removes what can be removed exactly on thread exit:
// granules the thread holds exclusively (RD1/WR with its tid). RDMANY
// granules keep their anonymous reader population — the encoding's
// documented imprecision.
func (s *Shadow) clearThreadState(tid int, log []int32) {
	me := uint32(tid) & tidMask
	for _, g32 := range log {
		wp := s.word(int(g32))
		for {
			w := wp.Load()
			st := w & stMask
			if (st == stRd1 || st == stWr) && w&tidMask == me {
				if wp.CompareAndSwap(w, stEmpty) {
					break
				}
				continue
			}
			break
		}
	}
}

// stateOf reports the state-encoding view of a granule, for tests.
func (s *Shadow) stateOf(cell int64) (state uint32, tid int) {
	w := s.wordValue(granuleOf(cell))
	return w & stMask, int(w & tidMask)
}
