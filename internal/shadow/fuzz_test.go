package shadow

import (
	"fmt"
	"slices"
	"testing"
)

// The reference model for FuzzShadowDiscipline: per granule, a reader set
// and a writer flag under the n-readers-xor-1-writer rule, plus the last
// successful access that conflict reports name. Plain maps, no bit tricks.

const (
	fuzzCells   = 20 // cells 18 and 19 fall past the shadow's last granule
	fuzzShadow  = 16 // cells the shadow under test is sized for
	fuzzThreads = 4
)

type modelGranule struct {
	readers map[int]bool
	writer  bool
}

type model struct {
	granules int
	gs       map[int]*modelGranule
	last     map[int]Access // survives clears, like the shadow's
}

func newModel(cells int) *model {
	return &model{
		granules: (cells+GranuleCells-1)/GranuleCells + 1,
		gs:       make(map[int]*modelGranule),
		last:     make(map[int]Access),
	}
}

func (m *model) granule(g int) *modelGranule {
	mg := m.gs[g]
	if mg == nil {
		mg = &modelGranule{readers: make(map[int]bool)}
		m.gs[g] = mg
	}
	return mg
}

// others reports whether a thread other than tid reads the granule.
func (mg *modelGranule) others(tid int) bool {
	for r := range mg.readers {
		if r != tid {
			return true
		}
	}
	return false
}

// check applies one checked access and returns the conflict the shadow
// must report, or nil.
func (m *model) check(tid int, cell int64, kind AccessKind, site Site) *Conflict {
	g := granuleOf(cell)
	if g >= m.granules {
		return nil
	}
	mg := m.granule(g)
	bad := mg.others(tid)
	if kind == Read {
		bad = bad && mg.writer
	}
	if bad {
		return &Conflict{Addr: cell, Who: Access{Tid: tid, Kind: kind, Site: site}, Last: m.last[g]}
	}
	mg.readers[tid] = true
	if kind == Write {
		mg.writer = true
	}
	m.last[g] = Access{Tid: tid, Kind: kind, Site: site}
	return nil
}

func (m *model) clearThread(tid int) {
	for _, mg := range m.gs {
		delete(mg.readers, tid)
		if len(mg.readers) == 0 {
			mg.writer = false
		}
	}
}

func (m *model) clearRange(cell, n int64) {
	if n <= 0 {
		return
	}
	for g := granuleOf(cell); g <= granuleOf(cell+n-1); g++ {
		delete(m.gs, g)
	}
}

func (m *model) readers(cell int64) ([]int, bool) {
	g := granuleOf(cell)
	mg := m.gs[g]
	if g >= m.granules || mg == nil {
		return nil, false
	}
	var rs []int
	for r := range mg.readers {
		rs = append(rs, r)
	}
	slices.Sort(rs)
	return rs, mg.writer
}

// FuzzShadowDiscipline runs a decoded operation sequence on a Shadow and
// on the reference model, and demands the same conflict outcome for every
// check and the same Readers view of every granule after every operation.
//
// Each operation is two bytes. The first holds the kind in bits 0-1
// (read, write, ClearThread, ClearRange), tid-1 in bits 2-3 and a
// ClearRange length in bits 4-7; the second holds the cell (mod
// fuzzCells).
func FuzzShadowDiscipline(f *testing.F) {
	op := func(kind, tid, n, cell int) []byte {
		return []byte{byte(kind | (tid-1)<<2 | n<<4), byte(cell)}
	}
	seq := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	const rd, wr, clrT, clrR = 0, 1, 2, 3
	// TestPropertySingleThreadNeverConflicts: one thread, mixed accesses.
	f.Add(seq(op(rd, 1, 0, 3), op(wr, 1, 0, 3), op(wr, 1, 0, 4), op(rd, 1, 0, 9)))
	// TestPropertyReadersNeverConflict: many readers, no writer.
	f.Add(seq(op(rd, 1, 0, 6), op(rd, 2, 0, 6), op(rd, 3, 0, 7), op(rd, 4, 0, 6)))
	// TestPropertyWriteWriteConflicts: a foreign write after a write.
	f.Add(seq(op(wr, 1, 0, 5), op(wr, 2, 0, 5)))
	// Hand-offs through ClearThread and ClearRange, and out-of-range cells.
	f.Add(seq(op(wr, 1, 0, 8), op(rd, 2, 0, 9), op(clrT, 1, 0, 0), op(wr, 2, 0, 8)))
	f.Add(seq(op(rd, 1, 0, 2), op(rd, 2, 0, 2), op(clrR, 1, 4, 0), op(wr, 3, 0, 3)))
	f.Add(seq(op(wr, 3, 0, 18), op(wr, 4, 0, 19), op(rd, 1, 0, 17)))
	// A repeat read still moves the granule's last access, so the
	// conflict names thread 1 rather than thread 2.
	f.Add(seq(op(rd, 1, 0, 4), op(rd, 2, 0, 4), op(rd, 1, 0, 5), op(wr, 3, 0, 4)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var table []Site
		var sites [fuzzThreads + 1][2]uint32
		for tid := 1; tid <= fuzzThreads; tid++ {
			for k := Read; k <= Write; k++ {
				sites[tid][k] = uint32(len(table))
				table = append(table, at(fmt.Sprintf("t%d", tid), 2*tid+int(k)))
			}
		}
		s := New(fuzzShadow, table)
		m := newModel(fuzzShadow)
		for i := 0; i+1 < len(data); i += 2 {
			kind := int(data[i] & 3)
			tid := int(data[i]>>2&3) + 1
			n := int64(data[i] >> 4)
			cell := int64(data[i+1]) % fuzzCells
			switch kind {
			case 0, 1:
				k := AccessKind(kind)
				id := sites[tid][k]
				var got *Conflict
				if k == Read {
					got = s.ChkRead(tid, cell, id)
				} else {
					got = s.ChkWrite(tid, cell, id)
				}
				want := m.check(tid, cell, k, s.site(id))
				if (got == nil) != (want == nil) {
					t.Fatalf("op %d: %v by %d at cell %d: conflict %v, model %v", i/2, k, tid, cell, got, want)
				}
				if got != nil && *got != *want {
					t.Fatalf("op %d: conflict\n%v\nmodel\n%v", i/2, got, want)
				}
			case 2:
				s.ClearThread(tid)
				m.clearThread(tid)
			case 3:
				s.ClearRange(cell, n)
				m.clearRange(cell, n)
			}
			for c := int64(0); c < fuzzCells; c += GranuleCells {
				gr, gw := s.Readers(c)
				mr, mw := m.readers(c)
				if !slices.Equal(gr, mr) || gw != mw {
					t.Fatalf("op %d: Readers(%d) = %v writer=%v, model %v writer=%v", i/2, c, gr, gw, mr, mw)
				}
			}
		}
	})
}
