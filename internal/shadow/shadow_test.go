package shadow

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

// at is a test site: l-value lv at a line of t.shc.
func at(lv string, line int) Site {
	return Site{LValue: lv, Pos: token.Pos{File: "t.shc", Line: line, Col: 1}}
}

// tidSites returns a site table whose site id tid is lv at line tid.
func tidSites(lv string, tids int) []Site {
	sites := make([]Site, tids+1)
	for tid := range sites {
		sites[tid] = at(lv, tid)
	}
	return sites
}

func TestSingleThreadReadWrite(t *testing.T) {
	s := New(64, []Site{at("x", 1)})
	const id = 0
	for i := 0; i < 10; i++ {
		if c := s.ChkRead(1, 10, id); c != nil {
			t.Fatalf("read conflict: %v", c)
		}
		if c := s.ChkWrite(1, 10, id); c != nil {
			t.Fatalf("write conflict: %v", c)
		}
	}
}

func TestMultipleReadersOK(t *testing.T) {
	s := New(64, []Site{at("x", 1)})
	const id = 0
	for tid := 1; tid <= 5; tid++ {
		if c := s.ChkRead(tid, 20, id); c != nil {
			t.Fatalf("reader %d conflicted: %v", tid, c)
		}
	}
}

func TestWriteAfterForeignReadConflicts(t *testing.T) {
	s := New(64, []Site{at("p[i]", 5), at("p[i]", 9)})
	const r, w = 0, 1
	if c := s.ChkRead(1, 20, r); c != nil {
		t.Fatal(c)
	}
	c := s.ChkWrite(2, 20, w)
	if c == nil {
		t.Fatal("expected write conflict after foreign read")
	}
	if c.Who.Tid != 2 || c.Last.Tid != 1 {
		t.Errorf("who=%d last=%d", c.Who.Tid, c.Last.Tid)
	}
	if c.Last.Site.LValue != "p[i]" || c.Last.Site.Pos.Line != 5 {
		t.Errorf("last site: %+v", c.Last.Site)
	}
}

func TestReadAfterForeignWriteConflicts(t *testing.T) {
	s := New(64, []Site{at("S->sdata", 27), at("S->sdata", 15)})
	const w, r = 0, 1
	if c := s.ChkWrite(1, 30, w); c != nil {
		t.Fatal(c)
	}
	c := s.ChkRead(2, 30, r)
	if c == nil {
		t.Fatal("expected read conflict after foreign write")
	}
	msg := c.Error()
	if !strings.Contains(msg, "read conflict(0x1e)") {
		t.Errorf("report format: %s", msg)
	}
	if !strings.Contains(msg, "who(2)") || !strings.Contains(msg, "last(1)") {
		t.Errorf("report should name both threads: %s", msg)
	}
}

func TestGranularityFalseSharing(t *testing.T) {
	// Cells 0 and 1 share a granule (16 bytes): accesses to distinct cells
	// in one granule conflict — the false-sharing limitation of §4.5.
	s := New(64, []Site{at("a", 1)})
	const id = 0
	if c := s.ChkWrite(1, 0, id); c != nil {
		t.Fatal(c)
	}
	if c := s.ChkWrite(2, 1, id); c == nil {
		t.Fatal("expected false-sharing conflict within a granule")
	}
	// Cell 2 is the next granule: no conflict.
	if c := s.ChkWrite(2, 2, id); c != nil {
		t.Fatalf("adjacent granule should be independent: %v", c)
	}
}

func TestClearThreadAllowsHandoff(t *testing.T) {
	s := New(64, []Site{at("x", 1)})
	const id = 0
	if c := s.ChkWrite(1, 8, id); c != nil {
		t.Fatal(c)
	}
	s.ClearThread(1)
	if c := s.ChkWrite(2, 8, id); c != nil {
		t.Fatalf("after ClearThread, new thread should own the granule: %v", c)
	}
}

// TestClearThreadKeepsLogCapacity: the next holder of a tid reuses the
// first-access log's capacity, so first accesses up to the previous
// holder's footprint append without allocating, and the cleared thread's
// bits are gone.
func TestClearThreadKeepsLogCapacity(t *testing.T) {
	s := New(4096, []Site{at("x", 1)})
	const id = 0
	touch := func(tid int) {
		for cell := int64(0); cell < 4096; cell += GranuleCells {
			if c := s.ChkWrite(tid, cell, id); c != nil {
				t.Fatal(c)
			}
		}
	}
	touch(1) // grows the log and allocates the shadow pages
	s.ClearThread(1)
	if allocs := testing.AllocsPerRun(10, func() {
		touch(1)
		s.ClearThread(1)
	}); allocs != 0 {
		t.Fatalf("a holder whose footprint fits the kept log allocated %v times", allocs)
	}
	if c := s.ChkWrite(2, 100, id); c != nil {
		t.Fatalf("ClearThread left thread 1's bits: %v", c)
	}
}

func TestClearRangeOnFree(t *testing.T) {
	s := New(64, []Site{at("x", 1)})
	const id = 0
	for cell := int64(16); cell < 24; cell++ {
		if c := s.ChkWrite(1, cell, id); c != nil {
			t.Fatal(c)
		}
	}
	s.ClearRange(16, 8)
	for cell := int64(16); cell < 24; cell++ {
		if c := s.ChkWrite(2, cell, id); c != nil {
			t.Fatalf("freed range should be clean: %v", c)
		}
	}
}

func TestWriterThenSameThreadRead(t *testing.T) {
	s := New(64, []Site{at("x", 1)})
	const id = 0
	if c := s.ChkWrite(3, 40, id); c != nil {
		t.Fatal(c)
	}
	if c := s.ChkRead(3, 40, id); c != nil {
		t.Fatalf("writer may read its own granule: %v", c)
	}
}

func TestConcurrentDisjointAccess(t *testing.T) {
	// Threads hammering disjoint granules never conflict, also while
	// ClearRange and ClearThread run against the same words: clears only
	// remove bits, so they race the check CAS loops without ever making
	// one fail.
	for _, tc := range []struct {
		name   string
		clears bool
	}{{"checks", false}, {"with-clears", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const threads = 8
			s := New(4096, tidSites("buf", threads))
			var wg sync.WaitGroup
			errs := make(chan *Conflict, threads)
			for tid := 1; tid <= threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					id := uint32(tid)
					base := int64(tid * 256)
					neighbour := int64((tid%threads + 1) * 256)
					for i := 0; i < 1000; i++ {
						cell := base + int64(i%128)
						if c := s.ChkWrite(tid, cell, id); c != nil {
							errs <- c
							return
						}
						if c := s.ChkRead(tid, cell, id); c != nil {
							errs <- c
							return
						}
						if !tc.clears {
							continue
						}
						switch i % 97 {
						case 13:
							s.ClearRange(neighbour, 128)
						case 51:
							s.ClearThread(tid)
						}
					}
					s.ClearThread(tid)
				}(tid)
			}
			wg.Wait()
			select {
			case c := <-errs:
				t.Fatalf("unexpected conflict: %v", c)
			default:
			}
		})
	}
}

func TestConcurrentSharedWriteDetected(t *testing.T) {
	// Two threads writing the same granule: at least one must observe a
	// conflict (whichever arrives second).
	s := New(64, tidSites("g", 2))
	var wg sync.WaitGroup
	conflicts := make(chan *Conflict, 2)
	for tid := 1; tid <= 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			id := uint32(tid)
			if c := s.ChkWrite(tid, 4, id); c != nil {
				conflicts <- c
			}
		}(tid)
	}
	wg.Wait()
	if len(conflicts) == 0 {
		t.Fatal("no conflict detected for racing writers")
	}
}

func TestReadersQuery(t *testing.T) {
	s := New(64, []Site{at("x", 1)})
	const id = 0
	s.ChkRead(2, 50, id)
	s.ChkRead(4, 50, id)
	readers, hasWriter := s.Readers(50)
	if len(readers) != 2 || readers[0] != 2 || readers[1] != 4 {
		t.Errorf("readers = %v", readers)
	}
	if hasWriter {
		t.Error("no writer expected")
	}
}

func TestPagesTouched(t *testing.T) {
	s := New(1<<20, []Site{at("x", 1)})
	const id = 0
	if s.PagesTouched() != 0 {
		t.Fatal("fresh shadow should have no pages touched")
	}
	s.ChkRead(1, 0, id)
	// One granule byte -> one page.
	if got := s.PagesTouched(); got != 1 {
		t.Fatalf("pages = %d, want 1", got)
	}
	// A cell 8192 granules away lands on a different shadow page.
	s.ChkRead(1, 8192*GranuleCells, id)
	if got := s.PagesTouched(); got != 2 {
		t.Fatalf("pages = %d, want 2", got)
	}
}

// TestPagesTouchedMatchesModel: over random checks, frees and queries, the
// touched-page count derived from the words directory is the number of
// distinct logical pages holding a checked granule.
func TestPagesTouchedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const cells = 1 << 22
	s := New(cells, []Site{at("x", 1)})
	const id = 0
	model := map[int]bool{}
	for i := 0; i < 2000; i++ {
		cell := rng.Int63n(cells + 64) // a few past the end are ignored
		switch rng.Intn(4) {
		case 0:
			s.ChkRead(1+rng.Intn(3), cell, id)
		case 1:
			s.ChkWrite(1+rng.Intn(3), cell, id)
		case 2:
			s.ClearRange(cell, 1+rng.Int63n(64))
			continue
		default:
			s.Readers(cell)
			continue
		}
		if g := granuleOf(cell); g < s.NumGranules() {
			model[g/shadowPage] = true
		}
		if i%100 == 0 {
			s.ClearThread(1 + rng.Intn(3))
		}
	}
	if got := s.PagesTouched(); got != len(model) {
		t.Fatalf("pages touched %d; model %d", got, len(model))
	}
}

// Property: for any sequence of same-thread operations, no conflict is ever
// reported (a single thread cannot race with itself).
func TestPropertySingleThreadNeverConflicts(t *testing.T) {
	f := func(ops []bool, cells []uint8) bool {
		s := New(256, []Site{at("x", 1)})
		const id = 0
		for i, isWrite := range ops {
			var cell int64
			if i < len(cells) {
				cell = int64(cells[i])
			}
			var c *Conflict
			if isWrite {
				c = s.ChkWrite(1, cell, id)
			} else {
				c = s.ChkRead(1, cell, id)
			}
			if c != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of reads from distinct threads is conflict-free
// as long as no one writes.
func TestPropertyReadersNeverConflict(t *testing.T) {
	f := func(tids []uint8, cells []uint8) bool {
		s := New(256, []Site{at("x", 1)})
		const id = 0
		for i := range tids {
			tid := int(tids[i]%MaxThreads) + 1
			var cell int64
			if i < len(cells) {
				cell = int64(cells[i])
			}
			if c := s.ChkRead(tid, cell, id); c != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after a write by thread A, a write by thread B to the same cell
// conflicts unless A's bits were cleared in between.
func TestPropertyWriteWriteConflicts(t *testing.T) {
	f := func(cell uint8, a, b uint8) bool {
		ta := int(a%MaxThreads) + 1
		tb := int(b%MaxThreads) + 1
		if ta == tb {
			return true
		}
		s := New(256, []Site{at("x", 1)})
		const id = 0
		if c := s.ChkWrite(ta, int64(cell), id); c != nil {
			return false
		}
		return s.ChkWrite(tb, int64(cell), id) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
