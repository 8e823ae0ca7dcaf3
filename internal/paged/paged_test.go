package paged

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// allocated counts the allocated leaves and pages of t.
func allocated[T any](t *Table[T]) (leaves, pages int) {
	for i := range t.top {
		l := t.top[i].Load()
		if l == nil {
			continue
		}
		leaves++
		for j := range l {
			if l[j].Load() != nil {
				pages++
			}
		}
	}
	return leaves, pages
}

// cellPages counts the allocated pages of t.
func cellPages(t *Int64s) int {
	n := 0
	for i := range t.dir {
		if t.dir[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestUntouchedReadsZeroWithoutAllocating(t *testing.T) {
	cells := NewInt64s(1 << 20)
	bits := NewBits(1 << 20)
	words := NewTable[atomic.Uint32](1 << 20)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(0); i < 1<<20; i += pageSize / 2 {
			if v := cells.Load(i); v != 0 {
				t.Fatalf("Load(%d) = %d on an untouched page", i, v)
			}
			if bits.Test(i) {
				t.Fatalf("Test(%d) set on an untouched page", i)
			}
			if words.Lookup(i) != nil {
				t.Fatalf("Lookup(%d) non-nil on an untouched page", i)
			}
			bits.Clear(i)
			cells.Store(i, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("reads, clears and zero stores of untouched pages allocated %v times per run", allocs)
	}
	l1, p1 := allocated(&bits.words)
	l2, p2 := allocated(&words)
	if n := cellPages(&cells) + l1 + p1 + l2 + p2; n != 0 {
		t.Fatalf("%d leaves or pages allocated by reads", n)
	}
}

// TestUntouchedPageOfTouchedLeafAllocatesNothing: once a leaf exists, the
// reads and clears of its other, untouched pages still allocate nothing,
// and neither do those of the leaves around it.
func TestUntouchedPageOfTouchedLeafAllocatesNothing(t *testing.T) {
	const n = 4 * leafSize * pageSize
	words := NewTable[atomic.Uint32](n)
	bits := NewBits(32 * n)
	touched := int64(leafSize*pageSize + 5*pageSize + 3) // leaf 1, page 5
	words.Slot(touched).Store(7)
	bits.Set(32 * touched)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(0); i < n; i += pageSize / 4 {
			if i>>pageShift == touched>>pageShift {
				continue
			}
			if words.Lookup(i) != nil {
				t.Fatalf("Lookup(%d) non-nil on an untouched page", i)
			}
			if bits.Test(32 * i) {
				t.Fatalf("Test(%d) set on an untouched page", 32*i)
			}
			bits.Clear(32 * i)
		}
	})
	if allocs != 0 {
		t.Fatalf("reads and clears of untouched pages allocated %v times per run", allocs)
	}
	if l, p := allocated(&words); l != 1 || p != 1 {
		t.Fatalf("words: %d leaves, %d pages allocated, want 1 and 1", l, p)
	}
	if l, p := allocated(&bits.words); l != 1 || p != 1 {
		t.Fatalf("bits: %d leaves, %d pages allocated, want 1 and 1", l, p)
	}
	if got := words.Lookup(touched); got == nil || got.Load() != 7 {
		t.Fatal("Lookup lost the stored element")
	}
}

func TestFirstWriteAllocatesOnePage(t *testing.T) {
	cells := NewInt64s(10 * pageSize)
	if got := cells.Len(); got != 10*pageSize {
		t.Fatalf("Len = %d", got)
	}
	cells.Store(3*pageSize+7, 42)
	cells.Store(3*pageSize+8, 43)
	if got := cellPages(&cells); got != 1 {
		t.Fatalf("two stores to one page allocated %d pages", got)
	}
	if got := cells.Load(3*pageSize + 7); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	cells.Store(3*pageSize+7, 0)
	if got := cells.Load(3*pageSize + 7); got != 0 {
		t.Fatalf("zero store to an allocated page left %d", got)
	}

	vals := NewTable[atomic.Int64](3 * leafSize * pageSize)
	vals.Slot(3*pageSize + 8).Store(43)
	vals.Slot(3*pageSize + 9).Store(44)
	if l, p := allocated(&vals); l != 1 || p != 1 {
		t.Fatalf("two stores to one page allocated %d leaves, %d pages", l, p)
	}
	if p := vals.Lookup(3*pageSize + 8); p == nil || p.Load() != 43 {
		t.Fatalf("Lookup did not see the stored value")
	}
	if vals.Slot(3*pageSize+8) != vals.Lookup(3*pageSize+8) {
		t.Fatal("Slot and Lookup disagree on an allocated page")
	}
	vals.Slot(2*leafSize*pageSize + 1).Store(45) // another leaf
	if l, p := allocated(&vals); l != 2 || p != 2 {
		t.Fatalf("a store under a second leaf left %d leaves, %d pages", l, p)
	}
}

func TestAllocatedReportsPagesInRange(t *testing.T) {
	vals := NewTable[atomic.Int64](10 * pageSize)
	if vals.Allocated(0, 10*pageSize) {
		t.Fatal("fresh table reports an allocated page")
	}
	vals.Slot(3*pageSize + 7).Store(1)
	for _, c := range []struct {
		lo, hi int64
		want   bool
	}{
		{0, 3 * pageSize, false},
		{0, 3*pageSize + 1, true},
		{3*pageSize + 511, 3*pageSize + 512, true},
		{3*pageSize + 7, 3*pageSize + 7, false}, // empty
		{4 * pageSize, 10 * pageSize, false},
		{2 * pageSize, 5 * pageSize, true},
		{9 * pageSize, 12 * pageSize, false}, // past the end
	} {
		if got := vals.Allocated(c.lo, c.hi); got != c.want {
			t.Errorf("Allocated(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if l, p := allocated(&vals); l != 1 || p != 1 {
		t.Fatalf("queries allocated: %d leaves, %d pages", l, p)
	}
}

// TestAllocatedAcrossLeaves covers ranges that start, end or skip over
// absent leaves, and the partial last leaf and page at the table's end.
func TestAllocatedAcrossLeaves(t *testing.T) {
	const lp = leafSize * pageSize // elements per leaf
	const n = 3*lp + 2*pageSize + 100
	vals := NewTable[atomic.Int64](n)
	if got := len(vals.top); got != 4 {
		t.Fatalf("%d top-level entries, want 4", got)
	}
	vals.Slot(lp - 1).Store(1)        // last page of leaf 0
	vals.Slot(3*lp + 2*pageSize + 99) // last element: partial page of leaf 3
	for _, c := range []struct {
		lo, hi int64
		want   bool
	}{
		{0, lp - pageSize, false},
		{0, lp - pageSize + 1, true},
		{lp - 1, lp, true},
		{lp, 3*lp + 2*pageSize, false},        // leaves 1-2 absent, leaf 3 untouched below
		{lp - 1, lp + 1, true},                // straddles leaves 0 and 1
		{lp + 5, 3*lp + 2*pageSize + 1, true}, // from an absent leaf into leaf 3's page
		{3*lp + 2*pageSize + 99, n, true},
		{n, n + 5*pageSize, true},                           // the last page's tail, past the end
		{(n + pageMask) &^ pageMask, n + 5*pageSize, false}, // past the last page
		{n - 1, n + lp, true},                               // ends past the end
		{4 * lp, 5 * lp, false},                             // past the directory
		{2 * lp, 2*lp + 1, false},                           // one element of an absent leaf
		{3 * lp, 3*lp + pageSize, false},
	} {
		if got := vals.Allocated(c.lo, c.hi); got != c.want {
			t.Errorf("Allocated(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if l, p := allocated(&vals); l != 2 || p != 2 {
		t.Fatalf("%d leaves, %d pages allocated, want 2 and 2", l, p)
	}
	var empty Table[atomic.Int64]
	if empty.Allocated(0, pageSize) || empty.Len() != 0 {
		t.Fatal("the zero Table reports an element or page")
	}
}

func TestBits(t *testing.T) {
	b := NewBits(100_000)
	if !b.Set(99_999) {
		t.Fatal("first Set reported no change")
	}
	if b.Set(99_999) {
		t.Fatal("second Set reported a change")
	}
	if !b.Test(99_999) || b.Test(99_998) {
		t.Fatal("Test disagrees with Set")
	}
	b.Clear(99_999)
	if b.Test(99_999) {
		t.Fatal("Clear left the bit set")
	}
}

// TestConcurrentFirstStores races N goroutines' first stores into distinct
// cells of one untouched page: whichever page wins the install, every
// store must land in it.
func TestConcurrentFirstStores(t *testing.T) {
	const n = 64
	for round := 0; round < 50; round++ {
		cells := NewInt64s(4 * pageSize)
		bits := NewBits(4 * pageSize)
		base := int64(2 * pageSize)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int64) {
				defer wg.Done()
				<-start
				cells.Store(base+g, g+1)
				bits.Set(base + g)
			}(int64(g))
		}
		close(start)
		wg.Wait()
		for g := int64(0); g < n; g++ {
			if got := cells.Load(base + g); got != g+1 {
				t.Fatalf("round %d: cell %d = %d, want %d (store lost to a page race)", round, g, got, g+1)
			}
			if !bits.Test(base + g) {
				t.Fatalf("round %d: bit %d lost to a page race", round, g)
			}
		}
		if got := cellPages(&cells); got != 1 {
			t.Fatalf("round %d: %d cell pages allocated, want 1", round, got)
		}
	}
}

// TestConcurrentFirstStoresUnderAbsentLeaf races 64 goroutines' first
// stores under one absent leaf, to 64 different pages and then all to one
// page: whichever leaf and page win their installs, every store must land.
func TestConcurrentFirstStoresUnderAbsentLeaf(t *testing.T) {
	const n = 64
	for _, c := range []struct {
		name   string
		stride int64 // elements between goroutines' indexes
		pages  int
	}{
		{"different pages", pageSize, n},
		{"one page", 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				vals := NewTable[atomic.Int64](3 * leafSize * pageSize)
				base := int64(leafSize*pageSize + 3) // leaf 1
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < n; g++ {
					wg.Add(1)
					go func(g int64) {
						defer wg.Done()
						<-start
						vals.Slot(base + g*c.stride).Store(g + 1)
					}(int64(g))
				}
				close(start)
				wg.Wait()
				for g := int64(0); g < n; g++ {
					p := vals.Lookup(base + g*c.stride)
					if p == nil || p.Load() != g+1 {
						t.Fatalf("round %d: element %d lost to a leaf or page race", round, g)
					}
				}
				if l, p := allocated(&vals); l != 1 || p != c.pages {
					t.Fatalf("round %d: %d leaves, %d pages allocated, want 1 and %d", round, l, p, c.pages)
				}
			}
		})
	}
}

// installedPages returns the page indexes t's directory has logged.
func installedPages(t *Int64s) []int64 {
	t.d.mu.Lock()
	defer t.d.mu.Unlock()
	return slices.Clone(t.d.pages)
}

// TestReleasedInt64sReadsZero: a table set up on a released directory
// reads 0 at every cell the released table wrote, over the same length
// and over a shorter one.
func TestReleasedInt64sReadsZero(t *testing.T) {
	const n = 40*pageSize + 17
	written := []int64{0, 1, pageSize - 1, pageSize, 7*pageSize + 3, 20 * pageSize, 39*pageSize + 100, n - 1}
	reused := 0
	var last *directory
	for round := 0; round < 20; round++ {
		size := int64(n)
		if round%2 == 1 {
			size = 21 * pageSize // the shorter table still covers cell 20*pageSize
		}
		cells := NewInt64s(size)
		if cells.d == last {
			reused++
		}
		if got := int64(len(cells.dir)); got != (size+pageMask)>>pageShift || cells.Len() != size {
			t.Fatalf("round %d: length %d with %d directory entries", round, cells.Len(), got)
		}
		for _, i := range written {
			if i >= size {
				continue
			}
			if v := cells.Load(i); v != 0 {
				t.Fatalf("round %d: cell %d reads %d before any write", round, i, v)
			}
			cells.Store(i, int64(round+1)<<20|i)
		}
		last = cells.d
		cells.Release()
		if cells.Len() != 0 || cells.dir != nil || cells.d != nil {
			t.Fatalf("round %d: a released table is not empty", round)
		}
		cells.Release() // releasing the empty table does nothing
	}
	if reused == 0 {
		t.Fatal("no round reused the released directory")
	}
	t.Logf("%d of 20 rounds reused the released directory", reused)
}

// TestReleaseTouchesOnlyInstalledPages: the directory logs each page it
// installs once, however often the page is written, and Release nils
// exactly the logged entries: an entry the table did not install, here
// planted by hand, survives it.
func TestReleaseTouchesOnlyInstalledPages(t *testing.T) {
	cells := NewInt64s(16 * pageSize)
	for _, i := range []int64{3*pageSize + 1, 9 * pageSize, 3 * pageSize, 3*pageSize + 2} {
		cells.Store(i, 5)
	}
	cells.Store(12*pageSize, 0) // a zero store installs nothing
	if got := installedPages(&cells); !slices.Equal(got, []int64{3, 9}) {
		t.Fatalf("logged pages %v, want [3 9]", got)
	}
	planted := new([pageSize]atomic.Int64)
	cells.dir[5].Store(planted)
	d := cells.d
	cells.Release()
	defer d.entries[5].Store(nil) // leave the pooled directory all nil
	if d.entries[3].Load() != nil || d.entries[9].Load() != nil {
		t.Fatal("Release left an installed page in the directory")
	}
	if d.entries[5].Load() != planted {
		t.Fatal("Release cleared an entry the table never installed")
	}
	if len(d.pages) != 0 {
		t.Fatalf("Release kept %d logged pages", len(d.pages))
	}
}

// TestConcurrentFirstInstallsLoggedOnce races 64 goroutines' first stores,
// to 64 pages and then all to one page: each installed page is logged
// exactly once, by the writer whose compare-and-swap won, and the
// release that follows leaves the recycled directory all nil.
func TestConcurrentFirstInstallsLoggedOnce(t *testing.T) {
	const n = 64
	for _, c := range []struct {
		name   string
		stride int64
		pages  []int64
	}{
		{"different pages", pageSize, func() []int64 {
			ps := make([]int64, n)
			for g := range ps {
				ps[g] = int64(g) + 2
			}
			return ps
		}()},
		{"one page", 1, []int64{2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				cells := NewInt64s((n + 4) * pageSize)
				for pi := range cells.dir {
					if cells.dir[pi].Load() != nil {
						t.Fatalf("round %d: a new table has page %d", round, pi)
					}
				}
				base := int64(2*pageSize + 3)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < n; g++ {
					wg.Add(1)
					go func(g int64) {
						defer wg.Done()
						<-start
						cells.Store(base+g*c.stride, g+1)
					}(int64(g))
				}
				close(start)
				wg.Wait()
				got := installedPages(&cells)
				slices.Sort(got)
				if !slices.Equal(got, c.pages) {
					t.Fatalf("round %d: logged pages %v, want %v", round, got, c.pages)
				}
				if got := cellPages(&cells); got != len(c.pages) {
					t.Fatalf("round %d: %d pages installed, want %d", round, got, len(c.pages))
				}
				cells.Release()
			}
		})
	}
}
