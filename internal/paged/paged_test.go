package paged

import (
	"sync"
	"sync/atomic"
	"testing"
)

// pages counts the allocated pages of t.
func pages[T any](t *Table[T]) int {
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
	if n := pages(&cells.Table) + pages(&bits.words) + pages(&words); n != 0 {
		t.Fatalf("%d pages allocated by reads", n)
	}
}

func TestFirstWriteAllocatesOnePage(t *testing.T) {
	cells := NewInt64s(10 * pageSize)
	if got := cells.Len(); got != 10*pageSize {
		t.Fatalf("Len = %d", got)
	}
	cells.Store(3*pageSize+7, 42)
	cells.Store(3*pageSize+8, 43)
	if got := pages(&cells.Table); got != 1 {
		t.Fatalf("two stores to one page allocated %d pages", got)
	}
	if got := cells.Load(3*pageSize + 7); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	if p := cells.Lookup(3*pageSize + 8); p == nil || p.Load() != 43 {
		t.Fatalf("Lookup did not see the stored value")
	}
	if cells.Slot(3*pageSize+8) != cells.Lookup(3*pageSize+8) {
		t.Fatal("Slot and Lookup disagree on an allocated page")
	}
	cells.Store(3*pageSize+7, 0)
	if got := cells.Load(3*pageSize + 7); got != 0 {
		t.Fatalf("zero store to an allocated page left %d", got)
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
		if got := pages(&cells.Table); got != 1 {
			t.Fatalf("round %d: %d cell pages allocated, want 1", round, got)
		}
	}
}
