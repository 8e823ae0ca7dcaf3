// Package paged provides demand-paged, lock-free arrays: the backing store
// of the interpreter's cell memory and of every per-cell side table the
// SharC substrates keep (shadow reader/writer words and last-access
// metadata, reference-counting dirty bits and logged values, barrier
// marks).
//
// A program touches a small fraction of its address space, as native
// SharC's minor-pagefault measurements show, so a table allocates only a
// directory of page pointers up front. A read of an element whose page was
// never written sees the zero value and allocates nothing. The first write
// to a page allocates it and publishes it with a compare-and-swap on the
// nil directory entry; a writer that loses the race uses the winner's
// page. Pages are never freed or replaced, so a pointer into a page stays
// valid for the table's lifetime.
package paged

import "sync/atomic"

// pageShift sizes every page: 512 elements, one 4 KiB page of 8-byte
// cells.
const pageShift = 9

// pageSize is the number of elements per page.
const pageSize = 1 << pageShift

const pageMask = pageSize - 1

// Table is a fixed-length array of n elements of T whose pages are
// allocated on first write. T is normally a sync/atomic type, so elements
// are accessed concurrently through the pointers Slot and Lookup return.
// The zero Table has length 0. Indexes are not range-checked beyond the
// directory: callers check them against Len.
type Table[T any] struct {
	n   int64
	dir []atomic.Pointer[[pageSize]T]
}

// NewTable returns a table of n zero elements with no pages allocated.
func NewTable[T any](n int64) Table[T] {
	return Table[T]{n: n, dir: make([]atomic.Pointer[[pageSize]T], (n+pageMask)>>pageShift)}
}

// Len returns the number of elements.
func (t *Table[T]) Len() int64 { return t.n }

// Lookup returns a pointer to element i, or nil when its page was never
// allocated (every element of such a page is the zero value). It never
// allocates.
func (t *Table[T]) Lookup(i int64) *T {
	p := t.dir[i>>pageShift].Load()
	if p == nil {
		return nil
	}
	return &p[i&pageMask]
}

// Slot returns a pointer to element i, allocating its page on first use.
func (t *Table[T]) Slot(i int64) *T {
	if p := t.dir[i>>pageShift].Load(); p != nil {
		return &p[i&pageMask]
	}
	return &t.alloc(i >> pageShift)[i&pageMask]
}

// alloc installs a fresh page at directory index pi, or returns the page a
// concurrent writer installed first.
func (t *Table[T]) alloc(pi int64) *[pageSize]T {
	fresh := new([pageSize]T)
	if t.dir[pi].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return t.dir[pi].Load()
}

// Int64s is a table of atomically accessed int64 values.
type Int64s struct{ Table[atomic.Int64] }

// NewInt64s returns a table of n zero int64 values.
func NewInt64s(n int64) Int64s { return Int64s{NewTable[atomic.Int64](n)} }

// Load atomically reads element i; an untouched page reads as 0.
func (t *Int64s) Load(i int64) int64 {
	p := t.dir[i>>pageShift].Load()
	if p == nil {
		return 0
	}
	return p[i&pageMask].Load()
}

// Store atomically writes v to element i. Storing 0 into an untouched page
// allocates nothing: the element already reads as 0, so the store takes
// effect at the instant the page was observed absent.
func (t *Int64s) Store(i, v int64) {
	p := t.dir[i>>pageShift].Load()
	if p == nil {
		if v == 0 {
			return
		}
		p = t.alloc(i >> pageShift)
	}
	p[i&pageMask].Store(v)
}

// Bits is a bitmap whose bits are tested, set and cleared atomically.
type Bits struct{ words Table[atomic.Uint32] }

// NewBits returns a bitmap of n clear bits.
func NewBits(n int64) Bits { return Bits{NewTable[atomic.Uint32]((n + 31) / 32)} }

// Test reports whether bit i is set; an untouched page reads as clear.
func (b *Bits) Test(i int64) bool {
	w := b.words.Lookup(i / 32)
	return w != nil && w.Load()&(uint32(1)<<uint(i%32)) != 0
}

// Set sets bit i and reports whether this call changed it.
func (b *Bits) Set(i int64) bool {
	w := b.words.Slot(i / 32)
	bit := uint32(1) << uint(i%32)
	for {
		v := w.Load()
		if v&bit != 0 {
			return false
		}
		if w.CompareAndSwap(v, v|bit) {
			return true
		}
	}
}

// Clear clears bit i; clearing a bit on an untouched page allocates
// nothing.
func (b *Bits) Clear(i int64) {
	w := b.words.Lookup(i / 32)
	if w == nil {
		return
	}
	bit := uint32(1) << uint(i%32)
	for {
		v := w.Load()
		if v&bit == 0 || w.CompareAndSwap(v, v&^bit) {
			return
		}
	}
}
