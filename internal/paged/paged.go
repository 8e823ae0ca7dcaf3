// Package paged provides demand-paged, lock-free arrays: the backing store
// of the interpreter's cell memory and of every per-cell side table the
// SharC substrates keep (shadow reader/writer words and last-access
// metadata, reference-counting dirty bits and logged values, barrier
// marks).
//
// A program touches a small fraction of its address space, as native
// SharC's minor-pagefault measurements show, so a table allocates pages
// only when they are first written. A read of an element whose page was
// never written sees the zero value and allocates nothing. The first write
// to a page allocates it and publishes it with a compare-and-swap on the
// nil directory entry; a writer that loses the race uses the winner's
// page. Pages are never freed or replaced, so a pointer into a page stays
// valid for the table's lifetime.
//
// The side tables (Table, and Bits on top of it) use a two-level radix
// directory: a top-level slice points to leaves of 64 page pointers, and a
// leaf is allocated, like a page, on the first write under it. Creating a
// table then costs one pointer per 64 pages, so a runtime's set-up grows
// with the pages it touches rather than with its address space. The cell
// memory (Int64s) keeps a one-level directory: the VM inlines its Load and
// Store on every access, where the second indirection costs more than the
// one directory it would save. Instead its directory is recycled: a table
// logs the pages it installs, and Release nils exactly those entries,
// drops the pages and pools the directory for the next NewInt64s. Set-up
// after a Release then allocates nothing for the cell memory, and the
// release costs one store per page the finished run touched.
package paged

import (
	"sync"
	"sync/atomic"
)

// pageShift sizes every page: 512 elements, one 4 KiB page of 8-byte
// cells.
const pageShift = 9

// pageSize is the number of elements per page.
const pageSize = 1 << pageShift

const pageMask = pageSize - 1

// leafShift sizes every directory leaf: 64 page pointers, 512 bytes.
const leafShift = 6

// leafSize is the number of pages one leaf covers.
const leafSize = 1 << leafShift

const leafMask = leafSize - 1

// leaf is the second level of a Table's directory.
type leaf[T any] [leafSize]atomic.Pointer[[pageSize]T]

// Table is a fixed-length array of n elements of T whose directory leaves
// and pages are allocated on first write. T is normally a sync/atomic
// type, so elements are accessed concurrently through the pointers Slot
// and Lookup return. The zero Table has length 0. Indexes are not
// range-checked beyond the directory: callers check them against Len.
type Table[T any] struct {
	n   int64
	top []atomic.Pointer[leaf[T]]
}

// NewTable returns a table of n zero elements with no leaves or pages
// allocated.
func NewTable[T any](n int64) Table[T] {
	pages := (n + pageMask) >> pageShift
	return Table[T]{n: n, top: make([]atomic.Pointer[leaf[T]], (pages+leafMask)>>leafShift)}
}

// Len returns the number of elements.
func (t *Table[T]) Len() int64 { return t.n }

// page returns page pi, or nil when it or its leaf was never allocated.
func (t *Table[T]) page(pi int64) *[pageSize]T {
	l := t.top[pi>>leafShift].Load()
	if l == nil {
		return nil
	}
	return l[pi&leafMask].Load()
}

// Lookup returns a pointer to element i, or nil when its page was never
// allocated (every element of such a page is the zero value). It never
// allocates.
func (t *Table[T]) Lookup(i int64) *T {
	p := t.page(i >> pageShift)
	if p == nil {
		return nil
	}
	return &p[i&pageMask]
}

// Slot returns a pointer to element i, allocating its leaf and page on
// first use.
func (t *Table[T]) Slot(i int64) *T {
	if p := t.page(i >> pageShift); p != nil {
		return &p[i&pageMask]
	}
	return &t.alloc(i >> pageShift)[i&pageMask]
}

// Allocated reports whether the page of any element in [lo, hi) has been
// allocated. Indexes past the table's last page have none. It never
// allocates.
func (t *Table[T]) Allocated(lo, hi int64) bool {
	if lo >= hi {
		return false
	}
	last := min((hi-1)>>pageShift, (t.n-1)>>pageShift)
	for pi := lo >> pageShift; pi <= last; {
		l := t.top[pi>>leafShift].Load()
		if l == nil {
			pi = (pi>>leafShift + 1) << leafShift // skip the absent leaf
			continue
		}
		if l[pi&leafMask].Load() != nil {
			return true
		}
		pi++
	}
	return false
}

// alloc installs a fresh page at page index pi, first installing its leaf
// if there is none, and returns the leaf or page a concurrent writer
// installed first where it lost a race.
func (t *Table[T]) alloc(pi int64) *[pageSize]T {
	lp := &t.top[pi>>leafShift]
	l := lp.Load()
	if l == nil {
		fresh := new(leaf[T])
		if lp.CompareAndSwap(nil, fresh) {
			l = fresh
		} else {
			l = lp.Load()
		}
	}
	pp := &l[pi&leafMask]
	fresh := new([pageSize]T)
	if pp.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return pp.Load()
}

// Int64s is a fixed-length array of n atomically accessed int64 values,
// the interpreter's cell memory. Its directory has one level: one page
// pointer per 512 cells. The directory is recycled: Release nils the
// entries the table installed and pools the directory, and the next
// NewInt64s that fits in it takes it instead of allocating one.
type Int64s struct {
	n   int64
	dir []atomic.Pointer[[pageSize]atomic.Int64]
	// d owns dir's backing array and logs the pages installed in it. It
	// sits behind a pointer because the table is copied by value (the VM
	// hoists a copy into each thread's frame loop).
	d *directory
}

// directory is an Int64s directory's backing array with the page indexes
// installed in it, so Release can nil exactly those entries without
// scanning the directory. A pooled directory is nil over its full
// capacity.
type directory struct {
	entries []atomic.Pointer[[pageSize]atomic.Int64]
	mu      sync.Mutex
	pages   []int64
}

// directories holds released directories for reuse.
var directories sync.Pool

// NewInt64s returns a table of n zero int64 values with no pages
// allocated. It reuses a released directory that covers n, and otherwise
// allocates one.
func NewInt64s(n int64) Int64s {
	pages := (n + pageMask) >> pageShift
	d, _ := directories.Get().(*directory)
	if d == nil || int64(cap(d.entries)) < pages {
		d = &directory{entries: make([]atomic.Pointer[[pageSize]atomic.Int64], pages)}
	}
	return Int64s{n: n, dir: d.entries[:pages], d: d}
}

// Len returns the number of elements.
func (t *Int64s) Len() int64 { return t.n }

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

// alloc installs a fresh page at directory index pi, or returns the page a
// concurrent writer installed first. Only the winner logs the index, so
// each installed page is logged once.
func (t *Int64s) alloc(pi int64) *[pageSize]atomic.Int64 {
	fresh := new([pageSize]atomic.Int64)
	if t.dir[pi].CompareAndSwap(nil, fresh) {
		d := t.d
		d.mu.Lock()
		d.pages = append(d.pages, pi)
		d.mu.Unlock()
		return fresh
	}
	return t.dir[pi].Load()
}

// Release drops the table's pages and pools its directory for a later
// NewInt64s. It must follow the last access through t or any copy of it:
// the directory's next user sees every entry nil, as in a fresh one. t is
// left empty, so a later access panics instead of reaching the next
// user's cells. Releasing an empty table does nothing.
func (t *Int64s) Release() {
	d := t.d
	if d == nil {
		return
	}
	d.mu.Lock()
	for _, pi := range d.pages {
		d.entries[pi].Store(nil)
	}
	d.pages = d.pages[:0]
	d.mu.Unlock()
	*t = Int64s{}
	directories.Put(d)
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
