package paged

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
)

// fuzzLen is the length of FuzzPagedTable's tables: three full leaves and
// a partial fourth whose last page is partial too, so indexes span leaf
// boundaries and the table's end.
const fuzzLen = 3*leafSize*pageSize + 2*pageSize + 37

// fuzzIndex maps four input bytes to an element index that lands, most of
// the time, within a page of a leaf boundary or of the table's end, where
// the directory arithmetic is easiest to get wrong.
func fuzzIndex(b []byte) int64 {
	v := int64(binary.LittleEndian.Uint32(b))
	anchors := [...]int64{0, leafSize * pageSize, 2 * leafSize * pageSize, 3 * leafSize * pageSize, fuzzLen}
	var i int64
	if sel := v & 7; sel < int64(len(anchors)) {
		i = anchors[sel] + (v>>3)%(2*pageSize) - pageSize
	} else {
		i = (v >> 3) % fuzzLen
	}
	return min(max(i, 0), fuzzLen-1)
}

// FuzzPagedTable runs Table and Bits against a map model: element values,
// bits and the set of allocated pages. Each op is 7 bytes: the op, four
// bytes of index, and two of value or range length. After every op the
// tables must agree with the model on the touched element, and at the end
// on every allocated leaf and page.
func FuzzPagedTable(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 9, 0, 1, 3, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 255, 255})
	f.Add([]byte{2, 4, 0, 0, 0, 0, 0, 3, 4, 0, 0, 0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 6, 5, 0, 0, 0, 0, 4})
	f.Add([]byte{2, 7, 1, 0, 0, 0, 0, 2, 7, 1, 0, 0, 1, 0, 5, 3, 0, 0, 0, 0, 16, 1, 7, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		vals := NewTable[atomic.Int64](fuzzLen)
		bits := NewBits(32 * fuzzLen)
		model := map[int64]int64{}
		modelBits := map[int64]bool{}
		valPages := map[int64]bool{} // pages of vals the model says exist
		bitPages := map[int64]bool{} // pages of bits.words likewise

		// modelAllocated is Allocated over a model page set.
		modelAllocated := func(pages map[int64]bool, lo, hi int64) bool {
			for pi := range pages {
				if pi*pageSize < hi && (pi+1)*pageSize > lo && lo < hi {
					return true
				}
			}
			return false
		}

		for ; len(ops) >= 7; ops = ops[7:] {
			i := fuzzIndex(ops[1:5])
			arg := int64(binary.LittleEndian.Uint16(ops[5:7]))
			switch ops[0] % 7 {
			case 0: // Slot
				if got := vals.Slot(i).Load(); got != model[i] {
					t.Fatalf("Slot(%d) = %d, model %d", i, got, model[i])
				}
				valPages[i>>pageShift] = true
			case 1: // Lookup
				p := vals.Lookup(i)
				if (p != nil) != valPages[i>>pageShift] {
					t.Fatalf("Lookup(%d) non-nil = %v, model page allocated = %v", i, p != nil, valPages[i>>pageShift])
				}
				if p != nil && p.Load() != model[i] {
					t.Fatalf("Lookup(%d) = %d, model %d", i, p.Load(), model[i])
				}
			case 2: // Store, allocating nothing for a zero into an absent page
				v := arg
				if arg%4 == 0 { // zero a quarter of the time
					v = 0
				}
				if p := vals.Lookup(i); p != nil {
					p.Store(v)
				} else if v != 0 {
					vals.Slot(i).Store(v)
					valPages[i>>pageShift] = true
				}
				model[i] = v
			case 3: // Set
				b := 32*i + arg%32
				if got := bits.Set(b); got != !modelBits[b] {
					t.Fatalf("Set(%d) = %v with the bit %v", b, got, modelBits[b])
				}
				modelBits[b] = true
				bitPages[(b/32)>>pageShift] = true
			case 4: // Clear
				b := 32*i + arg%32
				bits.Clear(b)
				delete(modelBits, b)
			case 5: // Allocated over [i, i+arg) on both tables
				lo, hi := i, i+arg
				if got, want := vals.Allocated(lo, hi), modelAllocated(valPages, lo, hi); got != want {
					t.Fatalf("vals.Allocated(%d, %d) = %v, model %v", lo, hi, got, want)
				}
				if got, want := bits.words.Allocated(lo, hi), modelAllocated(bitPages, lo, hi); got != want {
					t.Fatalf("bits.words.Allocated(%d, %d) = %v, model %v", lo, hi, got, want)
				}
			case 6: // Test
				b := 32*i + arg%32
				if got := bits.Test(b); got != modelBits[b] {
					t.Fatalf("Test(%d) = %v, model %v", b, got, modelBits[b])
				}
			}
		}

		checkDirectory(t, "vals", &vals, valPages)
		checkDirectory(t, "bits.words", &bits.words, bitPages)
		for i, v := range model {
			if p := vals.Lookup(i); (p == nil && v != 0) || (p != nil && p.Load() != v) {
				t.Fatalf("element %d lost its value %d", i, v)
			}
		}
		for b := range modelBits {
			if !bits.Test(b) {
				t.Fatalf("bit %d lost", b)
			}
		}
	})
}

// checkDirectory fails unless exactly the model's pages, and the leaves
// above them, are allocated in tab.
func checkDirectory[T any](t *testing.T, name string, tab *Table[T], pages map[int64]bool) {
	t.Helper()
	leaves := map[int64]bool{}
	for pi := range pages {
		leaves[pi>>leafShift] = true
	}
	if l, p := allocated(tab); l != len(leaves) || p != len(pages) {
		t.Fatalf("%s: %d leaves, %d pages allocated, model %d and %d", name, l, p, len(leaves), len(pages))
	}
	for pi := range pages {
		if tab.page(pi) == nil {
			t.Fatalf("%s: model page %d is absent", name, pi)
		}
	}
}

// fuzzCells is the longest length of FuzzInt64s's tables: six full pages
// and a partial seventh.
const fuzzCells = 6*pageSize + 37

// FuzzInt64s runs Int64s against a map model of its elements and
// installed pages that empties on release. Each op is 5 bytes: the op,
// two bytes of index and two of value. A release is followed by a table
// on the released directory (most of the time) whose length the value
// picks, so reuse at a shorter and at the full length are both covered.
// After every op the table must agree with the model on the touched
// element, and at the end on every element, installed page and logged
// page.
func FuzzInt64s(f *testing.F) {
	f.Add([]byte{0, 3, 0, 9, 0, 1, 3, 0, 0, 0, 2, 0, 0, 0, 0, 1, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 2, 1, 0, 0, 37, 12, 7, 0, 2, 0, 0, 255, 3, 1, 37, 12, 0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 0, 4, 0, 0, 1, 0, 3, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cells := NewInt64s(fuzzCells)
		model := map[int64]int64{}
		pages := map[int64]bool{}
		for ; len(ops) >= 5; ops = ops[5:] {
			i := int64(binary.LittleEndian.Uint16(ops[1:3])) % cells.Len()
			arg := int64(binary.LittleEndian.Uint16(ops[3:5]))
			switch ops[0] % 3 {
			case 0: // Store, installing nothing for a zero into an absent page
				v := arg
				if arg%4 == 0 {
					v = 0
				}
				cells.Store(i, v)
				model[i] = v
				if v != 0 {
					pages[i>>pageShift] = true
				}
			case 1: // Load
				if got := cells.Load(i); got != model[i] {
					t.Fatalf("Load(%d) = %d, model %d", i, got, model[i])
				}
			case 2: // Release, then a table of arg's length, ideally on the same directory
				cells.Release()
				if cells.Len() != 0 {
					t.Fatalf("a released table has length %d", cells.Len())
				}
				cells = NewInt64s(fuzzCells - arg%(2*pageSize))
				clear(model)
				clear(pages)
			}
		}
		if got := cellPages(&cells); got != len(pages) {
			t.Fatalf("%d pages installed, model %d", got, len(pages))
		}
		logged := installedPages(&cells)
		if len(logged) != len(pages) {
			t.Fatalf("logged pages %v, model has %d", logged, len(pages))
		}
		for _, pi := range logged {
			if !pages[pi] || cells.dir[pi].Load() == nil {
				t.Fatalf("logged page %d is not installed", pi)
			}
		}
		for i := int64(0); i < cells.Len(); i++ {
			if got := cells.Load(i); got != model[i] {
				t.Fatalf("element %d = %d, model %d", i, got, model[i])
			}
		}
		cells.Release()
	})
}
