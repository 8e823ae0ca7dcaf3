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
