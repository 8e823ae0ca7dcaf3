package serve

import (
	"fmt"
	"sync"
	"testing"
)

const tiny = `int main(void) { return 0; }`

func tinyN(i int) string {
	return fmt.Sprintf("int main(void) { return %d; }", i)
}

func TestCacheSingleflight(t *testing.T) {
	c := newCache(8, 8)
	const n = 16
	var wg sync.WaitGroup
	entries := make([]*entry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.getOrCompile(progKey{Name: "t.shc"}, tiny)
			if err != nil {
				t.Errorf("compile: %v", err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent identical misses produced distinct entries")
		}
	}
	if m := c.misses.Load(); m != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight collapsed the rest)", m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, 8)
	h := make([]string, 3)
	for i := 0; i < 3; i++ {
		e, _, err := c.getOrCompile(progKey{Name: "t.shc"}, tinyN(i))
		if err != nil {
			t.Fatal(err)
		}
		h[i] = e.handle
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if c.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions.Load())
	}
	if c.lookup(h[0]) != nil {
		t.Fatal("oldest entry survived eviction")
	}
	if c.lookup(h[1]) == nil || c.lookup(h[2]) == nil {
		t.Fatal("recent entries evicted")
	}

	// Touching an entry protects it: re-request prog 1, add prog 3, and
	// prog 2 (now least recent) goes instead.
	if _, hit, _ := c.getOrCompile(progKey{Name: "t.shc"}, tinyN(1)); !hit {
		t.Fatal("expected hit on resident entry")
	}
	if _, _, err := c.getOrCompile(progKey{Name: "t.shc"}, tinyN(3)); err != nil {
		t.Fatal(err)
	}
	if c.lookup(h[1]) == nil {
		t.Fatal("recently used entry was evicted")
	}
	if c.lookup(h[2]) != nil {
		t.Fatal("least recently used entry survived")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(0, 8)
	for i := 0; i < 3; i++ {
		e, hit, err := c.getOrCompile(progKey{Name: "t.shc"}, tiny)
		if err != nil || hit {
			t.Fatalf("disabled cache: hit=%v err=%v", hit, err)
		}
		if e.prog == nil {
			t.Fatal("no program")
		}
	}
	if c.len() != 0 {
		t.Fatal("disabled cache retained entries")
	}
	if c.misses.Load() != 3 {
		t.Fatalf("misses = %d, want 3", c.misses.Load())
	}
}

func TestCacheFailedCompileNotPoisoned(t *testing.T) {
	c := newCache(8, 8)
	bad := "int main(void{"
	if _, _, err := c.getOrCompile(progKey{Name: "t.shc"}, bad); err == nil {
		t.Fatal("expected compile error")
	}
	if c.len() != 0 {
		t.Fatal("failed compile left a cache entry")
	}
	// And the same slot works for a corrected program.
	if _, _, err := c.getOrCompile(progKey{Name: "t.shc"}, tiny); err != nil {
		t.Fatal(err)
	}
}

func TestKeyCanonical(t *testing.T) {
	k := progKey{Name: "a.shc"}
	if keyOf(k, tiny) != keyOf(k, tiny) {
		t.Fatal("key not stable")
	}
	variants := map[string]bool{
		keyOf(progKey{Name: "a.shc"}, tiny):                  true,
		keyOf(progKey{Name: "b.shc"}, tiny):                  true,
		keyOf(progKey{Name: "a.shc", Discharge: true}, tiny): true,
		keyOf(progKey{Name: "a.shc"}, tiny+" "):              true,
	}
	if len(variants) != 4 {
		t.Fatalf("key collisions across variants: %d distinct", len(variants))
	}
}
