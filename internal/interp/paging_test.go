package interp_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// buildProg compiles src fully instrumented.
func buildProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	a, err := core.Analyze(parser.Source{Name: "paging.shc", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewAllocatesNoArena: the address space is demand-paged, so setting up
// a run of a trivial program allocates page directories, not the ~21 MB of
// cells and side tables the configured address space spans.
func TestNewAllocatesNoArena(t *testing.T) {
	prog := buildProg(t, `int main(void) { return 0; }`)
	n := bytesAllocated(func() { interp.New(prog, interp.DefaultConfig()) })
	t.Logf("interp.New: %d KiB", n>>10)
	if n >= 256<<10 {
		t.Fatalf("interp.New of a trivial program allocated %d KiB, want < 256 KiB", n>>10)
	}
}

// TestRunAllocatesPerTouchedPage: a run's allocation grows with the pages
// the program writes, about one 4 KiB cell page plus its side-table share
// per page, and not with the size of the block it mallocs.
func TestRunAllocatesPerTouchedPage(t *testing.T) {
	run := func(touched int) uint64 {
		prog := buildProg(t, fmt.Sprintf(`
int main(void) {
	int *a = malloc(1024 * 512 * sizeof(int));
	for (int i = 0; i < %d; i++) a[i * 512] = 1;
	free(a);
	return 0;
}
`, touched))
		return bytesAllocated(func() {
			if _, err := interp.New(prog, interp.DefaultConfig()).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const k = 256
	base, grown := run(0), run(k)
	perPage := float64(grown-base) / k
	t.Logf("untouched 1024-page block: %d KiB; %d pages touched: %d KiB (%.0f B/page)", base>>10, k, grown>>10, perPage)
	if base >= 1<<20 {
		t.Errorf("a run touching no heap page allocated %d KiB", base>>10)
	}
	if perPage < 3584 || perPage > 16384 {
		t.Errorf("allocation grows by %.0f B per touched page, want 3.5-16 KiB", perPage)
	}
}
