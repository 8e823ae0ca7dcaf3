package sched

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The trace golden pins the controller's decisions: scripted lock,
// condition, join, spawn and deadlock workloads run under every strategy
// family, and each run's recorded trace, decision count and observer
// stream are compared with testdata/golden/traces.golden. A diff means a
// strategy or the controller now decides differently. Regenerate only
// for an intended change:
//
//	UPDATE_GOLDEN=1 go test -run TestTraceGolden ./internal/sched

// world runs scripted tasks that may spawn more tasks mid-run, the way
// the interpreter's spawn does: Register by the token holder, then a
// goroutine that Begins, runs its script and Exits.
type world struct {
	c  *Controller
	wg sync.WaitGroup
}

func (w *world) spawn(f func(w *world, key int)) int {
	key := w.c.Register()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.c.Begin(key)
		f(w, key)
		w.c.Exit(key)
	}()
	return key
}

// obsLog records the observer stream; only the token holder calls it.
type obsLog struct{ b strings.Builder }

func (o *obsLog) Decision(step int64, chosen int, p Point) {
	fmt.Fprintf(&o.b, "d%d:%d:%s ", step, chosen, p)
}

func (o *obsLog) Block(key int, p Point) { fmt.Fprintf(&o.b, "b%d:%s ", key, p) }

// goldenWorkloads are the scripted programs, each a main task. Shared
// state is touched only by the token holder, so the scripts are as
// deterministic as the schedule.
var goldenWorkloads = []struct {
	name string
	main func(w *world, key int)
}{
	{"locks", func(w *world, key int) {
		const a, b = 100, 200
		worker := func(w *world, key int) {
			for i := 0; i < 6; i++ {
				first, second := int64(a), int64(b)
				if (key+i)%3 == 0 {
					first = b
				}
				if !w.c.Lock(key, first) {
					return
				}
				w.c.YieldPoint(key, PointCheck)
				if !w.c.Unlock(key, first) {
					return
				}
				if !w.c.Lock(key, second) {
					return
				}
				w.c.YieldPoint(key, PointCheck)
				w.c.Unlock(key, second)
			}
		}
		var hs []int
		for i := 0; i < 3; i++ {
			hs = append(hs, w.spawn(worker))
			w.c.YieldPoint(key, PointSpawn)
		}
		for _, h := range hs {
			if !w.c.Join(key, h) {
				return
			}
		}
	}},
	{"cond", func(w *world, key int) {
		const m, notEmpty, notFull = 100, 200, 300
		queue, produced := 0, 0
		consumer := func(w *world, key int) {
			for got := 0; got < 4; got++ {
				if !w.c.Lock(key, m) {
					return
				}
				for queue == 0 {
					if !w.c.Wait(key, notEmpty, m) {
						return
					}
				}
				queue--
				w.c.Unlock(key, m)
				if !w.c.Signal(key, notFull, false) {
					return
				}
			}
		}
		producer := func(w *world, key int) {
			for produced < 8 {
				if !w.c.Lock(key, m) {
					return
				}
				for queue == 2 {
					if !w.c.Wait(key, notFull, m) {
						return
					}
				}
				queue++
				produced++
				w.c.Unlock(key, m)
				if !w.c.Signal(key, notEmpty, produced%3 == 0) {
					return
				}
			}
		}
		c1, c2, p := w.spawn(consumer), w.spawn(consumer), w.spawn(producer)
		w.c.YieldPoint(key, PointSpawn)
		for _, h := range []int{p, c1, c2} {
			if !w.c.Join(key, h) {
				return
			}
		}
	}},
	{"join", func(w *world, key int) {
		// A chain: each link spawns the next and joins it, with work on
		// both sides of the spawn.
		var link func(depth int) func(w *world, key int)
		link = func(depth int) func(w *world, key int) {
			return func(w *world, key int) {
				for i := 0; i < depth; i++ {
					w.c.YieldPoint(key, PointCheck)
				}
				if depth == 0 {
					return
				}
				h := w.spawn(link(depth - 1))
				w.c.YieldPoint(key, PointSpawn)
				w.c.YieldPoint(key, PointCheck)
				w.c.Join(key, h)
			}
		}
		h := w.spawn(link(4))
		w.c.YieldPoint(key, PointSpawn)
		w.c.Join(key, h)
	}},
	{"spawn", func(w *world, key int) {
		// Spawns in a loop, awaiting an exit whenever three children are
		// live (the interpreter's thread-id starvation path).
		live := 0
		var hs []int
		child := func(w *world, key int) {
			for i := 0; i < 3; i++ {
				w.c.YieldPoint(key, PointCheck)
			}
			w.c.YieldPoint(key, PointYield) // a PCT demotion
			live--
		}
		for i := 0; i < 6; i++ {
			for live == 3 {
				if !w.c.AwaitExit(key) {
					return
				}
			}
			live++
			hs = append(hs, w.spawn(child))
			w.c.YieldPoint(key, PointSpawn)
		}
		for _, h := range hs {
			w.c.Join(key, h)
		}
	}},
	{"deadlock", func(w *world, key int) {
		const a, b = 100, 200
		abba := func(first, second int64) func(w *world, key int) {
			return func(w *world, key int) {
				for i := 0; i < 3; i++ {
					if !w.c.Lock(key, first) {
						return
					}
					w.c.YieldPoint(key, PointCheck)
					if !w.c.Lock(key, second) {
						return
					}
					w.c.Unlock(key, second)
					w.c.Unlock(key, first)
				}
			}
		}
		h1 := w.spawn(abba(a, b))
		h2 := w.spawn(abba(b, a))
		w.c.YieldPoint(key, PointSpawn)
		w.c.Join(key, h1)
		w.c.Join(key, h2)
	}},
}

func goldenStrategies() []func() Strategy {
	return []func() Strategy{
		func() Strategy { return NewRandom(1) },
		func() Strategy { return NewRandom(2) },
		func() Strategy { return NewPCT(1, 3, 200) },
		func() Strategy { return NewPCT(2, 3, 200) },
		func() Strategy { return NewRoundRobin(1) },
		func() Strategy { return NewRoundRobin(2) },
		func() Strategy { return NewRoundRobin(3) },
		func() Strategy { return NewRoundRobin(4) },
	}
}

type goldenRun struct {
	tr       *Trace
	obs      string
	deadlock bool
}

func runGolden(s Strategy, main func(w *world, key int)) goldenRun {
	w := &world{c: New(s, Options{Record: true})}
	o := &obsLog{}
	w.c.SetObserver(o)
	w.spawn(main)
	w.wg.Wait()
	return goldenRun{tr: w.c.Trace(), obs: o.b.String(), deadlock: w.c.Deadlocked()}
}

func (g goldenRun) line(workload string) string {
	data, err := g.tr.Marshal()
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s %s/%d deadlock=%t decisions=%d steps=%d trace=%x obs=%x",
		workload, g.tr.Strategy, g.tr.Seed, g.deadlock, g.tr.Decisions, len(g.tr.Steps),
		sha256.Sum256(data), sha256.Sum256([]byte(g.obs)))
}

func TestTraceGolden(t *testing.T) {
	var lines []string
	for _, wl := range goldenWorkloads {
		for _, mk := range goldenStrategies() {
			g := runGolden(mk(), wl.main)
			lines = append(lines, g.line(wl.name))
			// Replaying the trace must reproduce it decision for decision,
			// observer stream included.
			r := NewReplay(g.tr)
			rg := runGolden(r, wl.main)
			if r.Diverged() {
				t.Errorf("%s %s: replay diverged", wl.name, g.tr.Strategy)
			}
			if !reflect.DeepEqual(rg.tr.Steps, g.tr.Steps) || rg.obs != g.obs || rg.deadlock != g.deadlock {
				t.Errorf("%s %s: replay differs from the recorded run", wl.name, g.tr.Strategy)
			}
			lines = append(lines, rg.line(wl.name))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden", "traces.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("trace golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("trace golden has %d lines, want %d", len(gl), len(wl))
	}
}
