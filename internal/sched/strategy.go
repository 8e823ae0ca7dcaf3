package sched

import "fmt"

// Strategy makes interleaving decisions. Pick receives the ready task keys
// in ascending order (never empty), the key of the yielding task, the
// global decision index, and the point class, and returns the key to run
// next (must be a member of ready; the Controller falls back to ready[0]
// otherwise). Pick must not retain ready past its return: the Controller
// reuses the slice for the next decision. Strategies are used
// single-threaded: only the token holder decides.
type Strategy interface {
	Pick(ready []int, cur int, decision int64, p Point) int
	Name() string
	Seed() int64
}

// splitmix64 advances and hashes the state; a small, well-mixed PRNG.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Random picks uniformly among the ready tasks at every decision, from a
// seeded deterministic generator: the (program, seed) pair reproduces the
// identical schedule.
type Random struct {
	seed int64
	x    uint64
}

// NewRandom returns the seeded uniform strategy.
func NewRandom(seed int64) *Random {
	return &Random{seed: seed, x: uint64(seed)*0x9e3779b97f4a7c15 + 1}
}

func (r *Random) Pick(ready []int, cur int, decision int64, p Point) int {
	return ready[splitmix64(&r.x)%uint64(len(ready))]
}

func (r *Random) Name() string { return "random" }
func (r *Random) Seed() int64  { return r.seed }

// RoundRobin keeps the current task running for a fixed quantum of
// scheduling points, then rotates to the next ready task in cyclic key
// order. Sweeping the quantum over 1..N yields a family of structured
// schedules that complement random exploration.
type RoundRobin struct {
	quantum int64
	n       int64
}

// NewRoundRobin returns a round-robin strategy with the given quantum
// (clamped to >= 1).
func NewRoundRobin(quantum int64) *RoundRobin {
	if quantum < 1 {
		quantum = 1
	}
	return &RoundRobin{quantum: quantum}
}

func (r *RoundRobin) Pick(ready []int, cur int, decision int64, p Point) int {
	r.n++
	if r.n%r.quantum != 0 {
		for _, k := range ready {
			if k == cur {
				return cur
			}
		}
	}
	// The next ready key strictly after cur, cyclically.
	for _, k := range ready {
		if k > cur {
			return k
		}
	}
	return ready[0]
}

func (r *RoundRobin) Name() string { return fmt.Sprintf("rr%d", r.quantum) }
func (r *RoundRobin) Seed() int64  { return r.quantum }

// PCT is the probabilistic concurrency testing strategy (Burckhardt et
// al.): every task gets a random priority at first sight, the
// highest-priority ready task always runs, and at d-1 random change points
// the running task's priority is demoted below every initial priority.
// With enough schedules this guarantees detection probability 1/(n·k^(d-1))
// for bugs of depth d.
type PCT struct {
	seed    int64
	x       uint64
	prios   map[int]uint64
	changes map[int64]bool
	low     uint64
}

// NewPCT returns a PCT strategy with changePoints priority demotions
// sampled over the first horizon decisions.
func NewPCT(seed int64, changePoints int, horizon int64) *PCT {
	p := &PCT{
		seed:    seed,
		x:       uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019,
		prios:   make(map[int]uint64),
		changes: make(map[int64]bool),
		low:     1 << 20,
	}
	if horizon < 1 {
		horizon = 1
	}
	for len(p.changes) < changePoints && int64(len(p.changes)) < horizon {
		p.changes[int64(splitmix64(&p.x)%uint64(horizon))] = true
	}
	return p
}

func (p *PCT) prio(k int) uint64 {
	pr, ok := p.prios[k]
	if !ok {
		// Initial priorities live far above the demotion band; ties are
		// broken by key, so uniqueness is not required.
		pr = 1<<40 + splitmix64(&p.x)%(1<<30)
		p.prios[k] = pr
	}
	return pr
}

func (p *PCT) Pick(ready []int, cur int, decision int64, pt Point) int {
	// An explicit yield() demotes the yielder the way a change point
	// does: a thread spinning on yield() while it waits for lower-priority
	// workers would otherwise be picked again until a change point. A
	// sleepMs point (PointSleep) is an ordinary preemption opportunity.
	if p.changes[decision] || pt == PointYield {
		p.prios[cur] = p.low
		p.low--
	}
	best := ready[0]
	bestPr := p.prio(best)
	for _, k := range ready[1:] {
		if pr := p.prio(k); pr > bestPr {
			best, bestPr = k, pr
		}
	}
	return best
}

func (p *PCT) Name() string { return "pct" }
func (p *PCT) Seed() int64  { return p.seed }

// Replay follows a recorded trace decision-for-decision. If the trace runs
// out or names a task that is not ready — possible when replaying against
// a different program or configuration than was recorded — it falls back
// to the lowest ready key and marks the run diverged.
type Replay struct {
	trace    *Trace
	step     int
	off      int64
	diverged bool
}

// NewReplay returns a strategy replaying tr.
func NewReplay(tr *Trace) *Replay { return &Replay{trace: tr} }

func (r *Replay) Pick(ready []int, cur int, decision int64, p Point) int {
	for r.step < len(r.trace.Steps) && r.off >= r.trace.Steps[r.step].N {
		r.step++
		r.off = 0
	}
	if r.step >= len(r.trace.Steps) {
		r.diverged = true
		return ready[0]
	}
	want := r.trace.Steps[r.step].Key
	r.off++
	for _, k := range ready {
		if k == want {
			return k
		}
	}
	r.diverged = true
	return ready[0]
}

// Diverged reports whether the replay had to deviate from the trace.
func (r *Replay) Diverged() bool { return r.diverged }

func (r *Replay) Name() string { return "replay:" + r.trace.Strategy }
func (r *Replay) Seed() int64  { return r.trace.Seed }
