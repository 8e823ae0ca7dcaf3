// Package interp executes instrumented ShC programs. Every ShC thread is a
// real goroutine, every ShC mutex a real sync.Mutex, and memory is one
// address space of int64 cells, so the dynamic checks interleave with
// genuine concurrency exactly as SharC's instrumented native code does.
//
// The address space (globals, then one stack region per thread id, then
// the heap) is demand-paged (internal/paged): a run allocates only the
// 4 KiB pages it writes, as native SharC pays only for the pages a program
// touches, and the per-cell side tables of the substrates are paged the
// same way.
//
// The runtime wires together the three SharC substrates: shadow memory for
// the dynamic sharing mode (internal/shadow), per-thread lock logs for the
// locked mode (internal/locklog), and concurrent reference counting for
// sharing casts (internal/refcount). Violations are collected as reports in
// the paper's format rather than aborting, mirroring SharC's error logs.
package interp

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/locklog"
	"repro/internal/paged"
	"repro/internal/refcount"
	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// RCScheme selects the reference-counting implementation.
type RCScheme int

const (
	RCOff RCScheme = iota
	RCLevanoniPetrank
	RCNaive
)

// Observer receives access and synchronization events, letting baseline
// race detectors (Eraser-style lockset, vector-clock happens-before) run
// over the same executions.
//
// Access reports memory accesses only. A frame slot the compiler keeps in a
// VM register (internal/compile/promote.go) is not memory: its reads are
// not reported, and neither are the writes of a slot that lives only in
// its register. A reference-counted pointer slot is written through to its
// frame cell, so those writes are reported. Promotion thus only drops
// events on a thread's own stack cells; TestObserverWarningsPinned checks
// that the detectors' warnings on the corpus do not change.
type Observer interface {
	Access(tid int, addr int64, write bool, locks *locklog.Log, site int)
	Acquire(tid int, lock int64)
	Release(tid int, lock int64)
	Spawn(parent, child int)
	Join(parent, child int)
	CondSignal(tid int, cv int64)
	CondWake(tid int, cv int64)
	ThreadEnd(tid int)
	// Malloc and Free report heap block lifetimes: real detectors reset
	// per-location state on allocation (Eraser returns locations to
	// Virgin) and order free-before-malloc through the allocator's
	// internal lock (a happens-before edge).
	Malloc(tid int, base, size int64)
	Free(tid int, base, size int64)
}

// Config tunes the runtime.
type Config struct {
	// StackCells and HeapCells size the address space: the per-thread
	// stack region and the heap, in cells. They are limits, not
	// allocations — pages are allocated as the program writes them — so
	// stack overflow and heap exhaustion happen at these bounds.
	StackCells int
	HeapCells  int
	Stdout     io.Writer
	RC         RCScheme
	MaxReports int
	Observer   Observer
	// SeedRand seeds the deterministic per-thread generators.
	SeedRand int64
	// Sched, when non-nil, replaces free-running Go scheduling with the
	// cooperative deterministic scheduler: threads hand off an execution
	// token at every sync/check point and the controller's strategy picks
	// who runs next. Report content for any fixed schedule is unchanged;
	// only the interleaving is controlled.
	Sched *sched.Controller

	// Metrics enables the per-site telemetry collector (read via
	// Runtime.TelemetrySnapshot). Off by default; when off the per-check
	// cost is a single nil comparison.
	Metrics bool
	// TraceCapacity, when positive, enables the structured event tracer
	// with a ring buffer of that many events (read via Runtime.Tracer).
	TraceCapacity int
	// Telemetry / Tracer / Counters, when non-nil, are shared instances
	// used instead of fresh ones — Explore passes the same collector and
	// spine to every schedule's runtime so metrics aggregate across the
	// whole exploration.
	Telemetry *telemetry.Collector
	Tracer    *telemetry.Tracer
	Counters  *telemetry.Counters

	// Interrupt, when non-nil, makes the run stoppable from outside: once
	// the flag is set (Runtime.Interrupt sets it), every thread unwinds at
	// its next scheduling point without reporting, and Run returns
	// ErrInterrupted. Nil (the default) keeps the per-access cost at a
	// single nil comparison. See Runtime.Interrupt for the blocking-thread
	// guarantees.
	Interrupt *atomic.Bool
}

// DefaultConfig returns a configuration adequate for the test programs and
// benchmarks.
func DefaultConfig() Config {
	return Config{
		StackCells: 1 << 14,
		HeapCells:  1 << 21,
		RC:         RCLevanoniPetrank,
		MaxReports: 64,
		SeedRand:   1,
	}
}

// ReportKind classifies runtime violation reports.
type ReportKind int

const (
	ReportRace ReportKind = iota
	ReportLock
	ReportOneRef
	ReportThreadFail
)

func (k ReportKind) String() string {
	switch k {
	case ReportRace:
		return "race"
	case ReportLock:
		return "lock"
	case ReportOneRef:
		return "oneref"
	case ReportThreadFail:
		return "fail"
	}
	return "?"
}

// Report is one runtime violation.
type Report struct {
	Kind ReportKind
	Msg  string
	Pos  token.Pos
	// conflict retains the shadow conflict behind a ReportRace so emission
	// can order reports with shadow.CompareConflicts.
	conflict *shadow.Conflict
}

func (r Report) String() string { return r.Msg }

// Stats aggregates execution counters for the evaluation harness.
type Stats struct {
	TotalAccesses   int64 // program loads+stores of cells
	DynamicAccesses int64 // accesses guarded by reader/writer-set checks
	LockChecks      int64
	Barriers        int64
	Collections     int64
	ShadowPages     int // distinct logical shadow pages touched
	HeapPages       int // distinct heap pages touched
	MaxThreads      int // peak concurrently live threads
}

// Runtime executes one program.
type Runtime struct {
	prog *ir.Program
	cfg  Config

	mem       paged.Int64s // the address space, demand-paged
	stackBase int64
	heapBase  int64

	shadow    *shadow.Shadow
	rc        refcount.Manager
	barriered paged.Bits // cells ever stored through a barrier

	heapMu    sync.Mutex
	heapNext  int64
	freeLists map[int64][]int64 // size -> bases
	// limbo holds freed blocks whose reference counts have not yet drained
	// to zero: reuse is deferred (Heapsafe-style deallocation safety) so a
	// stale not-yet-nulled pointer in the freeing thread cannot alias a
	// recycled block and break the oneref check.
	limbo  []int64
	blocks map[int64]int64 // live blocks: base -> size
	// extents records every block ever carved from the heap (base -> size),
	// surviving free: reference counting is keyed by block base, and
	// deferred decrements of stale pointers must still resolve after the
	// block is freed and recycled (size-class reuse keeps extents stable).
	extents   map[int64]int64
	extentIdx []int64 // sorted bases; bump allocation appends in order
	heapPages map[int64]struct{}

	mutexes sync.Map // addr -> *sync.Mutex
	conds   sync.Map // addr -> *condState

	outMu sync.Mutex
	out   io.Writer

	// Thread ids: freshTids counts the ids handed out that no thread has
	// held before (1..freshTids), and tidPool holds the ids finished
	// threads returned, in return order. An acquire takes a fresh id while
	// any is left, so ids go out in the order of a FIFO pre-filled with
	// 1..MaxThreads without New filling one.
	freshTids  atomic.Int32
	tidPool    chan int
	handles    sync.Map // handle -> *threadHandle
	nextHandle atomic.Int64
	wg         sync.WaitGroup

	reportMu  sync.Mutex
	reports   []Report
	reportSet map[string]bool

	// counters is the always-on atomic spine (never nil); tel and tracer
	// are the opt-in per-site collector and event stream (usually nil).
	counters    *telemetry.Counters
	tel         *telemetry.Collector
	tracer      *telemetry.Tracer
	skeyTids    sync.Map // scheduler key -> tid, for trace decision lanes
	liveThreads atomic.Int32

	// intr is Config.Interrupt (nil when the run is not interruptible);
	// interrupted records that at least one thread actually unwound on it.
	intr        *atomic.Bool
	interrupted atomic.Bool

	ctl *sched.Controller // nil: free-running Go scheduler
}

type condState struct {
	mu   sync.Mutex
	cond *sync.Cond
	lock int64 // the ShC mutex this cond is paired with (0 until first wait)
}

type threadHandle struct {
	tid  int
	skey int // scheduler task key (0 when free-running)
	done chan struct{}
}

// New prepares a runtime for prog.
func New(prog *ir.Program, cfg Config) *Runtime {
	if cfg.StackCells == 0 {
		cfg.StackCells = DefaultConfig().StackCells
	}
	if cfg.HeapCells == 0 {
		cfg.HeapCells = DefaultConfig().HeapCells
	}
	if cfg.MaxReports == 0 {
		cfg.MaxReports = 64
	}
	stackBase := prog.StaticSize
	heapBase := stackBase + int64(shadow.MaxThreads)*int64(cfg.StackCells)
	memCells := heapBase + int64(cfg.HeapCells)

	rt := &Runtime{
		prog:      prog,
		cfg:       cfg,
		mem:       paged.NewInt64s(memCells),
		stackBase: stackBase,
		heapBase:  heapBase,
		heapNext:  alignGranule(heapBase),
		freeLists: make(map[int64][]int64),
		blocks:    make(map[int64]int64),
		extents:   make(map[int64]int64),
		heapPages: make(map[int64]struct{}),
		tidPool:   make(chan int, shadow.MaxThreads),
		reportSet: make(map[string]bool),
		out:       cfg.Stdout,
		ctl:       cfg.Sched,
		intr:      cfg.Interrupt,
	}
	if rt.out == nil {
		rt.out = io.Discard
	}
	// Telemetry: the counter spine is always live; the collector and
	// tracer only on request (shared instances take precedence so Explore
	// can aggregate across schedules).
	rt.counters = cfg.Counters
	if rt.counters == nil {
		rt.counters = new(telemetry.Counters)
	}
	rt.tel = cfg.Telemetry
	if rt.tel == nil && cfg.Metrics {
		rt.tel = telemetry.NewCollector(siteInfos(prog))
	}
	rt.tracer = cfg.Tracer
	if rt.tracer == nil && cfg.TraceCapacity > 0 {
		rt.tracer = telemetry.NewTracer(cfg.TraceCapacity, siteInfos(prog))
	}
	rt.shadow = shadow.New(int(memCells), prog.Sites)
	if rt.tracer != nil && rt.ctl != nil {
		rt.ctl.SetObserver(schedObs{rt: rt})
	}
	switch cfg.RC {
	case RCLevanoniPetrank:
		lp := refcount.NewLP(int(memCells), rt.resolveObj)
		lp.SetMemory(rt)
		rt.rc = lp
	case RCNaive:
		rt.rc = refcount.NewNaive(rt.resolveObj)
	}
	if rt.rc != nil {
		rt.barriered = paged.NewBits(memCells)
	}
	// Globals and strings.
	for _, init := range prog.Inits {
		rt.mem.Store(init.Addr, rt.constValue(init.Val))
	}
	for i, s := range prog.Strings {
		base := prog.StringAddr[i]
		for j := 0; j < len(s); j++ {
			rt.mem.Store(base+int64(j), int64(s[j]))
		}
	}
	return rt
}

func (rt *Runtime) constValue(e ir.Expr) int64 {
	switch e := e.(type) {
	case *ir.Const:
		return e.V
	case *ir.StrAddr:
		return rt.prog.StringAddr[e.Idx]
	}
	return 0
}

func alignGranule(a int64) int64 {
	g := int64(shadow.GranuleCells)
	return (a + g - 1) / g * g
}

// LoadCell implements refcount.Memory.
func (rt *Runtime) LoadCell(addr int64) int64 {
	if addr < 0 || addr >= rt.mem.Len() {
		return 0
	}
	return rt.mem.Load(addr)
}

// resolveObj maps a pointer value to the base of the heap block carved at
// that address (0 if not heap). Extents persist across free so deferred
// reference-count updates for stale pointers still resolve.
func (rt *Runtime) resolveObj(ptr int64) int64 {
	if ptr < rt.heapBase || ptr >= rt.mem.Len() {
		return 0
	}
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	i := sort.Search(len(rt.extentIdx), func(i int) bool { return rt.extentIdx[i] > ptr })
	if i == 0 {
		return 0
	}
	base := rt.extentIdx[i-1]
	if size, ok := rt.extents[base]; ok && ptr < base+size {
		return base
	}
	return 0
}

// malloc allocates a zeroed block of n cells aligned to the shadow granule
// (SharC aligns malloc to 16 bytes to limit false sharing, §4.5).
func (rt *Runtime) malloc(n int64) (int64, bool) {
	if n < 1 {
		n = 1
	}
	n = alignGranule(n)
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	if len(rt.freeLists[n]) == 0 && len(rt.limbo) > 0 {
		rt.sweepLimboLocked()
	}
	if lst := rt.freeLists[n]; len(lst) > 0 {
		base := lst[len(lst)-1]
		rt.freeLists[n] = lst[:len(lst)-1]
		rt.blocks[base] = n
		rt.touchHeapPagesLocked(base, n)
		for i := int64(0); i < n; i++ {
			rt.mem.Store(base+i, 0)
		}
		return base, true
	}
	if rt.heapNext+n > rt.mem.Len() {
		return 0, false
	}
	base := rt.heapNext
	rt.heapNext += n
	rt.blocks[base] = n
	rt.extents[base] = n
	rt.extentIdx = append(rt.extentIdx, base) // heapNext grows: stays sorted
	rt.touchHeapPagesLocked(base, n)
	return base, true
}

// touchHeapPagesLocked records heap pages for the pagefault metric (512
// cells = 4096 bytes per page).
func (rt *Runtime) touchHeapPagesLocked(base, n int64) {
	for p := base / 512; p <= (base+n-1)/512; p++ {
		rt.heapPages[p] = struct{}{}
	}
}

// blockSize returns the size of the block at base, or 0.
func (rt *Runtime) blockSize(base int64) int64 {
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	return rt.blocks[base]
}

// beginFree unpublishes the block at base, returning its size (0 if it is
// not a live block). The block is neither live nor reusable until
// finishFree, so the freeing thread can clear its cells without racing a
// concurrent malloc.
func (rt *Runtime) beginFree(base int64) int64 {
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	size, ok := rt.blocks[base]
	if !ok {
		return 0
	}
	delete(rt.blocks, base)
	return size
}

// finishFree makes a block freed by beginFree reusable. With reference
// counting active the block goes to limbo until its count drains to zero;
// without it the block is immediately reusable.
func (rt *Runtime) finishFree(base, size int64) {
	rt.heapMu.Lock()
	defer rt.heapMu.Unlock()
	if rt.rc != nil {
		rt.limbo = append(rt.limbo, base)
	} else {
		rt.freeLists[size] = append(rt.freeLists[size], base)
	}
}

// sweepLimboLocked moves freed blocks whose reference counts (as of the
// last collection) have drained to zero onto the free lists.
func (rt *Runtime) sweepLimboLocked() {
	kept := rt.limbo[:0]
	for _, base := range rt.limbo {
		if rt.rc.CurrentCount(base) <= 0 {
			size := rt.extents[base]
			rt.freeLists[size] = append(rt.freeLists[size], base)
		} else {
			kept = append(kept, base)
		}
	}
	rt.limbo = kept
}

// report records a violation, deduplicating by message.
func (rt *Runtime) report(kind ReportKind, pos token.Pos, msg string) {
	rt.reportConflict(kind, pos, msg, nil)
}

// reportConflict is report plus the originating shadow conflict, kept so
// emission can order race reports deterministically.
func (rt *Runtime) reportConflict(kind ReportKind, pos token.Pos, msg string, c *shadow.Conflict) {
	rt.reportMu.Lock()
	defer rt.reportMu.Unlock()
	if len(rt.reports) >= rt.cfg.MaxReports {
		return
	}
	key := msg
	if rt.reportSet[key] {
		return
	}
	rt.reportSet[key] = true
	rt.reports = append(rt.reports, Report{Kind: kind, Msg: msg, Pos: pos, conflict: c})
}

// Reports returns the violations collected during the run, in a
// deterministic emission order: by source site, then (for conflicts)
// shadow.CompareConflicts — accessing thread, prior thread, address — then
// by message. Threads hit violations in whatever order they are scheduled;
// sorting here makes output comparable across runs and scheduling modes.
func (rt *Runtime) Reports() []Report {
	rt.reportMu.Lock()
	out := make([]Report, len(rt.reports))
	copy(out, rt.reports)
	rt.reportMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.conflict != nil && b.conflict != nil {
			if c := shadow.CompareConflicts(a.conflict, b.conflict); c != 0 {
				return c < 0
			}
		}
		return a.Msg < b.Msg
	})
	return out
}

// ReportsOfKind filters reports by kind.
func (rt *Runtime) ReportsOfKind(k ReportKind) []Report {
	var out []Report
	for _, r := range rt.Reports() {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// Stats returns aggregated counters; valid after Run. It is a view over
// the telemetry counter spine plus the substrates' own gauges, kept for
// the evaluation harness's existing call sites.
func (rt *Runtime) Stats() Stats {
	c := rt.counters
	s := Stats{
		TotalAccesses:   c.TotalAccesses.Load(),
		DynamicAccesses: c.DynamicChecks.Load(),
		LockChecks:      c.LockChecks.Load(),
		Barriers:        c.Barriers.Load(),
		MaxThreads:      int(c.MaxThreads.Load()),
	}
	s.ShadowPages = rt.shadow.PagesTouched()
	rt.heapMu.Lock()
	s.HeapPages = len(rt.heapPages)
	rt.heapMu.Unlock()
	if rt.rc != nil {
		s.Collections = rt.rc.Collections()
	}
	return s
}

// addThreadStats flushes a finished thread's private tallies into the
// atomic spine. Per-thread tallies plus one atomic add per counter at
// thread exit keep the hot path free of shared-cacheline traffic.
func (rt *Runtime) addThreadStats(t *thread) {
	c := rt.counters
	c.TotalAccesses.Add(t.nAccess)
	c.DynamicChecks.Add(t.nDynamic)
	c.LockChecks.Add(t.nLockChk)
	c.Barriers.Add(t.nBarrier)
	c.ElidedChecks.Add(t.nElided)
	telemetry.StoreMax(&c.MaxLocksHeld, int64(t.locks.Peak()))
}

// Run executes the program's main function and waits for every spawned
// thread to finish (the benchmark programs join their workers; waiting
// keeps stray goroutines out of the host process). It returns main's exit
// value.
func (rt *Runtime) Run() (int64, error) {
	if rt.mem.Len() == 0 {
		panic("interp: Run of a released runtime")
	}
	mainIdx := rt.prog.Main
	tid := rt.acquireTid()
	t := rt.newThread(tid)
	if rt.ctl != nil {
		t.skey = rt.ctl.Register()
		rt.bindKey(t.skey, t.tid)
		rt.ctl.Begin(t.skey)
	}
	rt.trackLive(1)
	ret := int64(0)
	func() {
		defer rt.threadEpilogue(t)
		ret = t.runFlat(mainIdx, nil)
	}()
	rt.wg.Wait()
	if rt.interrupted.Load() {
		return ret, ErrInterrupted
	}
	if fails := rt.ReportsOfKind(ReportThreadFail); len(fails) > 0 {
		return ret, fmt.Errorf("%s", fails[0].Msg)
	}
	return ret, nil
}

// Release returns the runtime's cell memory for reuse by a later New (see
// paged.Int64s.Release). Call it after the runtime's last use: once Run
// has returned and the reports, statistics and telemetry wanted from it
// are taken. A released runtime's memory is empty, so running it again
// panics instead of reading another runtime's cells. Release is
// idempotent.
func (rt *Runtime) Release() { rt.mem.Release() }

// tryTid takes a free thread id without blocking: a fresh id while any is
// left, then one a finished thread returned.
func (rt *Runtime) tryTid() (int, bool) {
	for {
		n := rt.freshTids.Load()
		if n >= shadow.MaxThreads {
			break
		}
		if rt.freshTids.CompareAndSwap(n, n+1) {
			return int(n) + 1, true
		}
	}
	select {
	case tid := <-rt.tidPool:
		return tid, true
	default:
		return 0, false
	}
}

// acquireTid takes a free thread id, waiting for a thread to exit when
// every id is held.
func (rt *Runtime) acquireTid() int {
	if tid, ok := rt.tryTid(); ok {
		return tid
	}
	return <-rt.tidPool
}

// ErrInterrupted is returned by Run when the execution was cut short by
// Runtime.Interrupt rather than finishing on its own.
var ErrInterrupted = errors.New("interrupted: the run was stopped before completion")

// Interrupt stops an in-flight Run from another goroutine: it raises the
// Config.Interrupt flag (threads unwind silently at their next scheduling
// point — a shared-memory access or a synchronization operation) and,
// under the cooperative scheduler, aborts the controller: at the token
// holder's next scheduling point, threads parked waiting for the token,
// blocked on modeled locks, condition variables, and joins, or not yet
// begun are all released, and so is any thread spawned after. The
// teardown is reliable for scheduled runs (Config.Sched non-nil, the serve
// layer's default); for free-running programs it is best-effort — a thread
// parked in a Go-level mutex or condition wait is only interrupted once it
// wakes on its own. Safe to call at any time, including after Run
// returned.
func (rt *Runtime) Interrupt() {
	if rt.intr != nil {
		rt.intr.Store(true)
	}
	if rt.ctl != nil {
		rt.ctl.Abort()
	}
}

// Interrupted reports whether at least one thread unwound on an
// Interrupt (the condition under which Run returns ErrInterrupted).
func (rt *Runtime) Interrupted() bool { return rt.interrupted.Load() }

func (rt *Runtime) trackLive(d int32) {
	n := rt.liveThreads.Add(d)
	if d > 0 {
		telemetry.StoreMax(&rt.counters.MaxThreads, int64(n))
	}
}

// threadEpilogue runs when a thread finishes: recover failures (program
// failures and unexpected panics alike become ReportThreadFail reports),
// clear its shadow bits, recycle its id.
func (rt *Runtime) threadEpilogue(t *thread) {
	interrupted := false
	if r := recover(); r != nil {
		switch f := r.(type) {
		case threadFailure:
			rt.report(ReportThreadFail, f.pos, fmt.Sprintf("%s: thread %d failed: %s", f.pos, t.tid, f.msg))
		case interruptPanic:
			// Torn down by Runtime.Interrupt: unwind without reporting —
			// the locks this thread still holds are teardown debris, not a
			// program error. Free-running threads hold real Go mutexes, so
			// release them here or siblings parked in mu.Lock() would never
			// reach their own interrupt check (modeled locks under a
			// controller are unwedged by Controller.Abort instead).
			rt.interrupted.Store(true)
			interrupted = true
			if rt.ctl == nil {
				for _, addr := range t.locks.Snapshot() {
					if v, ok := rt.mutexes.Load(addr); ok {
						v.(*sync.Mutex).Unlock()
					}
				}
			}
		default:
			// An interpreter bug, not a program error: contain it to this
			// thread so one bad run cannot take the host process down.
			rt.report(ReportThreadFail, token.Pos{}, fmt.Sprintf("%s: thread %d failed: internal error: %v", token.Pos{}, t.tid, r))
		}
	}
	if !interrupted && t.locks.Count() > 0 {
		rt.report(ReportLock, token.Pos{}, fmt.Sprintf("thread %d exited holding %d lock(s)", t.tid, t.locks.Count()))
	}
	t.locks.Clear()
	if rt.cfg.Observer != nil {
		rt.cfg.Observer.ThreadEnd(t.tid)
	}
	rt.tracer.Append(telemetry.KindThreadEnd, t.tid, -1, 0, 0)
	rt.addThreadStats(t)
	rt.shadow.ClearThread(t.tid)
	rt.trackLive(-1)
	rt.tidPool <- t.tid
	if rt.ctl != nil {
		// After the tid goes back to the pool, so a spawner woken by this
		// exit (AwaitExit) finds a free thread id.
		rt.ctl.Exit(t.skey)
	}
}

// threadFailure aborts a thread (the formal semantics' "fail" state).
type threadFailure struct {
	msg string
	pos token.Pos
}

// output writes program output.
func (rt *Runtime) output(s string) {
	rt.outMu.Lock()
	defer rt.outMu.Unlock()
	io.WriteString(rt.out, s)
}

// FormatReports renders all reports, one per line block.
func (rt *Runtime) FormatReports() string {
	var sb strings.Builder
	for _, r := range rt.Reports() {
		sb.WriteString(r.Msg)
		sb.WriteByte('\n')
	}
	return sb.String()
}
