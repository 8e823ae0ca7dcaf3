package interp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// ---------------------------------------------------------------------------
// builtin bodies: each takes evaluated argument values; flatBuiltin in vm.go
// reads them from registers and the FCString stack and dispatches here.

func (t *thread) doMalloc(n int64, pos token.Pos) int64 {
	rt := t.rt
	base, ok := rt.malloc(n)
	if !ok {
		t.fail(pos, "out of memory: malloc(%d)", n)
	}
	if obs := rt.cfg.Observer; obs != nil {
		obs.Malloc(t.tid, base, rt.blockSize(base))
	}
	rt.tracer.Append(telemetry.KindMalloc, t.tid, -1, base, rt.blockSize(base))
	return base
}

func (t *thread) doFree(p int64, pos token.Pos) int64 {
	rt := t.rt
	if p == 0 {
		return 0
	}
	// Unpublish first: the block must not be reusable while its cells
	// and shadow state are being cleared.
	size := rt.beginFree(p)
	if size == 0 {
		t.fail(pos, "free of invalid pointer 0x%x", p)
	}
	// Pointer slots inside the block die: null them through barriers so
	// their referents' counts drop, then clear the shadow state — freed
	// memory is no longer considered accessed by any thread (§4.2.1).
	for i := int64(0); i < size; i++ {
		addr := p + i
		if old := t.loadRaw(addr); old != 0 {
			t.dynStore(addr, 0)
		} else {
			t.storeRaw(addr, 0)
		}
	}
	rt.shadow.ClearRange(p, size)
	rt.finishFree(p, size)
	if obs := rt.cfg.Observer; obs != nil {
		obs.Free(t.tid, p, size)
	}
	rt.tracer.Append(telemetry.KindFree, t.tid, -1, p, size)
	return 0
}

func (t *thread) doJoin(h int64, pos token.Pos) int64 {
	rt := t.rt
	v, ok := rt.handles.Load(h)
	if !ok {
		t.fail(pos, "join of unknown thread handle %d", h)
	}
	th := v.(*threadHandle)
	if rt.ctl != nil {
		if !rt.ctl.Join(t.skey, th.skey) {
			t.schedDown(pos)
		}
	}
	// Under the scheduler the target has already passed its Exit point;
	// done closes momentarily after, so this wait is bounded and makes
	// no scheduling decision.
	<-th.done
	if obs := rt.cfg.Observer; obs != nil {
		obs.Join(t.tid, th.tid)
	}
	rt.tracer.Append(telemetry.KindJoin, t.tid, -1, 0, int64(th.tid))
	return 0
}

func (t *thread) doMutexNew(pos token.Pos) int64 {
	rt := t.rt
	base, ok := rt.malloc(1)
	if !ok {
		t.fail(pos, "out of memory: mutexNew")
	}
	rt.mutexes.Store(base, &sync.Mutex{})
	return base
}

func (t *thread) doCondNew(pos token.Pos) int64 {
	rt := t.rt
	base, ok := rt.malloc(1)
	if !ok {
		t.fail(pos, "out of memory: condNew")
	}
	rt.conds.Store(base, &condState{})
	return base
}

func (t *thread) doMutexLock(addr int64, pos token.Pos) int64 {
	rt := t.rt
	mu := t.mutexAt(addr, pos)
	if rt.ctl != nil {
		// Real mutexes would block the token holder in the Go runtime
		// with no way to hand the token on; ownership is modeled in the
		// controller instead, which also gives deadlock detection.
		if !rt.ctl.Lock(t.skey, addr) {
			t.schedDown(pos)
		}
	} else {
		mu.Lock()
	}
	t.locks.Acquire(addr)
	rt.counters.LockAcquires.Add(1)
	rt.tracer.Append(telemetry.KindLockAcquire, t.tid, -1, addr, 0)
	if obs := rt.cfg.Observer; obs != nil {
		obs.Acquire(t.tid, addr)
	}
	return 0
}

func (t *thread) doMutexUnlock(addr int64, pos token.Pos) int64 {
	rt := t.rt
	mu := t.mutexAt(addr, pos)
	if !t.locks.Release(addr) {
		rt.report(ReportLock, pos,
			fmt.Sprintf("%s: thread %d unlocked a mutex it does not hold", pos, t.tid))
		return 0
	}
	rt.counters.LockReleases.Add(1)
	rt.tracer.Append(telemetry.KindLockRelease, t.tid, -1, addr, 0)
	if obs := rt.cfg.Observer; obs != nil {
		obs.Release(t.tid, addr)
	}
	if rt.ctl != nil {
		if !rt.ctl.Unlock(t.skey, addr) {
			t.schedDown(pos)
		}
	} else {
		mu.Unlock()
	}
	return 0
}

func (t *thread) doCondWait(cvAddr, mAddr int64, pos token.Pos) int64 {
	rt := t.rt
	cs := t.condAt(cvAddr, pos)
	mu := t.mutexAt(mAddr, pos)
	cs.mu.Lock()
	if cs.cond == nil {
		if rt.ctl == nil {
			cs.cond = sync.NewCond(mu)
		}
		cs.lock = mAddr
	} else if cs.lock != mAddr {
		cs.mu.Unlock()
		t.fail(pos, "condition variable used with two different mutexes")
	}
	if rt.ctl != nil && cs.lock == 0 {
		cs.lock = mAddr
	}
	cs.mu.Unlock()
	if !t.locks.Held(mAddr) {
		rt.report(ReportLock, pos,
			fmt.Sprintf("%s: thread %d waits on a condition without holding the mutex", pos, t.tid))
	}
	t.locks.Release(mAddr)
	rt.counters.LockReleases.Add(1)
	rt.tracer.Append(telemetry.KindLockRelease, t.tid, -1, mAddr, 0)
	if obs := rt.cfg.Observer; obs != nil {
		obs.Release(t.tid, mAddr)
	}
	if rt.ctl != nil {
		if !rt.ctl.Wait(t.skey, cvAddr, mAddr) {
			t.schedDown(pos)
		}
	} else {
		cs.cond.Wait()
	}
	t.locks.Acquire(mAddr)
	rt.counters.LockAcquires.Add(1)
	rt.tracer.Append(telemetry.KindLockAcquire, t.tid, -1, mAddr, 0)
	if obs := rt.cfg.Observer; obs != nil {
		obs.Acquire(t.tid, mAddr)
		obs.CondWake(t.tid, cvAddr)
	}
	return 0
}

func (t *thread) doCondSignal(cvAddr int64, broadcast bool, pos token.Pos) int64 {
	rt := t.rt
	cs := t.condAt(cvAddr, pos)
	cs.mu.Lock()
	cond := cs.cond
	cs.mu.Unlock()
	if obs := rt.cfg.Observer; obs != nil {
		obs.CondSignal(t.tid, cvAddr)
	}
	if rt.ctl != nil {
		// The controller picks which waiter wakes: wake order is a
		// recorded, explorable scheduling decision.
		if !rt.ctl.Signal(t.skey, cvAddr, broadcast) {
			t.schedDown(pos)
		}
	} else if cond != nil {
		if broadcast {
			cond.Broadcast()
		} else {
			cond.Signal()
		}
	}
	return 0
}

func (t *thread) doPrint(s string, rest []int64) int64 {
	var sb strings.Builder
	sb.WriteString(s)
	for _, v := range rest {
		fmt.Fprintf(&sb, " %d", v)
	}
	t.rt.output(sb.String())
	return 0
}

func (t *thread) doPrintInt(v int64) int64 {
	t.rt.output(fmt.Sprintf("%d\n", v))
	return 0
}

func (t *thread) doAssert(v int64, pos token.Pos) int64 {
	if v == 0 {
		t.fail(pos, "assertion failed")
	}
	return 0
}

func (t *thread) doSrand(seed int64) int64 {
	t.rng = uint64(seed)*2654435761 + 1
	return 0
}

func (t *thread) doSleepMs(ms int64) int64 {
	if t.rt.ctl != nil {
		// Virtual time: a sleep is just a scheduling point, so races a
		// real sleep would hide behind wall-clock separation become
		// explorable interleavings.
		t.schedPoint(sched.PointSleep)
		return 0
	}
	if ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	return 0
}

func (t *thread) doYield() int64 {
	if t.rt.ctl != nil {
		t.schedPoint(sched.PointYield)
		return 0
	}
	runtime.Gosched()
	return 0
}

func (t *thread) doMemset(p, v, n int64, e *ir.BuiltinCall) int64 {
	for i := int64(0); i < n; i++ {
		t.builtinWrite(p+i, v, e.ArgChecks[0], e.Pos)
	}
	return 0
}

func (t *thread) doMemcpy(d, s, n int64, e *ir.BuiltinCall) int64 {
	for i := int64(0); i < n; i++ {
		v := t.builtinRead(s+i, e.ArgChecks[1], e.Pos)
		t.builtinWrite(d+i, v, e.ArgChecks[0], e.Pos)
	}
	return 0
}

func (t *thread) doStrcpy(d, s int64, e *ir.BuiltinCall) int64 {
	for i := int64(0); ; i++ {
		v := t.builtinRead(s+i, e.ArgChecks[1], e.Pos)
		t.builtinWrite(d+i, v, e.ArgChecks[0], e.Pos)
		if v == 0 {
			return 0
		}
	}
}

func (t *thread) doRecycle(p, n int64) int64 {
	rt := t.rt
	if p <= 0 || n <= 0 {
		return 0
	}
	// The custom allocator owns the memory layout; SharC only forgets
	// past accesses (and drops tracked references held inside).
	for i := int64(0); i < n && p+i < rt.mem.Len(); i++ {
		if old := t.loadRaw(p + i); old != 0 {
			t.dynStore(p+i, 0)
		} else {
			t.storeRaw(p+i, 0)
		}
	}
	rt.shadow.ClearRange(p, n)
	return 0
}

// ---------------------------------------------------------------------------
// checked library accesses

// builtinRead is a checked read on behalf of a library summary (§4.4).
func (t *thread) builtinRead(addr int64, chk ir.Check, pos token.Pos) int64 {
	t.checkAddr(addr, pos)
	t.countAccess(addr)
	t.applyCheck(addr, chk, false)
	t.observe(addr, false, chk.Site)
	return t.loadRaw(addr)
}

// builtinWrite is a checked write on behalf of a library summary; it uses
// the dynamic barrier test because the library has no static slot types.
func (t *thread) builtinWrite(addr, val int64, chk ir.Check, pos token.Pos) {
	t.checkAddr(addr, pos)
	t.countAccess(addr)
	t.applyCheck(addr, chk, true)
	t.observe(addr, true, chk.Site)
	t.dynStore(addr, val)
}

// readCString reads a NUL-terminated string with per-cell checks.
func (t *thread) readCString(p int64, chk ir.Check, pos token.Pos) string {
	var sb strings.Builder
	for i := int64(0); ; i++ {
		v := t.builtinRead(p+i, chk, pos)
		if v == 0 {
			return sb.String()
		}
		sb.WriteByte(byte(v))
		if i > 1<<20 {
			t.fail(pos, "unterminated string at 0x%x", p)
		}
	}
}

func (t *thread) mutexAt(addr int64, pos token.Pos) *sync.Mutex {
	v, ok := t.rt.mutexes.Load(addr)
	if !ok {
		t.fail(pos, "not a mutex: 0x%x", addr)
	}
	return v.(*sync.Mutex)
}

func (t *thread) condAt(addr int64, pos token.Pos) *condState {
	v, ok := t.rt.conds.Load(addr)
	if !ok {
		t.fail(pos, "not a condition variable: 0x%x", addr)
	}
	return v.(*condState)
}

// doSpawn starts a new ShC thread running the target function with one
// argument, returning a join handle.
func (t *thread) doSpawn(fnVal, arg int64, pos token.Pos) int64 {
	rt := t.rt
	idx := ir.DecodeFunc(fnVal)
	if idx < 0 || idx >= len(rt.prog.Funcs) {
		t.fail(pos, "spawn of invalid function pointer 0x%x", fnVal)
	}
	fn := rt.prog.Funcs[idx]
	if fn.NumParams != 1 {
		t.fail(pos, "spawn target %s must take one argument", fn.Name)
	}
	var tid int
	if rt.ctl != nil {
		// The token holder must not block in a channel receive: when the id
		// pool is dry, hand the token away until some thread exits (exiting
		// threads return their id before their Exit point).
		for {
			select {
			case tid = <-rt.tidPool:
			default:
				if !rt.ctl.AwaitExit(t.skey) {
					t.schedDown(pos)
				}
				continue
			}
			break
		}
	} else {
		tid = <-rt.tidPool
	}
	// New concurrency: drop every thread's cached check validations so the
	// fresh thread's accesses are re-validated against current bits.
	rt.shadow.Invalidate()
	handle := rt.nextHandle.Add(1)
	th := &threadHandle{tid: tid, done: make(chan struct{})}
	if rt.ctl != nil {
		th.skey = rt.ctl.Register()
	}
	rt.handles.Store(handle, th)
	if rt.ctl != nil {
		rt.bindKey(th.skey, tid)
	}
	rt.counters.Spawns.Add(1)
	rt.tracer.Append(telemetry.KindSpawn, t.tid, -1, 0, int64(tid))
	if obs := rt.cfg.Observer; obs != nil {
		obs.Spawn(t.tid, tid)
	}
	rt.trackLive(1)
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer close(th.done)
		nt := rt.newThread(tid)
		nt.skey = th.skey
		if rt.ctl != nil {
			rt.ctl.Begin(th.skey)
		}
		defer rt.threadEpilogue(nt)
		nt.runFlat(idx, []int64{arg})
	}()
	t.schedPoint(sched.PointSpawn)
	return handle
}
