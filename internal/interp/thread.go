package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/locklog"
	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// thread is one executing ShC thread: a goroutine with a stack region, a
// lock log, and per-thread counters.
type thread struct {
	rt    *Runtime
	tid   int
	skey  int   // scheduler task key (0 when free-running)
	base  int64 // bottom of this thread's stack region
	sp    int64 // next free stack cell
	locks *locklog.Log
	rng   uint64

	frame int64 // current frame base

	// retVal is the value of the most recently completed call on this
	// thread; a function that falls off its end returns it (FRet Imm=1).
	retVal int64

	// noYield suppresses scheduling points during the nested evaluation of
	// a locked check's lock expression: discharge removes that evaluation,
	// so yielding inside it would misalign decision sequences across
	// discharge configs and break cross-config replay.
	noYield int

	nAccess  int64
	nDynamic int64
	nLockChk int64
	nBarrier int64
	nElided  int64

	// regs is the VM's register stack: each flat frame claims a
	// window of NumRegs cells. cstrs is its pending C-string stack, filled
	// by FCString instructions and consumed by the following FBuiltin.
	regs  []int64
	cstrs []string
}

func (rt *Runtime) newThread(tid, skey int) *thread {
	base := rt.stackBase + int64(tid-1)*int64(rt.cfg.StackCells)
	return &thread{
		rt:    rt,
		tid:   tid,
		skey:  skey,
		base:  base,
		sp:    base,
		locks: locklog.New(),
		rng:   uint64(rt.cfg.SeedRand)*2654435761 + uint64(tid)*0x9e3779b97f4a7c15 + 1,
	}
}

func (t *thread) fail(pos token.Pos, format string, args ...any) {
	panic(threadFailure{msg: fmt.Sprintf(format, args...), pos: pos})
}

// interruptPanic unwinds a thread torn down by Runtime.Interrupt; the
// epilogue recovers it without reporting.
type interruptPanic struct{}

// interruptCheck unwinds when the runtime's interrupt flag is raised. It
// runs at every scheduling point; when the run is not interruptible the
// cost is one nil comparison.
func (t *thread) interruptCheck() {
	if t.rt.intr != nil && t.rt.intr.Load() {
		panic(interruptPanic{})
	}
}

// schedDown unwinds after a controller call returned false: abort teardown
// (Runtime.Interrupt) unwinds silently, deadlock teardown fails the thread
// with the diagnostic.
func (t *thread) schedDown(pos token.Pos) {
	if t.rt.ctl != nil && t.rt.ctl.Aborted() {
		panic(interruptPanic{})
	}
	t.fail(pos, "deadlock: all threads blocked")
}

// schedPoint offers the running thread's turn to the cooperative scheduler
// (when one is installed). A false return means the controller tore the
// run down (deadlock or abort) and this thread must unwind.
func (t *thread) schedPoint(p sched.Point) {
	t.interruptCheck()
	if t.rt.ctl == nil || t.noYield > 0 {
		return
	}
	if !t.rt.ctl.YieldPoint(t.skey, p) {
		t.schedDown(token.Pos{})
	}
}

// ---------------------------------------------------------------------------
// memory access

func (t *thread) loadRaw(addr int64) int64 {
	return t.rt.mem.Load(addr)
}

func (t *thread) storeRaw(addr, v int64) {
	t.rt.mem.Store(addr, v)
}

func (t *thread) checkAddr(addr int64, pos token.Pos) {
	if addr <= 0 || addr >= t.rt.mem.Len() {
		t.fail(pos, "invalid memory access at 0x%x (null or out of bounds)", addr)
	}
}

// applyCheck runs the access's runtime check.
func (t *thread) applyCheck(addr int64, chk ir.Check, write bool) {
	switch chk.Kind {
	case ir.CheckDynamic:
		t.nDynamic++
		var c *shadow.Conflict
		sid := uint32(chk.Site)
		if write {
			c = t.rt.shadow.ChkWrite(t.tid, addr, sid)
		} else {
			c = t.rt.shadow.ChkRead(t.tid, addr, sid)
		}
		if t.rt.tel != nil {
			t.rt.tel.DynamicCheck(t.tid, chk.Site, write, t.locks.Count() > 0, c != nil)
		}
		if tr := t.rt.tracer; tr != nil {
			k := telemetry.KindChkRead
			if write {
				k = telemetry.KindChkWrite
			}
			if c != nil {
				k = telemetry.KindConflict
			}
			tr.Append(k, t.tid, chk.Site, addr, 0)
		}
		if c != nil {
			t.rt.counters.Conflicts.Add(1)
			t.rt.reportConflict(ReportRace, t.rt.prog.Sites[chk.Site].Pos, c.Error(), c)
		}
	case ir.CheckLocked:
		t.nLockChk++
		t.noYield++
		lockAddr := t.lockValue(chk.Lock)
		t.noYield--
		held := t.locks.Held(lockAddr)
		if t.rt.tel != nil {
			t.rt.tel.LockedCheck(t.tid, chk.Site, !held)
		}
		if tr := t.rt.tracer; tr != nil {
			k := telemetry.KindLockedCheck
			if !held {
				k = telemetry.KindLockViolation
			}
			tr.Append(k, t.tid, chk.Site, addr, lockAddr)
		}
		if !held {
			t.rt.counters.LockViolations.Add(1)
			site := t.rt.prog.Sites[chk.Site]
			t.rt.report(ReportLock, site.Pos,
				fmt.Sprintf("lock violation: thread %d accessed %s @ %s: %d without holding its lock",
					t.tid, site.LValue, site.Pos.File, site.Pos.Line))
		}
	case ir.CheckElided:
		// Static discharge removed the runtime work but left the site, so
		// the avoided check is still attributable in the profile.
		t.nElided++
		if t.rt.tel != nil {
			t.rt.tel.ElidedCheck(t.tid, chk.Site)
		}
		t.rt.tracer.Append(telemetry.KindElidedCheck, t.tid, chk.Site, addr, 0)
	}
}

// lockValue evaluates a locked check's lock expression. Lowering builds
// lock expressions only from the Ident/Member chains the checker accepts as
// verifiably constant, so they are address arithmetic over constants,
// frame slots and loads (ir.FlatProgram.Verify rejects anything else).
// Loads go through t.load, so access counts, checks and the observer see
// them like any other access.
func (t *thread) lockValue(e ir.Expr) int64 {
	switch e := e.(type) {
	case *ir.Const:
		return e.V
	case *ir.FrameAddr:
		return t.frame + int64(e.Slot)
	case *ir.Load:
		return t.load(t.lockValue(e.Addr), e.Chk, token.Pos{})
	case *ir.Bin:
		if e.Op == ir.OpAdd {
			return t.lockValue(e.L) + t.lockValue(e.R)
		}
	}
	t.fail(token.Pos{}, "internal: lock expression %T", e)
	return 0
}

func (t *thread) observe(addr int64, write bool, site int) {
	if obs := t.rt.cfg.Observer; obs != nil {
		obs.Access(t.tid, addr, write, t.locks, site)
	}
}

// countAccess tallies memory accesses for the %dynamic metric. Stack-frame
// slots are excluded: locals model registers, and the paper's "proportion
// of memory accesses to dynamic objects" is over globals and heap.
//
// Shared (non-stack) accesses are also the anchor for cooperative
// scheduling points: discharge skips a Load/Store's check but never the
// access itself, so the decision sequence stays aligned across builds —
// which is what lets a trace recorded on the checked build replay exactly
// on the -discharge build (the soundness oracle).
func (t *thread) countAccess(addr int64) {
	if addr < t.rt.stackBase || addr >= t.rt.heapBase {
		t.nAccess++
		t.schedPoint(sched.PointCheck)
	}
}

// load performs a checked read.
func (t *thread) load(addr int64, chk ir.Check, pos token.Pos) int64 {
	t.checkAddr(addr, pos)
	t.countAccess(addr)
	t.applyCheck(addr, chk, false)
	t.observe(addr, false, chk.Site)
	return t.loadRaw(addr)
}

// store performs a checked write, issuing the reference-counting barrier
// when the slot statically holds a tracked pointer.
func (t *thread) store(addr, val int64, chk ir.Check, barrier bool, pos token.Pos) {
	t.checkAddr(addr, pos)
	t.countAccess(addr)
	t.applyCheck(addr, chk, true)
	t.observe(addr, true, chk.Site)
	if barrier && t.rt.rc != nil {
		old := t.loadRaw(addr)
		t.rt.rc.Barrier(t.tid, addr, old, val)
		t.rt.barriered.Set(addr)
		t.nBarrier++
	}
	t.storeRaw(addr, val)
}

// dynStore is used by builtins and teardown paths that write cells without
// static type knowledge: it barriers iff the cell was ever stored through a
// barrier.
func (t *thread) dynStore(addr, val int64) {
	if t.rt.rc != nil && t.rt.barriered.Test(addr) {
		old := t.loadRaw(addr)
		t.rt.rc.Barrier(t.tid, addr, old, val)
		t.nBarrier++
	}
	t.storeRaw(addr, val)
}

// ---------------------------------------------------------------------------
// calls and frames

// pushFrame claims and zeroes a fresh frame for fn and stores the argument
// values (tracked pointer parameters through the barrier). It returns the
// frame base and the caller's frame pointer for popFrame.
func (t *thread) pushFrame(fn *ir.Func, args []int64) (frameBase, prevFrame int64) {
	frameBase = t.sp
	if frameBase+int64(fn.FrameSize) > t.base+int64(t.rt.cfg.StackCells) {
		t.fail(fn.Pos, "stack overflow in %s", fn.Name)
	}
	t.sp = frameBase + int64(fn.FrameSize)
	// Zero the frame (stack cells are recycled).
	for i := int64(0); i < int64(fn.FrameSize); i++ {
		t.storeRaw(frameBase+i, 0)
	}
	prevFrame = t.frame
	t.frame = frameBase

	for i, v := range args {
		slot := fn.ParamSlots[i]
		if slot < len(fn.RCSlotSet) && fn.RCSlotSet[slot] && t.rt.rc != nil {
			t.rt.rc.Barrier(t.tid, frameBase+int64(slot), 0, v)
			t.rt.barriered.Set(frameBase + int64(slot))
			t.nBarrier++
		}
		t.storeRaw(frameBase+int64(slot), v)
	}
	return frameBase, prevFrame
}

// popFrame tears the frame down: the formal semantics zeroes a dead
// frame's cells; tracked pointer slots are nulled through the barrier so
// their referents' counts drop.
func (t *thread) popFrame(fn *ir.Func, frameBase, prevFrame int64) {
	for _, s := range fn.RCPtrSlots {
		addr := frameBase + int64(s)
		if old := t.loadRaw(addr); old != 0 && t.rt.rc != nil {
			t.rt.rc.Barrier(t.tid, addr, old, 0)
			t.nBarrier++
		}
		t.storeRaw(addr, 0)
	}
	t.frame = prevFrame
	t.sp = frameBase
}

// scastAt implements the sharing cast once the source l-value's address is
// known (the VM reaches it from FScast): verify the source is the sole
// reference (the oneref check of the formal semantics runs before the
// assignment it guards: |{b : M(b).value = a}| = 1, the source slot being
// that one), null the source slot, clear the object's reader/writer sets —
// after a cast, past accesses no longer constitute unintended sharing.
func (t *thread) scastAt(addr int64, e *ir.Scast) int64 {
	t.checkAddr(addr, e.Pos)
	t.schedPoint(sched.PointScast)
	v := t.load(addr, e.ChkR, e.Pos)
	if v == 0 {
		t.store(addr, 0, e.ChkW, e.Barrier, e.Pos)
		return 0 // casting NULL is trivially safe
	}
	// Attribute the oneref check to the cast's read site (discharge keeps
	// the site index alive even when the access check itself is blanked).
	scSite := -1
	if e.ChkR.Kind != ir.CheckNone {
		scSite = e.ChkR.Site
	}
	failed := false
	if t.rt.rc != nil {
		obj := t.rt.resolveObj(v)
		if obj != 0 {
			if n := t.rt.rc.Count(t.tid, obj); n > 1 {
				failed = true
				t.rt.report(ReportOneRef, e.Pos,
					fmt.Sprintf("%s: sharing cast to %s failed: %d references to object 0x%x exist",
						e.Pos, e.TargetDesc, n, obj))
			}
			if size := t.rt.blockSize(obj); size > 0 {
				t.rt.shadow.ClearRange(obj, size)
			}
		}
	}
	if t.rt.tel != nil {
		t.rt.tel.Scast(t.tid, scSite, failed)
	}
	if tr := t.rt.tracer; tr != nil {
		k := telemetry.KindScast
		if failed {
			k = telemetry.KindOnerefFail
		}
		tr.Append(k, t.tid, scSite, addr, v)
	}
	if failed {
		t.rt.counters.OnerefFailures.Add(1)
	}
	t.store(addr, 0, e.ChkW, e.Barrier, e.Pos)
	return v
}

// rand is a per-thread xorshift generator (deterministic given the seed).
func (t *thread) rand() int64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return int64(x >> 1)
}
