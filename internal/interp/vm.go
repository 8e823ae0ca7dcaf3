package interp

// The register VM: a dispatch loop over the flat instruction form
// (ir.FlatFunc). The linearize pass fixes the evaluation order: operands
// left to right, each access as checkAddr, countAccess, applyCheck,
// observe, raw operation, and builtin arguments with their C-string reads
// in argument order. The VM executes instructions exactly as emitted, so
// reports, stats, telemetry, and recorded schedule traces are a function
// of the program, the configuration, and the schedule; the golden files
// under testdata/golden pin them (engine_test.go).

import (
	"strings"

	"repro/internal/ir"
	"repro/internal/sched"
)

// runFlat executes function fnIdx's flat form with the given argument
// values in a fresh frame and register window, and returns its result.
func (t *thread) runFlat(fnIdx int, args []int64) int64 {
	rt := t.rt
	fn := rt.prog.Funcs[fnIdx]
	ff := rt.prog.Flat.Funcs[fnIdx]
	frameBase, prevFrame := t.pushFrame(fn, args)
	t.retVal = 0

	base := len(t.regs)
	need := base + ff.NumRegs
	if cap(t.regs) < need {
		grown := make([]int64, need, need+64)
		copy(grown, t.regs)
		t.regs = grown
	} else {
		t.regs = t.regs[:need]
	}
	regs := t.regs[base:need]
	for i := range regs {
		regs[i] = 0
	}

	code := ff.Code
	// Hoisted runtime state for the fused access handlers. rt.mem's page
	// directory is allocated once and never grows (pages are installed in
	// it, never replaced), and the region bounds and observer are fixed
	// for the run, so none of these can go stale mid-dispatch.
	mem := rt.mem
	memLen := mem.Len()
	stackBase, heapBase := rt.stackBase, rt.heapBase
	obs := rt.cfg.Observer
	checks := ff.Checks
	var ret int64
	pc := 0
dispatch:
	for {
		in := &code[pc]
		pc++
		switch in.Op {
		case ir.FNop, ir.FKill:

		case ir.FConst:
			regs[in.A] = in.Imm
		case ir.FStr:
			regs[in.A] = rt.prog.StringAddr[in.B]
		case ir.FFrame:
			regs[in.A] = t.frame + int64(in.B)
		case ir.FFunc:
			regs[in.A] = ir.EncodeFunc(int(in.B))
		case ir.FMove:
			regs[in.A] = regs[in.B]

		case ir.FAdd:
			regs[in.A] = regs[in.B] + regs[in.C]
		case ir.FSub:
			regs[in.A] = regs[in.B] - regs[in.C]
		case ir.FMul:
			regs[in.A] = regs[in.B] * regs[in.C]
		case ir.FDiv:
			if regs[in.C] == 0 {
				t.fail(ff.PosTab[in.Imm], "division by zero")
			}
			regs[in.A] = regs[in.B] / regs[in.C]
		case ir.FMod:
			if regs[in.C] == 0 {
				t.fail(ff.PosTab[in.Imm], "modulo by zero")
			}
			regs[in.A] = regs[in.B] % regs[in.C]
		case ir.FAnd:
			regs[in.A] = regs[in.B] & regs[in.C]
		case ir.FOr:
			regs[in.A] = regs[in.B] | regs[in.C]
		case ir.FXor:
			regs[in.A] = regs[in.B] ^ regs[in.C]
		case ir.FShl:
			regs[in.A] = regs[in.B] << uint(regs[in.C]&63)
		case ir.FShr:
			regs[in.A] = regs[in.B] >> uint(regs[in.C]&63)
		case ir.FEq:
			regs[in.A] = boolVal(regs[in.B] == regs[in.C])
		case ir.FNe:
			regs[in.A] = boolVal(regs[in.B] != regs[in.C])
		case ir.FLt:
			regs[in.A] = boolVal(regs[in.B] < regs[in.C])
		case ir.FLe:
			regs[in.A] = boolVal(regs[in.B] <= regs[in.C])
		case ir.FGt:
			regs[in.A] = boolVal(regs[in.B] > regs[in.C])
		case ir.FGe:
			regs[in.A] = boolVal(regs[in.B] >= regs[in.C])

		case ir.FNeg:
			regs[in.A] = -regs[in.B]
		case ir.FNot:
			regs[in.A] = boolVal(regs[in.B] == 0)
		case ir.FBitNot:
			regs[in.A] = ^regs[in.B]
		case ir.FSetNZ:
			regs[in.A] = boolVal(regs[in.B] != 0)

		case ir.FJmp:
			pc = int(in.A)
		case ir.FJmpZ:
			if regs[in.A] == 0 {
				pc = int(in.B)
			}
		case ir.FJmpNZ:
			if regs[in.A] != 0 {
				pc = int(in.B)
			}
		case ir.FJmpEqImm:
			if regs[in.A] == in.Imm {
				pc = int(in.B)
			}

		case ir.FYield:
			t.checkAddr(regs[in.A], ff.PosTab[in.Imm])
			t.countAccess(regs[in.A])
		case ir.FChkRead, ir.FChkElided:
			t.applyCheck(regs[in.A], *ff.Checks[in.B].Orig, false)
		case ir.FChkWrite:
			t.applyCheck(regs[in.A], *ff.Checks[in.B].Orig, true)
		case ir.FChkLock:
			fc := &ff.Checks[in.B]
			t.applyCheck(regs[in.A], *fc.Orig, fc.Write)
		case ir.FLoad:
			addr := regs[in.B]
			t.observe(addr, false, int(in.C))
			regs[in.A] = t.loadRaw(addr)
		case ir.FStore:
			addr := regs[in.A]
			t.observe(addr, true, int(in.C))
			t.storeRaw(addr, regs[in.B])
		case ir.FBarrier:
			if rt.rc != nil {
				addr := regs[in.A]
				old := t.loadRaw(addr)
				rt.rc.Barrier(t.tid, addr, old, regs[in.B])
				rt.barriered.Set(addr)
				t.nBarrier++
			}

		// The fused access superinstructions run the decomposed protocol —
		// checkAddr, countAccess, applyCheck, observe, raw op — inlined in
		// exactly that order; the slow paths delegate to the shared
		// methods so failure messages and side effects stay identical.
		case ir.FLoadAcc:
			addr := regs[in.B]
			if addr <= 0 || addr >= memLen {
				t.checkAddr(addr, ff.PosTab[in.Imm])
			}
			if addr < stackBase || addr >= heapBase {
				t.nAccess++
				t.schedPoint(sched.PointCheck)
			}
			if obs != nil {
				obs.Access(t.tid, addr, false, t.locks, int(in.C))
			}
			regs[in.A] = mem.Load(addr)
		case ir.FLoadChk:
			addr := regs[in.B]
			if addr <= 0 || addr >= memLen {
				t.checkAddr(addr, ff.PosTab[in.Imm])
			}
			if addr < stackBase || addr >= heapBase {
				t.nAccess++
				t.schedPoint(sched.PointCheck)
			}
			fc := &checks[in.C]
			t.applyCheck(addr, *fc.Orig, false)
			if obs != nil {
				obs.Access(t.tid, addr, false, t.locks, fc.Orig.Site)
			}
			regs[in.A] = mem.Load(addr)
		case ir.FStoreAcc:
			addr := regs[in.A]
			if addr <= 0 || addr >= memLen {
				t.checkAddr(addr, ff.PosTab[in.Imm])
			}
			if addr < stackBase || addr >= heapBase {
				t.nAccess++
				t.schedPoint(sched.PointCheck)
			}
			if obs != nil {
				obs.Access(t.tid, addr, true, t.locks, int(in.C))
			}
			mem.Store(addr, regs[in.B])
		case ir.FStoreChk:
			addr := regs[in.A]
			if addr <= 0 || addr >= memLen {
				t.checkAddr(addr, ff.PosTab[in.Imm])
			}
			if addr < stackBase || addr >= heapBase {
				t.nAccess++
				t.schedPoint(sched.PointCheck)
			}
			fc := &checks[in.C]
			t.applyCheck(addr, *fc.Orig, fc.Write)
			if obs != nil {
				obs.Access(t.tid, addr, true, t.locks, fc.Orig.Site)
			}
			mem.Store(addr, regs[in.B])

		case ir.FScast:
			regs[in.A] = t.scastAt(regs[in.B], ff.Scasts[in.C])

		case ir.FCall:
			ci := &ff.Calls[in.B]
			callArgs := make([]int64, len(ci.Args))
			for i, r := range ci.Args {
				callArgs[i] = regs[r]
			}
			idx := ci.Target
			if idx < 0 {
				v := regs[ci.FnReg]
				idx = ir.DecodeFunc(v)
				if idx < 0 || idx >= len(rt.prog.Funcs) {
					t.fail(ci.Pos, "call through invalid function pointer 0x%x", v)
				}
			}
			callee := rt.prog.Funcs[idx]
			if len(callArgs) != callee.NumParams {
				t.fail(ci.Pos, "call to %s with %d args, want %d", callee.Name, len(callArgs), callee.NumParams)
			}
			v := t.runFlat(idx, callArgs)
			// The nested frame may have grown (and reallocated) the
			// register stack: re-derive this frame's window.
			regs = t.regs[base:need]
			regs[in.A] = v

		case ir.FBuiltin:
			regs[in.A] = t.flatBuiltin(&ff.Builtins[in.B], regs)

		case ir.FCString:
			bi := &ff.Builtins[in.B]
			t.cstrs = append(t.cstrs, t.readCString(regs[in.A], bi.E.ArgChecks[in.C], bi.E.Pos))

		case ir.FRet:
			if in.Imm != 0 {
				// Implicit fall-off-the-end return: the function yields
				// the thread's return slot, the value of the most recently
				// completed call in this activation (0 if none).
				ret = t.retVal
			} else {
				ret = regs[in.A]
			}
			break dispatch

		default:
			t.fail(fn.Pos, "internal: vm opcode %v", in.Op)
		}
	}

	t.regs = t.regs[:base]
	t.popFrame(fn, frameBase, prevFrame)
	t.retVal = ret
	return ret
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// flatBuiltin dispatches a builtin: argument values come from registers, C
// strings from the thread's pending string stack (pushed by FCString in
// argument order), and the bodies are the do* methods in builtins.go.
func (t *thread) flatBuiltin(bi *ir.BuiltinInfo, regs []int64) int64 {
	e := bi.E
	arg := func(i int) int64 { return regs[bi.Args[i]] }
	strs := t.cstrs
	t.cstrs = t.cstrs[:0]
	switch e.Name {
	case "malloc":
		return t.doMalloc(arg(0), e.Pos)
	case "free":
		return t.doFree(arg(0), e.Pos)
	case "spawn":
		return t.doSpawn(arg(0), arg(1), e.Pos)
	case "join":
		return t.doJoin(arg(0), e.Pos)
	case "mutexNew":
		return t.doMutexNew(e.Pos)
	case "condNew":
		return t.doCondNew(e.Pos)
	case "mutexLock":
		return t.doMutexLock(arg(0), e.Pos)
	case "mutexUnlock":
		return t.doMutexUnlock(arg(0), e.Pos)
	case "condWait":
		return t.doCondWait(arg(0), arg(1), e.Pos)
	case "condSignal", "condBroadcast":
		return t.doCondSignal(arg(0), e.Name == "condBroadcast", e.Pos)
	case "print":
		rest := make([]int64, 0, len(bi.Args)-1)
		for i := 1; i < len(bi.Args); i++ {
			rest = append(rest, arg(i))
		}
		return t.doPrint(strs[0], rest)
	case "printInt":
		return t.doPrintInt(arg(0))
	case "assert":
		return t.doAssert(arg(0), e.Pos)
	case "rand":
		return t.rand()
	case "srand":
		return t.doSrand(arg(0))
	case "sleepMs":
		return t.doSleepMs(arg(0))
	case "yield":
		return t.doYield()
	case "memset":
		return t.doMemset(arg(0), arg(1), arg(2), e)
	case "memcpy":
		return t.doMemcpy(arg(0), arg(1), arg(2), e)
	case "strlen":
		return int64(len(strs[0]))
	case "strcmp":
		return int64(strings.Compare(strs[0], strs[1]))
	case "strcpy":
		return t.doStrcpy(arg(0), arg(1), e)
	case "shcRecycle":
		return t.doRecycle(arg(0), arg(1))
	case "strstr":
		return int64(strings.Index(strs[0], strs[1]))
	}
	t.fail(e.Pos, "internal: unknown builtin %q", e.Name)
	return 0
}
