package compile

// Register promotion of safe frame slots: a slot, parameter or local,
// whose every appearance is a direct, check-free scalar access can live in
// a dedicated VM register instead of frame memory. Linearize turns its
// three-dispatch access protocol (FFrame + FYield + FLoad/FStore) into an
// FMove between the dedicated register and a temporary, and the regopt
// pass then usually removes that move too: reads are copy-propagated into
// their users and writes are folded into the instruction computing the
// value, so a promoted access typically costs no dispatch at all. A
// promoted parameter's register is listed in FlatFunc.ParamRegs, and the
// VM seeds it with the argument on entry; pushFrame still writes every
// argument to its frame slot.
//
// A reference-counted pointer slot (Func.RCSlotSet) is promoted
// write-through: every store to it still runs the frame sequence (FFrame,
// FYield, FBarrier, FStore) in its usual order and then copies the value
// into the register, so the frame cell stays authoritative for the RC
// barrier's old-value load, the collector's cell reads and popFrame's
// nulling of RCPtrSlots. Only its reads come from the register.
//
// The promotion is invisible to every observable the runtime is pinned
// on: stack addresses never count as accesses or yield to the scheduler
// (countAccess excludes the stack region), a CheckNone access runs no
// check, and a slot is only promoted when nothing else can reach its frame
// cell. An Observer sees memory accesses only: a register-resident slot is
// not memory, so its reads (and a plain promoted slot's writes) are not
// reported to it. The disqualifiers, each tied to a runtime path that
// reads or writes frame memory directly:
//
//   - the slot's address escapes direct-access position (a pointer may
//     alias the cell);
//   - any access carries a real check (applyCheck operates on the memory
//     cell), or an RC barrier on a slot that is not RC-tracked;
//   - the slot is RC-tracked and the target of ++/-- or a compound
//     assignment (those rewrite the register without the barrier);
//   - the slot is the source of a sharing cast (scastAt reads, checks and
//     nulls the cell in memory) or appears inside a lock expression (the
//     runtime evaluates it against frame memory).

import "repro/internal/ir"

// slots returns the frame slots of fn that can live in dedicated VM
// registers, in increasing order. The result and the scan's tables are
// reused by the next call.
func (p *promScan) slots(fn *ir.Func) []int {
	p.out = p.out[:0]
	if fn.FrameSize == 0 {
		return p.out
	}
	p.rc = fn.RCSlotSet
	p.seen = grow(p.seen, fn.FrameSize)
	p.bad = grow(p.bad, fn.FrameSize)
	for _, s := range fn.Body {
		p.stmt(s)
	}
	for i := range p.seen {
		if p.seen[i] && !p.bad[i] {
			p.out = append(p.out, i)
		}
	}
	return p.out
}

type promScan struct {
	rc   []bool // the function's RCSlotSet
	seen []bool // slot is directly accessed at least once
	bad  []bool // slot is disqualified
	out  []int
}

func (p *promScan) slotBad(s int) {
	if s >= 0 && s < len(p.bad) {
		p.bad[s] = true
	}
}

// access visits a direct access (Load/Store/IncDec/Compound address
// operand; rmw marks the read-modify-writes): a FrameAddr here is a
// candidate use, disqualified when the access needs a check, carries a
// barrier on a slot that is not RC-tracked, or rewrites an RC-tracked slot
// in place.
func (p *promScan) access(addr ir.Expr, barrier, rmw bool, chks ...*ir.Check) {
	clean := true
	for _, c := range chks {
		if c.Kind != ir.CheckNone {
			clean = false
		}
		p.badAll(c.Lock)
	}
	if fa, ok := addr.(*ir.FrameAddr); ok {
		if s := fa.Slot; s >= 0 && s < len(p.seen) {
			p.seen[s] = true
			rc := s < len(p.rc) && p.rc[s]
			if !clean || barrier && !rc || rmw && rc {
				p.bad[s] = true
			}
		}
		return
	}
	p.expr(addr)
}

// badAll disqualifies every slot mentioned anywhere in x — used for lock
// expressions and sharing-cast operands, which the runtime evaluates
// against frame memory.
func (p *promScan) badAll(x ir.Expr) {
	switch v := x.(type) {
	case nil:
	case *ir.Const, *ir.StrAddr, *ir.FuncVal:
	case *ir.FrameAddr:
		p.slotBad(v.Slot)
	case *ir.Load:
		p.badAll(v.Addr)
		p.badAll(v.Chk.Lock)
	case *ir.Bin:
		p.badAll(v.L)
		p.badAll(v.R)
	case *ir.Un:
		p.badAll(v.X)
	case *ir.Logic:
		p.badAll(v.L)
		p.badAll(v.R)
	case *ir.CondE:
		p.badAll(v.C)
		p.badAll(v.T)
		p.badAll(v.F)
	case *ir.Store:
		p.badAll(v.Addr)
		p.badAll(v.Val)
		p.badAll(v.Chk.Lock)
	case *ir.IncDec:
		p.badAll(v.Addr)
		p.badAll(v.ChkR.Lock)
		p.badAll(v.ChkW.Lock)
	case *ir.Compound:
		p.badAll(v.Addr)
		p.badAll(v.RHS)
		p.badAll(v.ChkR.Lock)
		p.badAll(v.ChkW.Lock)
	case *ir.Call:
		p.badAll(v.Fn)
		for _, a := range v.Args {
			p.badAll(a)
		}
	case *ir.BuiltinCall:
		for _, a := range v.Args {
			p.badAll(a)
		}
		for i := range v.ArgChecks {
			p.badAll(v.ArgChecks[i].Lock)
		}
	case *ir.Scast:
		p.badAll(v.Addr)
		p.badAll(v.ChkR.Lock)
		p.badAll(v.ChkW.Lock)
	}
}

func (p *promScan) expr(x ir.Expr) {
	switch v := x.(type) {
	case nil:
	case *ir.Const, *ir.StrAddr, *ir.FuncVal:
	case *ir.FrameAddr:
		// The slot's address in value position: it escapes.
		p.slotBad(v.Slot)
	case *ir.Load:
		p.access(v.Addr, false, false, &v.Chk)
	case *ir.Bin:
		p.expr(v.L)
		p.expr(v.R)
	case *ir.Un:
		p.expr(v.X)
	case *ir.Logic:
		p.expr(v.L)
		p.expr(v.R)
	case *ir.CondE:
		p.expr(v.C)
		p.expr(v.T)
		p.expr(v.F)
	case *ir.Store:
		p.access(v.Addr, v.Barrier, false, &v.Chk)
		p.expr(v.Val)
	case *ir.IncDec:
		p.access(v.Addr, v.Barrier, true, &v.ChkR, &v.ChkW)
	case *ir.Compound:
		p.access(v.Addr, v.Barrier, true, &v.ChkR, &v.ChkW)
		p.expr(v.RHS)
	case *ir.Call:
		p.expr(v.Fn)
		for _, a := range v.Args {
			p.expr(a)
		}
	case *ir.BuiltinCall:
		for _, a := range v.Args {
			p.expr(a)
		}
		for i := range v.ArgChecks {
			p.badAll(v.ArgChecks[i].Lock)
		}
	case *ir.Scast:
		// scastAt reads, checks and nulls the source cell in memory, so a
		// source slot escapes like any address in value position; the
		// address itself is ordinary code. The checks' locks are
		// evaluated against frame memory.
		p.expr(v.Addr)
		p.badAll(v.ChkR.Lock)
		p.badAll(v.ChkW.Lock)
	}
}

func (p *promScan) stmt(s ir.Stmt) {
	switch v := s.(type) {
	case *ir.SExpr:
		p.expr(v.E)
	case *ir.SIf:
		p.expr(v.C)
		for _, t := range v.Then {
			p.stmt(t)
		}
		for _, t := range v.Else {
			p.stmt(t)
		}
	case *ir.SLoop:
		p.expr(v.Cond)
		for _, t := range v.Body {
			p.stmt(t)
		}
		p.expr(v.Post)
	case *ir.SReturn:
		p.expr(v.E)
	case *ir.SSwitch:
		p.expr(v.X)
		for _, arm := range v.Arms {
			for _, t := range arm {
				p.stmt(t)
			}
		}
	}
}
