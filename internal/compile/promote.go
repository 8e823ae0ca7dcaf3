package compile

// Register promotion of safe locals: a frame slot whose every appearance
// is a direct, check-free, barrier-free scalar access can live in a
// dedicated VM register instead of frame memory. Linearize turns its
// three-dispatch access protocol (FFrame + FYield + FLoad/FStore) into an
// FMove between the dedicated register and a temporary, and the regopt
// pass then usually removes that move too: reads are copy-propagated into
// their users and writes are folded into the instruction computing the
// value, so a promoted access typically costs no dispatch at all.
//
// The promotion is invisible to every observable the runtime is pinned
// on: stack addresses never count as accesses or yield to the scheduler
// (countAccess excludes the stack region), a CheckNone access runs no
// check, and a slot is only promoted when nothing else can reach its frame
// cell. The disqualifiers, each tied to a runtime path that reads or
// writes frame memory directly:
//
//   - the slot's address escapes direct-access position (a pointer may
//     alias the cell);
//   - any access carries a real check or an RC barrier (applyCheck and the
//     barrier operate on the memory cell);
//   - the slot is a parameter (pushFrame writes arguments to the frame) or
//     an RC-tracked pointer cell (popFrame reads RCPtrSlots from the
//     frame);
//   - the slot appears inside a lock expression or sharing-cast operand
//     (both evaluate against frame memory at runtime).

import "repro/internal/ir"

// promotableSlots returns the frame slots of fn that can live in dedicated
// VM registers, in increasing order.
func promotableSlots(fn *ir.Func) []int {
	if fn.FrameSize == 0 {
		return nil
	}
	p := &promScan{
		seen: make([]bool, fn.FrameSize),
		bad:  make([]bool, fn.FrameSize),
	}
	for _, s := range fn.Body {
		p.stmt(s)
	}
	for _, s := range fn.ParamSlots {
		p.slotBad(s)
	}
	for i, rc := range fn.RCSlotSet {
		if rc {
			p.bad[i] = true
		}
	}
	var out []int
	for i := range p.seen {
		if p.seen[i] && !p.bad[i] {
			out = append(out, i)
		}
	}
	return out
}

type promScan struct {
	seen []bool // slot is directly accessed at least once
	bad  []bool // slot is disqualified
}

func (p *promScan) slotBad(s int) {
	if s >= 0 && s < len(p.bad) {
		p.bad[s] = true
	}
}

// access visits a direct access (Load/Store/IncDec/Compound address
// operand): a FrameAddr here is a candidate use, disqualified when the
// access needs a check or a barrier.
func (p *promScan) access(addr ir.Expr, barrier bool, chks ...*ir.Check) {
	clean := !barrier
	for _, c := range chks {
		if c.Kind != ir.CheckNone {
			clean = false
		}
		p.badAll(c.Lock)
	}
	if fa, ok := addr.(*ir.FrameAddr); ok {
		if fa.Slot >= 0 && fa.Slot < len(p.seen) {
			p.seen[fa.Slot] = true
			if !clean {
				p.bad[fa.Slot] = true
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
		p.access(v.Addr, false, &v.Chk)
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
		p.access(v.Addr, v.Barrier, &v.Chk)
		p.expr(v.Val)
	case *ir.IncDec:
		p.access(v.Addr, v.Barrier, &v.ChkR, &v.ChkW)
	case *ir.Compound:
		p.access(v.Addr, v.Barrier, &v.ChkR, &v.ChkW)
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
		// scastAt operates on the cell in memory; everything it mentions
		// must stay in the frame.
		p.badAll(v.Addr)
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
