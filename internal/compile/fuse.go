package compile

// The fuse pass: collapses the linear access protocol into superinstructions.
//
// The three-instruction access window
//
//	FYield (addr check + count + yield)  [FChk* (sharing-mode check)]  FLoad/FStore
//
// is semantically one unit, and dispatching it as three instructions is
// pure interpreter overhead — on the Table-1 workloads the yield/load/store
// trio is ~half of all dispatches. The pass rewrites each window into one
// FLoadAcc/FLoadChk/FStoreAcc/FStoreChk whose VM handler runs the exact
// same protocol in the exact same order, so reports, stats, and recorded
// schedule traces are unchanged.
//
// A window is fused only when it is intact: the instructions must be
// adjacent on the same address register, no FBarrier may sit in it (the
// barrier sequence stays decomposed; it is rare), and no jump may target
// its interior (a target at the FYield itself is fine — the fused
// instruction keeps that pc).

import "repro/internal/ir"

// fuseAccesses rewrites every function's intact access windows into
// superinstructions.
func fuseAccesses(p *ir.Program) {
	for _, ff := range p.Flat.Funcs {
		fuseFunc(ff)
	}
}

func isChk(op ir.Op) bool {
	return op == ir.FChkRead || op == ir.FChkWrite || op == ir.FChkLock || op == ir.FChkElided
}

func fuseFunc(ff *ir.FlatFunc) {
	n := len(ff.Code)
	// Jump-target set: a fused window must not be entered mid-way.
	tgt := make([]bool, n+1)
	for i := range ff.Code {
		if t := ff.Code[i].Target(); t != nil {
			tgt[*t] = true
		}
	}
	changed := false
	for i := 0; i < n; i++ {
		in := &ff.Code[i]
		if in.Op != ir.FYield {
			continue
		}
		j := i + 1
		if j >= n || tgt[j] {
			continue
		}
		chkIdx := int32(-1)
		if isChk(ff.Code[j].Op) {
			if ff.Code[j].A != in.A {
				continue
			}
			chkIdx = ff.Code[j].B
			j++
			if j >= n || tgt[j] {
				continue
			}
		}
		end := &ff.Code[j]
		var fused ir.Instr
		switch end.Op {
		case ir.FLoad:
			if end.B != in.A {
				continue
			}
			if chkIdx >= 0 {
				fused = ir.Instr{Op: ir.FLoadChk, A: end.A, B: in.A, C: chkIdx, Imm: in.Imm}
			} else {
				fused = ir.Instr{Op: ir.FLoadAcc, A: end.A, B: in.A, C: end.C, Imm: in.Imm}
			}
		case ir.FStore:
			if end.A != in.A {
				continue
			}
			if chkIdx >= 0 {
				fused = ir.Instr{Op: ir.FStoreChk, A: in.A, B: end.B, C: chkIdx, Imm: in.Imm}
			} else {
				fused = ir.Instr{Op: ir.FStoreAcc, A: in.A, B: end.B, C: end.C, Imm: in.Imm}
			}
		default:
			continue
		}
		ff.Code[i] = fused
		for m := i + 1; m <= j; m++ {
			ff.Code[m].Op = ir.FNop
		}
		changed = true
		i = j
	}
	if changed {
		compactFlat(ff)
	}
}
