package compile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/token"
)

// runRegopt runs the pass over a hand-built function and compares the
// resulting code with want.
func runRegopt(t *testing.T, ff *ir.FlatFunc, want []ir.Instr) {
	t.Helper()
	var s regScratch
	s.run(ff)
	if !reflect.DeepEqual(ff.Code, want) {
		t.Fatalf("regopt result:\n got: %v\nwant: %v", ff.Code, want)
	}
}

func TestRegoptFoldsMoveIntoDefinition(t *testing.T) {
	// A promoted local's update, r1 = r0 + r0, through the temporary r2;
	// r1 is read only in the next block, so the copy cannot replace it.
	ff := &ir.FlatFunc{NumRegs: 3, Code: []ir.Instr{
		{Op: ir.FMove, A: 2, B: 0},
		{Op: ir.FAdd, A: 2, B: 2, C: 0},
		{Op: ir.FMove, A: 1, B: 2},
		{Op: ir.FJmpZ, A: 0, B: 0},
		{Op: ir.FRet, A: 1},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FAdd, A: 1, B: 0, C: 0},
		{Op: ir.FJmpZ, A: 0, B: 0},
		{Op: ir.FRet, A: 1},
	})
}

func TestRegoptCopyKilledBySourceRedefinition(t *testing.T) {
	// After r0 is overwritten, r1 still holds r0's old value: the add
	// must keep reading r1.
	ff := &ir.FlatFunc{NumRegs: 3, Code: []ir.Instr{
		{Op: ir.FMove, A: 1, B: 0},
		{Op: ir.FConst, A: 0, Imm: 5},
		{Op: ir.FAdd, A: 2, B: 1, C: 0},
		{Op: ir.FRet, A: 2},
	}}
	// The constant then dies at the add, and the pair fuses.
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FMove, A: 1, B: 0},
		{Op: ir.FAddImm, A: 2, B: 1, Imm: 5},
		{Op: ir.FRet, A: 2},
	})
}

func TestRegoptCopyKilledByDestinationRedefinition(t *testing.T) {
	ff := &ir.FlatFunc{NumRegs: 3, Code: []ir.Instr{
		{Op: ir.FMove, A: 1, B: 0},
		{Op: ir.FConst, A: 1, Imm: 7},
		{Op: ir.FAdd, A: 2, B: 1, C: 0},
		{Op: ir.FRet, A: 2},
	}}
	// r1 holds 7, not r0, at the add: the constant fuses into it.
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FAddImm, A: 2, B: 0, Imm: 7},
		{Op: ir.FRet, A: 2},
	})
}

func TestRegoptNoPropagationAcrossJumpTarget(t *testing.T) {
	// The add is reached both after the move and straight from the
	// jump, where r1 still holds its initial value: reading r0 there
	// would be wrong.
	code := []ir.Instr{
		{Op: ir.FJmpNZ, A: 0, B: 2},
		{Op: ir.FMove, A: 1, B: 0},
		{Op: ir.FAdd, A: 2, B: 1, C: 1},
		{Op: ir.FRet, A: 2},
	}
	ff := &ir.FlatFunc{NumRegs: 3, Code: append([]ir.Instr(nil), code...)}
	runRegopt(t, ff, code)
}

func TestRegoptKeepsDeadDivMod(t *testing.T) {
	// A dead divide or modulo can still fail, so it stays with its
	// operands; a dead add does not.
	code := []ir.Instr{
		{Op: ir.FConst, A: 0, Imm: 6},
		{Op: ir.FConst, A: 1, Imm: 0},
		{Op: ir.FDiv, A: 2, B: 0, C: 1, Imm: 0},
		{Op: ir.FMod, A: 2, B: 0, C: 1, Imm: 0},
		{Op: ir.FAdd, A: 2, B: 0, C: 1},
		{Op: ir.FConst, A: 3, Imm: 0},
		{Op: ir.FRet, A: 3},
	}
	ff := &ir.FlatFunc{NumRegs: 4, Code: code}
	runRegopt(t, ff, []ir.Instr{code[0], code[1], code[2], code[3], code[5], code[6]})
}

func TestRegoptRewritesCallAndBuiltinArgs(t *testing.T) {
	ff := &ir.FlatFunc{
		NumRegs: 8,
		Code: []ir.Instr{
			{Op: ir.FMove, A: 1, B: 0},
			{Op: ir.FCall, A: 2, B: 0},
			{Op: ir.FFunc, A: 6, B: 0},
			{Op: ir.FMove, A: 5, B: 6},
			{Op: ir.FMove, A: 3, B: 0},
			{Op: ir.FCall, A: 7, B: 1},
			{Op: ir.FMove, A: 4, B: 2},
			{Op: ir.FBuiltin, A: 2, B: 0},
			{Op: ir.FRet, A: 2},
		},
		Calls: []ir.CallInfo{
			{Target: 0, FnReg: -1, Args: []int32{1}},
			{Target: -1, FnReg: 5, Args: []int32{3}},
		},
		Builtins: []ir.BuiltinInfo{{Args: []int32{4, 1}}},
	}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FCall, A: 2, B: 0},
		{Op: ir.FFunc, A: 6, B: 0},
		{Op: ir.FCall, A: 7, B: 1},
		{Op: ir.FBuiltin, A: 2, B: 0},
		{Op: ir.FRet, A: 2},
	})
	if got := ff.Calls[0].Args; !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("direct call args = %v, want [0]", got)
	}
	if got := ff.Calls[1]; got.FnReg != 6 || !reflect.DeepEqual(got.Args, []int32{0}) {
		t.Errorf("indirect call fnreg %d args %v, want 6 [0]", got.FnReg, got.Args)
	}
	if got := ff.Builtins[0].Args; !reflect.DeepEqual(got, []int32{2, 0}) {
		t.Errorf("builtin args = %v, want [2 0]", got)
	}
}

func TestRegoptDeletesImplicitReturnInput(t *testing.T) {
	// The fall-off-the-end return (Imm=1) yields the thread's return
	// slot and reads no register, so the zero constant feeding it dies.
	ff := &ir.FlatFunc{NumRegs: 1, Code: []ir.Instr{
		{Op: ir.FConst, A: 0, Imm: 3},
		{Op: ir.FRet, A: 0},
		{Op: ir.FConst, A: 0, Imm: 0},
		{Op: ir.FRet, A: 0, Imm: 1},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FConst, A: 0, Imm: 3},
		{Op: ir.FRet, A: 0},
		{Op: ir.FRet, A: 0, Imm: 1},
	})
}

func TestRegoptNoFoldIntoJumpTarget(t *testing.T) {
	// The move is entered from the jump with r1 = 5 as well as after the
	// add: folding the move into the add would lose the jump's value.
	code := []ir.Instr{
		{Op: ir.FConst, A: 1, Imm: 5},
		{Op: ir.FJmpZ, A: 0, B: 3},
		{Op: ir.FAdd, A: 1, B: 0, C: 0},
		{Op: ir.FMove, A: 2, B: 1},
		{Op: ir.FJmp, A: 5},
		{Op: ir.FRet, A: 2},
	}
	ff := &ir.FlatFunc{NumRegs: 3, Code: append([]ir.Instr(nil), code...)}
	runRegopt(t, ff, code)
}

func TestRegoptLivenessAcrossLoop(t *testing.T) {
	// r1 is read on the loop's next trip, so the add writing it is live
	// even though nothing after it in its block reads r1; the dead
	// compare result r3 is deleted.
	ff := &ir.FlatFunc{NumRegs: 4, Code: []ir.Instr{
		{Op: ir.FConst, A: 2, Imm: 1},
		{Op: ir.FLt, A: 3, B: 1, C: 2},
		{Op: ir.FJmpZ, A: 0, B: 5},
		{Op: ir.FAdd, A: 1, B: 1, C: 2},
		{Op: ir.FJmp, A: 1},
		{Op: ir.FRet, A: 1},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FConst, A: 2, Imm: 1},
		{Op: ir.FJmpZ, A: 0, B: 4},
		{Op: ir.FAdd, A: 1, B: 1, C: 2},
		{Op: ir.FJmp, A: 1},
		{Op: ir.FRet, A: 1},
	})
}

func TestRegoptFusesPairs(t *testing.T) {
	// Each pair's intermediate register r2 dies at the pair, or is the
	// pair's own destination.
	ff := &ir.FlatFunc{NumRegs: 4, Code: []ir.Instr{
		{Op: ir.FFrame, A: 2, B: 3},
		{Op: ir.FLoadAcc, A: 2, B: 2, C: 7, Imm: 1},
		{Op: ir.FConst, A: 3, Imm: 4},
		{Op: ir.FAdd, A: 1, B: 3, C: 2},
		{Op: ir.FConst, A: 3, Imm: 9},
		{Op: ir.FSub, A: 1, B: 1, C: 3},
		{Op: ir.FLt, A: 2, B: 1, C: 0},
		{Op: ir.FJmpZ, A: 2, B: 10},
		{Op: ir.FEq, A: 2, B: 0, C: 1},
		{Op: ir.FJmpNZ, A: 2, B: 0},
		{Op: ir.FRet, A: 1},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FLoadFrame, A: 2, B: 3, C: 7, Imm: 1},
		{Op: ir.FAddImm, A: 1, B: 2, Imm: 4},
		{Op: ir.FAddImm, A: 1, B: 1, Imm: -9},
		{Op: ir.FBrGe, A: 1, B: 0, C: 5},
		{Op: ir.FBrEq, A: 0, B: 1, C: 0},
		{Op: ir.FRet, A: 1},
	})
}

func TestRegoptFusesSetNZIntoBranchChain(t *testing.T) {
	// The setnz pair fuses first; the branch it leaves reads the compare
	// result, which fuses in turn.
	ff := &ir.FlatFunc{NumRegs: 4, Code: []ir.Instr{
		{Op: ir.FGt, A: 2, B: 0, C: 1},
		{Op: ir.FSetNZ, A: 3, B: 2},
		{Op: ir.FJmpZ, A: 3, B: 0},
		{Op: ir.FRet, A: 0},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FBrLe, A: 0, B: 1, C: 0},
		{Op: ir.FRet, A: 0},
	})
}

func TestRegoptKeepsUnfusablePairs(t *testing.T) {
	// r2 is read after the add, the compare result is read after the
	// branch, and the load after the frame address is a jump target; the
	// subtraction of MinInt64 has no separate absint reading as -k.
	code := []ir.Instr{
		{Op: ir.FConst, A: 2, Imm: 1},
		{Op: ir.FAdd, A: 1, B: 0, C: 2},
		{Op: ir.FLt, A: 3, B: 1, C: 2},
		{Op: ir.FJmpZ, A: 3, B: 5},
		{Op: ir.FFrame, A: 2, B: 0},
		{Op: ir.FLoadAcc, A: 2, B: 2},
		{Op: ir.FConst, A: 2, Imm: math.MinInt64},
		{Op: ir.FSub, A: 1, B: 1, C: 2},
		{Op: ir.FAdd, A: 1, B: 1, C: 3},
		{Op: ir.FRet, A: 1},
	}
	ff := &ir.FlatFunc{NumRegs: 4, Code: append([]ir.Instr(nil), code...)}
	runRegopt(t, ff, code)
}

func TestRegoptFusesIndexedAccessesAndImmediates(t *testing.T) {
	// Each add's and constant's result r3 dies at the instruction that
	// consumes it.
	ff := &ir.FlatFunc{NumRegs: 4, Code: []ir.Instr{
		{Op: ir.FAdd, A: 3, B: 0, C: 1},
		{Op: ir.FLoadAcc, A: 2, B: 3, C: 4, Imm: 1},
		{Op: ir.FAdd, A: 3, B: 1, C: 2},
		{Op: ir.FLoadChk, A: 2, B: 3, C: 0, Imm: 2},
		{Op: ir.FAdd, A: 3, B: 0, C: 2},
		{Op: ir.FStoreAcc, A: 3, B: 1, C: 5, Imm: 3},
		{Op: ir.FConst, A: 3, Imm: 6},
		{Op: ir.FMul, A: 2, B: 3, C: 1},
		{Op: ir.FConst, A: 3, Imm: -6},
		{Op: ir.FMul, A: 2, B: 2, C: 3},
		{Op: ir.FConst, A: 3, Imm: 7},
		{Op: ir.FMod, A: 2, B: 2, C: 3, Imm: 1},
		{Op: ir.FConst, A: 3, Imm: 65},
		{Op: ir.FShr, A: 2, B: 2, C: 3},
		{Op: ir.FRet, A: 2},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FLoadIdx, A: 2, B: 0, C: 1, Imm: ir.PackImm(4, 1)},
		{Op: ir.FLoadChkIdx, A: 2, B: 1, C: 2, Imm: ir.PackImm(0, 2)},
		{Op: ir.FStoreIdx, A: 0, B: 1, C: 2, Imm: ir.PackImm(5, 3)},
		{Op: ir.FMulImm, A: 2, B: 1, Imm: 6},
		{Op: ir.FMulImm, A: 2, B: 2, Imm: -6},
		{Op: ir.FModImm, A: 2, B: 2, Imm: 7},
		{Op: ir.FShrImm, A: 2, B: 2, Imm: 1},
		{Op: ir.FRet, A: 2},
	})
}

func TestRegoptKeepsUnfusableIndexedAndImmPairs(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []ir.Instr
	}{
		{"modulo by a constant 0 still fails", []ir.Instr{
			{Op: ir.FConst, A: 2, Imm: 0},
			{Op: ir.FMod, A: 1, B: 0, C: 2, Imm: 0},
			{Op: ir.FRet, A: 1},
		}},
		{"the address is read again", []ir.Instr{
			{Op: ir.FAdd, A: 2, B: 0, C: 1},
			{Op: ir.FLoadAcc, A: 1, B: 2},
			{Op: ir.FAdd, A: 1, B: 1, C: 2},
			{Op: ir.FRet, A: 1},
		}},
		{"the stored value is the address", []ir.Instr{
			{Op: ir.FAdd, A: 2, B: 0, C: 1},
			{Op: ir.FStoreAcc, A: 2, B: 2},
			{Op: ir.FRet, A: 1},
		}},
		{"the constant is the dividend", []ir.Instr{
			{Op: ir.FConst, A: 2, Imm: 9},
			{Op: ir.FMod, A: 1, B: 2, C: 0, Imm: 0},
			{Op: ir.FConst, A: 2, Imm: 3},
			{Op: ir.FShr, A: 1, B: 2, C: 1},
			{Op: ir.FRet, A: 1},
		}},
		{"the constant is both operands", []ir.Instr{
			{Op: ir.FConst, A: 2, Imm: 3},
			{Op: ir.FMul, A: 1, B: 2, C: 2},
			{Op: ir.FRet, A: 1},
		}},
		{"the access is a jump target", []ir.Instr{
			{Op: ir.FJmpZ, A: 0, B: 2},
			{Op: ir.FAdd, A: 2, B: 0, C: 1},
			{Op: ir.FLoadAcc, A: 1, B: 2},
			{Op: ir.FRet, A: 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ff := &ir.FlatFunc{NumRegs: 3, Code: append([]ir.Instr(nil), tc.code...)}
			runRegopt(t, ff, tc.code)
		})
	}
}

func TestRegoptFusesConstIntoBranch(t *testing.T) {
	// The constant is the right operand of the first comparison and the
	// left of the second, which swaps; each forms once its compare and
	// jump have fused.
	ff := &ir.FlatFunc{NumRegs: 3, Code: []ir.Instr{
		{Op: ir.FConst, A: 1, Imm: 10},
		{Op: ir.FLt, A: 1, B: 0, C: 1},
		{Op: ir.FJmpZ, A: 1, B: 6},
		{Op: ir.FConst, A: 2, Imm: 3},
		{Op: ir.FLt, A: 2, B: 2, C: 0},
		{Op: ir.FJmpNZ, A: 2, B: 0},
		{Op: ir.FRet, A: 0},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FBrGeImm, A: 0, B: 2, Imm: 10},
		{Op: ir.FBrGtImm, A: 0, B: 0, Imm: 3},
		{Op: ir.FRet, A: 0},
	})
	// A constant still read after the branch stays.
	code := []ir.Instr{
		{Op: ir.FConst, A: 1, Imm: 10},
		{Op: ir.FLt, A: 2, B: 0, C: 1},
		{Op: ir.FJmpZ, A: 2, B: 3},
		{Op: ir.FRet, A: 1},
	}
	runRegopt(t, &ir.FlatFunc{NumRegs: 3, Code: append([]ir.Instr(nil), code...)}, []ir.Instr{
		code[0],
		{Op: ir.FBrGe, A: 0, B: 1, C: 2},
		code[3],
	})
}

func TestRegoptReusesValuesInExtendedBlock(t *testing.T) {
	// r0 + r1 is computed three times: the second time in the block the
	// branch falls through to, which reuses r2; the third time at a jump
	// target, which recomputes it.
	ff := &ir.FlatFunc{NumRegs: 5, Code: []ir.Instr{
		{Op: ir.FAdd, A: 2, B: 0, C: 1},
		{Op: ir.FJmpZ, A: 2, B: 4},
		{Op: ir.FAdd, A: 3, B: 1, C: 0},
		{Op: ir.FRet, A: 3},
		{Op: ir.FAdd, A: 4, B: 0, C: 1},
		{Op: ir.FRet, A: 4},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FAdd, A: 2, B: 0, C: 1},
		{Op: ir.FJmpZ, A: 2, B: 3},
		{Op: ir.FRet, A: 2},
		{Op: ir.FAdd, A: 4, B: 0, C: 1},
		{Op: ir.FRet, A: 4},
	})
	if ff.NumRegs != 5 {
		t.Fatalf("NumRegs = %d, want 5: no fresh register was needed", ff.NumRegs)
	}
}

func TestRegoptReusesOverwrittenValueThroughFreshRegister(t *testing.T) {
	// r2 = r0 * r1 is overwritten by r2 / r1 in its own block, then
	// recomputed: the first product moves to the fresh register r4, and
	// the division reads it there. The second division repeats the
	// first, whose quotient r2 still holds.
	ff := &ir.FlatFunc{NumRegs: 4, PosTab: make([]token.Pos, 2), Code: []ir.Instr{
		{Op: ir.FMul, A: 2, B: 0, C: 1},
		{Op: ir.FDiv, A: 2, B: 2, C: 1, Imm: 1},
		{Op: ir.FMul, A: 3, B: 0, C: 1},
		{Op: ir.FDiv, A: 3, B: 3, C: 1, Imm: 1},
		{Op: ir.FAdd, A: 3, B: 3, C: 2},
		{Op: ir.FRet, A: 3},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FMul, A: 4, B: 0, C: 1},
		{Op: ir.FDiv, A: 2, B: 4, C: 1, Imm: 1},
		{Op: ir.FAdd, A: 3, B: 2, C: 2},
		{Op: ir.FRet, A: 3},
	})
	if ff.NumRegs != 5 {
		t.Fatalf("NumRegs = %d, want 5", ff.NumRegs)
	}
}

func TestRegoptKeepsUnrelatedEntryValuesApart(t *testing.T) {
	// r1 and r0 are both first read inside the block, with a value
	// numbered in between: their unknown contents must number apart, so
	// r0 + r0 is not taken for r1 + r1.
	ff := &ir.FlatFunc{NumRegs: 4, Code: []ir.Instr{
		{Op: ir.FAdd, A: 2, B: 1, C: 1},
		{Op: ir.FAdd, A: 3, B: 0, C: 0},
		{Op: ir.FRet, A: 3},
	}}
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FAdd, A: 3, B: 0, C: 0},
		{Op: ir.FRet, A: 3},
	})
}

// evalFlat runs straight-line-or-forward-branching pure code from the
// given registers and returns what it returns: enough of the VM for
// TestRegoptRandomPureCode.
func evalFlat(t *testing.T, ff *ir.FlatFunc, init []int64) int64 {
	t.Helper()
	regs := make([]int64, max(ff.NumRegs, len(init)))
	copy(regs, init)
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for pc := 0; pc < len(ff.Code); pc++ {
		in := ff.Code[pc]
		a, b, c := &regs[0], int64(0), int64(0)
		if in.Op.Regs().A == ir.RegDef {
			a = &regs[in.A]
		}
		if in.Op.Regs().B == ir.RegUse {
			b = regs[in.B]
		}
		if in.Op.Regs().C == ir.RegUse {
			c = regs[in.C]
		}
		switch in.Op {
		case ir.FConst:
			*a = in.Imm
		case ir.FMove:
			*a = b
		case ir.FAdd:
			*a = b + c
		case ir.FSub:
			*a = b - c
		case ir.FMul:
			*a = b * c
		case ir.FXor:
			*a = b ^ c
		case ir.FLt:
			*a = b2i(b < c)
		case ir.FEq:
			*a = b2i(b == c)
		case ir.FNeg:
			*a = -b
		case ir.FNot:
			*a = b2i(b == 0)
		case ir.FAddImm:
			*a = b + in.Imm
		case ir.FMulImm:
			*a = b * in.Imm
		case ir.FJmp:
			pc = int(in.A) - 1
		case ir.FJmpZ, ir.FJmpNZ:
			if (regs[in.A] == 0) == (in.Op == ir.FJmpZ) {
				pc = int(in.B) - 1
			}
		case ir.FBrEq, ir.FBrNe, ir.FBrLt, ir.FBrLe, ir.FBrGt, ir.FBrGe,
			ir.FBrEqImm, ir.FBrNeImm, ir.FBrLtImm, ir.FBrLeImm, ir.FBrGtImm, ir.FBrGeImm:
			x, y := regs[in.A], in.Imm
			if in.Op.IsBranchRR() {
				y = regs[in.B]
			}
			var holds bool
			switch in.Op.BranchCmp() {
			case ir.FEq:
				holds = x == y
			case ir.FNe:
				holds = x != y
			case ir.FLt:
				holds = x < y
			case ir.FLe:
				holds = x <= y
			case ir.FGt:
				holds = x > y
			case ir.FGe:
				holds = x >= y
			}
			if holds {
				pc = int(*in.Target()) - 1
			}
		case ir.FRet:
			return regs[in.A]
		default:
			t.Fatalf("evalFlat: opcode %v", in.Op)
		}
	}
	t.Fatal("evalFlat: fell off the end")
	return 0
}

// TestRegoptRandomPureCode: regopt's copy propagation, value reuse,
// deletion and fusion must keep what random pure code with forward
// branches returns, from random register contents.
func TestRegoptRandomPureCode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ops := []ir.Op{ir.FConst, ir.FMove, ir.FAdd, ir.FSub, ir.FMul, ir.FXor, ir.FLt, ir.FEq, ir.FNeg, ir.FNot, ir.FAddImm, ir.FMulImm}
	const nregs = 6
	fresh := 0 // programs that took a fresh register
	for prog := 0; prog < 2000; prog++ {
		n := 4 + rng.Intn(24)
		code := make([]ir.Instr, 0, n+1)
		reg := func() int32 { return int32(rng.Intn(nregs)) }
		for pc := 0; pc < n; pc++ {
			if pc > 0 && pc < n-1 && rng.Intn(6) == 0 {
				op := []ir.Op{ir.FJmpZ, ir.FJmpNZ, ir.FJmp}[rng.Intn(3)]
				tgt := int32(pc + 1 + rng.Intn(n-pc))
				if op == ir.FJmp {
					code = append(code, ir.Instr{Op: op, A: tgt})
				} else {
					code = append(code, ir.Instr{Op: op, A: reg(), B: tgt})
				}
				continue
			}
			op := ops[rng.Intn(len(ops))]
			code = append(code, ir.Instr{Op: op, A: reg(), B: reg(), C: reg(), Imm: int64(rng.Intn(5))})
			if op == ir.FConst || op.Regs().C != ir.RegUse {
				code[len(code)-1].C = 0
			}
			if op == ir.FConst {
				code[len(code)-1].B = 0
			}
		}
		code = append(code, ir.Instr{Op: ir.FRet, A: reg()})
		orig := &ir.FlatFunc{NumRegs: nregs, Code: code}
		opt := &ir.FlatFunc{NumRegs: nregs, Code: append([]ir.Instr(nil), code...)}
		var s regScratch
		s.run(opt)
		if opt.NumRegs > nregs {
			fresh++
		}
		for trial := 0; trial < 4; trial++ {
			init := make([]int64, nregs)
			for i := range init {
				init[i] = int64(rng.Intn(7) - 3)
			}
			if want, got := evalFlat(t, orig, init), evalFlat(t, opt, init); got != want {
				t.Fatalf("program %d from %v: regopt changed the result %d to %d\n before: %v\n after:  %v",
					prog, init, want, got, code, opt.Code)
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no program reused a value through a fresh register")
	}
}
