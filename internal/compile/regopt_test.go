package compile

import (
	"reflect"
	"testing"

	"repro/internal/ir"
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
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FMove, A: 1, B: 0},
		{Op: ir.FConst, A: 0, Imm: 5},
		{Op: ir.FAdd, A: 2, B: 1, C: 0},
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
	runRegopt(t, ff, []ir.Instr{
		{Op: ir.FConst, A: 1, Imm: 7},
		{Op: ir.FAdd, A: 2, B: 1, C: 0},
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
