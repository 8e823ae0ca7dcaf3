package compile

import (
	"reflect"
	"testing"

	"repro/internal/ir"
)

// runThread threads a hand-built one-function program and compares the
// resulting code with want.
func runThread(t *testing.T, code, want []ir.Instr) {
	t.Helper()
	ff := &ir.FlatFunc{NumRegs: 2, Code: append([]ir.Instr(nil), code...)}
	threadJumps(&ir.Program{Flat: &ir.FlatProgram{Funcs: []*ir.FlatFunc{ff}}})
	if !reflect.DeepEqual(ff.Code, want) {
		t.Fatalf("thread result:\n got: %v\nwant: %v", ff.Code, want)
	}
}

func TestThreadLoopBackEdges(t *testing.T) {
	// A while loop on a compare-and-branch and one on a plain jmpz: each
	// back-edge jmp becomes the negated branch into the body.
	runThread(t, []ir.Instr{
		{Op: ir.FBrGe, A: 0, B: 1, C: 3},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: 1},
		{Op: ir.FJmp, A: 0},
		{Op: ir.FJmpZ, A: 0, B: 6},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: -1},
		{Op: ir.FJmp, A: 3},
		{Op: ir.FRet, A: 0},
	}, []ir.Instr{
		{Op: ir.FBrGe, A: 0, B: 1, C: 3},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: 1},
		{Op: ir.FBrLt, A: 0, B: 1, C: 1},
		{Op: ir.FJmpZ, A: 0, B: 6},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: -1},
		{Op: ir.FJmpNZ, A: 0, B: 4},
		{Op: ir.FRet, A: 0},
	})
}

func TestThreadRotatedLoopEntries(t *testing.T) {
	// Two rotated loops, one tested by a compare-with-immediate branch and
	// one by jmpz: each entry jmp becomes the negated branch past the
	// loop.
	runThread(t, []ir.Instr{
		{Op: ir.FJmp, A: 2},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: 1},
		{Op: ir.FBrLtImm, A: 0, B: 1, Imm: 10},
		{Op: ir.FJmp, A: 5},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: -1},
		{Op: ir.FJmpZ, A: 0, B: 4},
		{Op: ir.FRet, A: 0},
	}, []ir.Instr{
		{Op: ir.FBrGeImm, A: 0, B: 3, Imm: 10},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: 1},
		{Op: ir.FBrLtImm, A: 0, B: 1, Imm: 10},
		{Op: ir.FJmpNZ, A: 0, B: 6},
		{Op: ir.FAddImm, A: 0, B: 0, Imm: -1},
		{Op: ir.FJmpZ, A: 0, B: 4},
		{Op: ir.FRet, A: 0},
	})
}

func TestThreadKeepsOtherJumps(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []ir.Instr
	}{
		{"the branch's taken target is not after the jump", []ir.Instr{
			{Op: ir.FBrLt, A: 0, B: 1, C: 4},
			{Op: ir.FAddImm, A: 0, B: 0, Imm: 1},
			{Op: ir.FJmp, A: 0},
			{Op: ir.FRet, A: 1},
			{Op: ir.FRet, A: 0},
		}},
		{"the target is not a branch", []ir.Instr{
			{Op: ir.FAddImm, A: 0, B: 0, Imm: 1},
			{Op: ir.FJmp, A: 0},
			{Op: ir.FRet, A: 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runThread(t, tc.code, tc.code) })
	}
}
