package ir

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/token"
)

func TestEncodeDecodeFunc(t *testing.T) {
	for _, idx := range []int{0, 1, 7, 1000} {
		v := EncodeFunc(idx)
		if v >= 0 {
			t.Errorf("encoded function %d must be negative, got %d", idx, v)
		}
		if got := DecodeFunc(v); got != idx {
			t.Errorf("round trip %d -> %d -> %d", idx, v, got)
		}
	}
}

func TestDecodeFuncRejectsAddresses(t *testing.T) {
	// Data addresses are non-negative; they must not decode as functions.
	for _, v := range []int64{0, 1, 42, 1 << 30} {
		if DecodeFunc(v) != -1 {
			t.Errorf("address %d decoded as a function", v)
		}
	}
}

func TestCheckZeroValueIsNone(t *testing.T) {
	var c Check
	if c.Kind != CheckNone {
		t.Error("zero check must be CheckNone")
	}
}

// ---------------------------------------------------------------------------
// flat form

// flatFixture hand-builds a two-function program whose flat form exercises
// every instruction class and side table, and passes the verifier.
func flatFixture() (*Program, *FlatProgram) {
	pos := token.Pos{File: "t.shc", Line: 3, Col: 1}
	p := &Program{
		Funcs: []*Func{
			{Name: "main", FrameSize: 2},
			{Name: "f", FrameSize: 1, NumParams: 1},
		},
		Strings: []string{"hello"},
		Sites:   []Site{{LValue: "g", Pos: pos}},
	}
	main := &FlatFunc{
		NumRegs: 3,
		Code: []Instr{
			{Op: FConst, A: 0, Imm: 5},
			{Op: FStr, A: 1, B: 0},
			{Op: FFrame, A: 1, B: 1},
			{Op: FFunc, A: 1, B: 1},
			{Op: FMove, A: 2, B: 0},
			{Op: FAdd, A: 2, B: 0, C: 1},
			{Op: FDiv, A: 2, B: 0, C: 1, Imm: 1},
			{Op: FJmpZ, A: 2, B: 9},
			{Op: FJmp, A: 9},
			{Op: FYield, A: 0, Imm: 0},
			{Op: FChkRead, A: 0, B: 0},
			{Op: FLoad, A: 1, B: 0, C: 0},
			{Op: FStore, A: 0, B: 1, C: 0, Imm: -1},
			{Op: FBarrier, A: 0, B: 1},
			{Op: FScast, A: 1, B: 0, C: 0},
			{Op: FCall, A: 1, B: 0},
			{Op: FCString, A: 0, B: 0, C: 0},
			{Op: FBuiltin, A: 1, B: 0},
			{Op: FRet, A: 1},
		},
		PosTab: []token.Pos{{}, pos},
		Checks: []FlatCheck{{Orig: &Check{Kind: CheckDynamic, Site: 0}}},
		Calls:  []CallInfo{{Target: 1, Args: []int32{0}, Pos: pos}},
		Builtins: []BuiltinInfo{{
			E: &BuiltinCall{
				Name:      "strlen",
				ArgChecks: []Check{{Kind: CheckDynamic, Site: 0}},
				ArgAccess: []Access{AccessRead},
				Pos:       pos,
			},
			Args: []int32{0},
		}},
		Scasts: []*Scast{{
			ChkR:    Check{Kind: CheckDynamic, Site: 0},
			ChkW:    Check{Kind: CheckDynamic, Site: 0},
			Barrier: true, Pos: pos, TargetDesc: "int dynamic *",
		}},
	}
	callee := &FlatFunc{
		NumRegs: 2,
		Code: []Instr{
			{Op: FConst, A: 0},
			{Op: FLoadAcc, A: 1, B: 0, C: 0, Imm: 0},
			{Op: FStoreChk, A: 0, B: 1, C: 0, Imm: 0},
			{Op: FRet, A: 0, Imm: 1},
		},
		PosTab: []token.Pos{{}},
		Checks: []FlatCheck{{Orig: &Check{Kind: CheckElided, Site: 0}, Write: true}},
	}
	return p, &FlatProgram{Funcs: []*FlatFunc{main, callee}}
}

func TestFlatVerifyAcceptsFixture(t *testing.T) {
	p, fp := flatFixture()
	if err := fp.Verify(p); err != nil {
		t.Fatalf("fixture must verify: %v", err)
	}
	// The lock-expression shape lowering emits for a Member chain such as
	// d->m: loads and constant-offset adds over a frame slot.
	fp.Funcs[0].Checks[0].Orig = &Check{Kind: CheckLocked, Site: 0, Lock: &Load{
		Addr: &Bin{Op: OpAdd, L: &Load{Addr: &FrameAddr{Slot: 0}}, R: &Const{V: 1}},
	}}
	if err := fp.Verify(p); err != nil {
		t.Fatalf("member-chain lock expression must verify: %v", err)
	}
}

// TestFlatVerifyRejects mutates the fixture one invariant at a time; every
// mutation must be caught, with the diagnostic naming the failure.
func TestFlatVerifyRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *Program, fp *FlatProgram)
		want string
	}{
		{"func count mismatch", func(p *Program, fp *FlatProgram) {
			fp.Funcs = fp.Funcs[:1]
		}, "flat program has 1 funcs"},
		{"empty code", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Code = nil
		}, "empty code"},
		{"missing trailing ret", func(p *Program, fp *FlatProgram) {
			c := fp.Funcs[1].Code
			c[len(c)-1].Op = FNop
		}, "does not end in ret"},
		{"unknown opcode", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[0].Op = opCount
		}, "unknown opcode"},
		{"dest register out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[0].A = 3
		}, "register 3 out of range"},
		{"negative register", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[4].B = -1
		}, "register -1 out of range"},
		{"jump target past end", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[8].A = int32(len(fp.Funcs[0].Code))
		}, "jump target"},
		{"negative jump target", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[7].B = -2
		}, "jump target"},
		{"string index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[1].B = 9
		}, "string index"},
		{"frame slot out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[2].B = 2
		}, "frame slot"},
		{"function index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[3].B = 2
		}, "function index"},
		{"div position out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[6].Imm = 7
		}, "position index"},
		{"yield position out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[9].Imm = -1
		}, "position index"},
		{"check index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[10].B = 1
		}, "check index"},
		{"check with nil Orig", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Checks[0].Orig = nil
		}, "nil Orig"},
		{"check site out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Checks[0].Orig = &Check{Kind: CheckDynamic, Site: 5}
		}, "check site"},
		{"store kill out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[12].Imm = 0 // Kills table is empty
		}, "kill index"},
		{"scast index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[14].C = 1
		}, "scast index"},
		{"call index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[15].B = 3
		}, "call index"},
		{"call target out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Calls[0].Target = 2
		}, "call target"},
		{"indirect call bad fnreg", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Calls[0].Target = -1
			fp.Funcs[0].Calls[0].FnReg = 5
		}, "register 5 out of range"},
		{"call arg register out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Calls[0].Args[0] = 4
		}, "register 4 out of range"},
		{"builtin index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[17].B = 2
		}, "builtin index"},
		{"builtin nil call node", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[16].Op = FNop // skip the FCString, which trips first
			fp.Funcs[0].Builtins[0].E = nil
		}, "nil call node"},
		{"cstring arg index out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Code[16].C = 1
		}, "cstring arg index"},
		{"kill marker out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Code[0] = Instr{Op: FKill, Imm: 0} // Kills table is empty
		}, "kill index"},
		{"fused load check out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Code[1] = Instr{Op: FLoadChk, A: 1, B: 0, C: 3}
		}, "check index"},
		{"fused store site out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Code[2] = Instr{Op: FStoreAcc, A: 0, B: 1, C: 5}
		}, "check site"},
		{"fused load position out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Code[1].Imm = -1
		}, "position index"},
		{"fused store check nil Orig", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Checks[0].Orig = nil
		}, "nil Orig"},
		{"event pc out of range", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Events = []ElideEvent{{PC: int32(len(fp.Funcs[0].Code)) + 1}}
		}, "elide event pc"},
		{"unknown event op", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Events = []ElideEvent{{PC: 0, Op: EvStartEmpty + 1}}
		}, "unknown elide event"},
		{"lock expression is a call", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Checks[0].Orig = &Check{Kind: CheckLocked, Site: 0, Lock: &Call{Target: 1}}
		}, "lock expression node *ir.Call"},
		{"builtin arg lock loads through a call", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Builtins[0].E.ArgChecks[0] = Check{Kind: CheckLocked, Site: 0, Lock: &Load{Addr: &Call{Target: 1}}}
		}, "builtin 0 arg 0"},
		{"lock offset is not an add", func(p *Program, fp *FlatProgram) {
			fp.Funcs[0].Scasts[0].ChkR = Check{Kind: CheckLocked, Site: 0, Lock: &Bin{Op: OpMul, L: &Const{V: 2}, R: &Const{V: 3}}}
		}, "lock expression node *ir.Bin"},
		{"locked check without lock", func(p *Program, fp *FlatProgram) {
			fp.Funcs[1].Checks[0].Orig = &Check{Kind: CheckLocked, Site: 0}
		}, "no lock expression"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, fp := flatFixture()
			tc.mut(p, fp)
			err := fp.Verify(p)
			if err == nil {
				t.Fatal("verifier accepted the broken program")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFlatEncodeDecodeRoundTrip: the binary form reproduces the executable
// skeleton exactly. The fixture carries only encoded state (no elision
// keys, kills, or events), so structural equality is exact.
func TestFlatEncodeDecodeRoundTrip(t *testing.T) {
	_, fp := flatFixture()
	data := EncodeFlat(fp)
	got, err := DecodeFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp, got) {
		t.Fatalf("round trip diverged:\nencoded: %+v\ndecoded: %+v", fp, got)
	}
	// Re-encoding the decoded program is byte-identical (canonical form).
	if again := EncodeFlat(got); string(again) != string(data) {
		t.Fatal("re-encoding the decoded program produced different bytes")
	}
}

// TestFlatDecodeRejectsCorrupt: corrupt inputs fail with an error instead
// of a panic or a silently wrong program.
func TestFlatDecodeRejectsCorrupt(t *testing.T) {
	_, fp := flatFixture()
	good := EncodeFlat(fp)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("not a flat program")},
		{"truncated", good[:len(good)/2]},
		{"trailing bytes", append(append([]byte{}, good...), 0x00)},
	}
	// Unknown opcode: the first instruction's opcode byte follows the
	// magic, func count, NumRegs, and code length varints.
	bad := append([]byte{}, good...)
	badOp := len(flatMagic) + 3
	bad[badOp] = byte(opCount) + 1
	cases = append(cases, struct {
		name string
		data []byte
	}{"unknown opcode", bad})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeFlat(tc.data); err == nil {
				t.Fatal("decoder accepted corrupt input")
			}
		})
	}
}

// TestFlatOpStrings: every defined opcode has a name, and out-of-range
// values render without panicking.
func TestFlatOpStrings(t *testing.T) {
	for op := FNop; op < opCount; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", int(op))
		}
	}
	if s := opCount.String(); !strings.HasPrefix(s, "op(") {
		t.Errorf("sentinel rendered as %q", s)
	}
}
