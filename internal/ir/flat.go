// Flat (linear) form of the IR: a dense, array-encoded instruction stream
// over frame-relative virtual registers. internal/compile lowers every
// function's statement tree into this form (the linearize pass), the pass
// pipeline rewrites it (barrier stripping, access fusion, register
// cleanup), and the register VM in
// internal/interp dispatches over it. OpRegs describes each opcode's
// register operands once, for the verifier and for passes that track
// registers.
//
// The linearize pass emits instructions in the runtime's evaluation order
// (the contract is stated in internal/compile/linearize.go), and the
// access protocol is decomposed into explicit instructions —
// FYield (bounds check + access count + scheduler yield point), FChk*
// (the sharing-mode check), FBarrier (the reference-counting write
// barrier), and FLoad/FStore (the observed raw memory operation) — so
// passes can move or fuse them without consulting the tree.
//
// Side tables (Checks, Calls, Builtins, Scasts) keep the parts of an
// instruction that do not fit three int32 operands; FlatCheck.Orig points
// at the tree's own Check node.
package ir

import (
	"fmt"

	"repro/internal/token"
)

// Op is a flat-form opcode. The names carry an F prefix because the tree
// IR already claims OpAdd..OpGe for its operator kinds.
type Op uint8

const (
	FNop Op = iota

	// Values. A = destination register throughout.
	FConst // A <- Imm
	FStr   // A <- address of string literal B
	FFrame // A <- address of frame slot B
	FFunc  // A <- encoded value of function B
	FMove  // A <- B

	// Arithmetic and comparison: A <- B op C. The block is dense and
	// parallel to OpKind so lowering is FAdd + Op. Imm holds the position
	// table index used by divide/modulo failure reports.
	FAdd
	FSub
	FMul
	FDiv
	FMod
	FAnd
	FOr
	FXor
	FShl
	FShr
	FEq
	FNe
	FLt
	FLe
	FGt
	FGe

	// Unary: A <- op B.
	FNeg
	FNot
	FBitNot
	FSetNZ // A <- (B != 0)

	// Control flow. Targets are instruction indexes.
	FJmp      // pc <- A
	FJmpZ     // if A == 0: pc <- B
	FJmpNZ    // if A != 0: pc <- B
	FJmpEqImm // if A == Imm: pc <- B

	// The access protocol, decomposed. FYield validates the address in
	// register A (null / bounds), counts the access, and gives the
	// deterministic scheduler its yield point; Imm indexes PosTab for the
	// failure report. The FChk* group applies check B (index into Checks)
	// to the address in A; FChkElided keeps the site attribution of a
	// check static discharge proved unnecessary. FLoad/FStore perform the
	// observed raw memory operation; C is the access's report-site index.
	// FBarrier is the explicit reference-counting
	// write barrier (old value at [A] is decremented, new value B
	// incremented); the RC-site pass deletes it when the program tracks no
	// casts.
	FYield
	FChkRead   // dynamic read check
	FChkWrite  // dynamic write check
	FChkLock   // locked-mode check
	FChkElided // statically discharged check (telemetry attribution only)
	FLoad      // A <- mem[B], site C
	FStore     // mem[A] <- B, site C
	FBarrier   // RC barrier for mem[A] <- B

	// Compound operations that keep their tree node in a side table: the
	// sharing cast and calls.
	FScast   // A <- scast of mem[B], Scasts[C]
	FCall    // A <- call Calls[B]
	FBuiltin // A <- builtin Builtins[B]
	// FCString reads the NUL-terminated string at the address in register
	// A (with Builtins[B].E.ArgChecks[C]) onto the thread's string stack
	// as soon as that argument is evaluated, before later arguments, for
	// print/strlen/strcmp/strstr.
	FCString

	// FRet returns the value in A. Imm != 0 marks the implicit
	// fall-off-the-end return, which yields the thread's return slot
	// instead: the value of the most recently completed call in this
	// activation, 0 if none.
	FRet

	// Fused access superinstructions (the fuse pass): the linear access
	// protocol FYield + [FChk*] + FLoad/FStore collapsed into one dispatch
	// when no barrier or jump target splits the window. The *Acc forms
	// carry the access's report-site index in C (check-free accesses); the
	// *Chk forms index Checks in C and take their site from the check.
	// Imm is the PosTab index for the bounds-failure report in all four.
	FLoadAcc  // A <- mem[B], site C, pos Imm
	FLoadChk  // A <- mem[B], check Checks[C], pos Imm
	FStoreAcc // mem[A] <- B, site C, pos Imm
	FStoreChk // mem[A] <- B, check Checks[C], pos Imm

	// Superinstructions the regopt pass forms from adjacent pairs whose
	// intermediate register dies at the pair. FLoadFrame is FFrame +
	// FLoadAcc: the access protocol of FLoadAcc on the address of frame
	// slot B. FAddImm is FConst + FAdd (or FSub, with Imm negated).
	FLoadFrame // A <- mem[frame+B], site C, pos Imm
	FAddImm    // A <- B + Imm

	// Compare-and-branch: if A op B holds, pc <- C. The block is
	// dense and parallel to FEq..FGe, so a comparison maps to its branch
	// as FBrEq + (op - FEq).
	FBrEq // if A == B: pc <- C
	FBrNe // if A != B: pc <- C
	FBrLt // if A < B: pc <- C
	FBrLe // if A <= B: pc <- C
	FBrGt // if A > B: pc <- C
	FBrGe // if A >= B: pc <- C

	opCount // sentinel
)

// NumOps is the number of defined opcodes: every Op below it is known.
const NumOps = int(opCount)

var opNames = [...]string{
	FNop: "nop", FConst: "const", FStr: "str", FFrame: "frame", FFunc: "func",
	FMove: "move",
	FAdd:  "add", FSub: "sub", FMul: "mul", FDiv: "div", FMod: "mod",
	FAnd: "and", FOr: "or", FXor: "xor", FShl: "shl", FShr: "shr",
	FEq: "eq", FNe: "ne", FLt: "lt", FLe: "le", FGt: "gt", FGe: "ge",
	FNeg: "neg", FNot: "not", FBitNot: "bitnot", FSetNZ: "setnz",
	FJmp: "jmp", FJmpZ: "jmpz", FJmpNZ: "jmpnz", FJmpEqImm: "jmpeq",
	FYield: "yield", FChkRead: "chkread", FChkWrite: "chkwrite",
	FChkLock: "chklock", FChkElided: "chkelided",
	FLoad: "load", FStore: "store", FBarrier: "rcbarrier",
	FScast: "scast", FCall: "call", FBuiltin: "builtin", FCString: "cstring",
	FRet:     "ret",
	FLoadAcc: "loadacc", FLoadChk: "loadchk",
	FStoreAcc: "storeacc", FStoreChk: "storechk",
	FLoadFrame: "loadframe", FAddImm: "addimm",
	FBrEq: "breq", FBrNe: "brne", FBrLt: "brlt", FBrLe: "brle", FBrGt: "brgt", FBrGe: "brge",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// RegRole says whether an instruction field names a register, and how the
// instruction uses it.
type RegRole uint8

const (
	RegNone RegRole = iota // an index, a jump target, or unused
	RegUse                 // a register the instruction reads
	RegDef                 // the register the instruction writes
)

// OpRegs describes the register operands of one opcode. Every instruction
// reads its operands before it writes its destination.
type OpRegs struct {
	A, B, C RegRole
	// SideArgs: the instruction also reads the argument registers of its
	// side-table entry: Calls[B].Args (and FnReg for an indirect call) for
	// FCall, Builtins[B].Args for FBuiltin.
	SideArgs bool
	// Pure: writing A is the instruction's only effect, so it can be
	// deleted when A is dead. Divide and modulo can fail; loads, checks,
	// calls, builtins and casts have effects.
	Pure bool
}

var (
	pureDef = OpRegs{A: RegDef, Pure: true}
	pureUn  = OpRegs{A: RegDef, B: RegUse, Pure: true}
	pureBin = OpRegs{A: RegDef, B: RegUse, C: RegUse, Pure: true}
	useA    = OpRegs{A: RegUse}
	useAB   = OpRegs{A: RegUse, B: RegUse}
	defAuse = OpRegs{A: RegDef, B: RegUse}
)

// opRegs is the one description of every opcode's register operands; the
// verifier's range checks and the regopt pass both read it.
var opRegs = [opCount]OpRegs{
	FConst: pureDef, FStr: pureDef, FFrame: pureDef, FFunc: pureDef,
	FMove: pureUn,
	FAdd:  pureBin, FSub: pureBin, FMul: pureBin,
	FDiv: {A: RegDef, B: RegUse, C: RegUse}, FMod: {A: RegDef, B: RegUse, C: RegUse},
	FAnd: pureBin, FOr: pureBin, FXor: pureBin, FShl: pureBin, FShr: pureBin,
	FEq: pureBin, FNe: pureBin, FLt: pureBin, FLe: pureBin, FGt: pureBin, FGe: pureBin,
	FNeg: pureUn, FNot: pureUn, FBitNot: pureUn, FSetNZ: pureUn,
	FJmpZ: useA, FJmpNZ: useA, FJmpEqImm: useA,
	FYield: useA, FChkRead: useA, FChkWrite: useA, FChkLock: useA, FChkElided: useA,
	FLoad: defAuse, FStore: useAB, FBarrier: useAB,
	FScast:   defAuse,
	FCall:    {A: RegDef, SideArgs: true},
	FBuiltin: {A: RegDef, SideArgs: true},
	FCString: useA,
	FRet:     useA,
	FLoadAcc: defAuse, FLoadChk: defAuse, FStoreAcc: useAB, FStoreChk: useAB,
	FLoadFrame: {A: RegDef}, FAddImm: pureUn,
	FBrEq: useAB, FBrNe: useAB, FBrLt: useAB, FBrLe: useAB, FBrGt: useAB, FBrGe: useAB,
}

// Regs returns the register operands of opcode o, which must be known.
func (o Op) Regs() OpRegs { return opRegs[o] }

// IsCmp reports whether o is one of the comparisons FEq..FGe.
func (o Op) IsCmp() bool { return o >= FEq && o <= FGe }

// Branch returns the compare-and-branch opcode that jumps when comparison
// o holds; o must satisfy IsCmp.
func (o Op) Branch() Op { return FBrEq + (o - FEq) }

// BranchCmp returns the comparison a compare-and-branch opcode tests.
func (o Op) BranchCmp() Op { return FEq + (o - FBrEq) }

// NegateCmp returns the comparison that holds exactly when comparison o
// does not.
func (o Op) NegateCmp() Op {
	switch o {
	case FEq:
		return FNe
	case FNe:
		return FEq
	case FLt:
		return FGe
	case FLe:
		return FGt
	case FGt:
		return FLe
	}
	return FLt // FGe
}

// Target returns a pointer to the jump target operand of in, or nil when in
// does not jump. It is the one list of branch opcodes: passes that mark
// block leaders or remap targets go through it.
func (in *Instr) Target() *int32 {
	switch in.Op {
	case FJmp:
		return &in.A
	case FJmpZ, FJmpNZ, FJmpEqImm:
		return &in.B
	case FBrEq, FBrNe, FBrLt, FBrLe, FBrGt, FBrGe:
		return &in.C
	}
	return nil
}

// VisitUses calls f with a pointer to every register operand in reads, its
// side-table argument registers included, so a pass can rename them in
// place. The implicit return (FRet with Imm != 0) reads no register.
func (ff *FlatFunc) VisitUses(in *Instr, f func(r *int32)) {
	rs := &opRegs[in.Op]
	if rs.A == RegUse && (in.Op != FRet || in.Imm == 0) {
		f(&in.A)
	}
	if rs.B == RegUse {
		f(&in.B)
	}
	if rs.C == RegUse {
		f(&in.C)
	}
	if rs.SideArgs {
		args, fnReg := ff.sideArgs(in)
		for i := range args {
			f(&args[i])
		}
		if fnReg != nil {
			f(fnReg)
		}
	}
}

// sideArgs returns the argument registers of the side-table entry of an
// FCall or FBuiltin, and for an indirect call its function register.
func (ff *FlatFunc) sideArgs(in *Instr) (args []int32, fnReg *int32) {
	if in.Op == FBuiltin {
		return ff.Builtins[in.B].Args, nil
	}
	ci := &ff.Calls[in.B]
	if ci.Target < 0 {
		return ci.Args, &ci.FnReg
	}
	return ci.Args, nil
}

// Instr is one flat instruction: an opcode, three register/index operands,
// and a wide immediate.
type Instr struct {
	Op      Op
	A, B, C int32
	Imm     int64
}

// FlatCheck is the side-table entry behind an FChk* instruction.
type FlatCheck struct {
	// Orig points at the check node shared with the tree form.
	Orig *Check
	// Write marks the check of a store. FChkLock does not say which
	// access it guards, so the VM and absint read it here.
	Write bool
}

// CallInfo is the side-table entry behind FCall.
type CallInfo struct {
	Target int     // function index; -1 for indirect through FnReg
	FnReg  int32   // register holding the encoded function value
	Args   []int32 // registers holding argument values, in order
	Pos    token.Pos
}

// BuiltinInfo is the side-table entry behind FBuiltin and FCString.
type BuiltinInfo struct {
	E    *BuiltinCall
	Args []int32 // registers holding argument values, in order
}

// FlatFunc is one function in flat form.
type FlatFunc struct {
	Code    []Instr
	NumRegs int // virtual registers used by Code

	// ParamRegs[i] is the register parameter i lives in for the whole
	// call, or -1 when the parameter stays in its frame slot. The VM
	// seeds each such register with the argument on entry.
	ParamRegs []int32

	Checks   []FlatCheck
	Calls    []CallInfo
	Builtins []BuiltinInfo
	Scasts   []*Scast

	// PosTab interns source positions referenced by Instr.Imm on FYield
	// and arithmetic opcodes. Index 0 is always the zero position.
	PosTab []token.Pos
}

// FlatProgram holds the flat form of every function, parallel to
// Program.Funcs.
type FlatProgram struct {
	Funcs []*FlatFunc
}

// ---------------------------------------------------------------------------
// structural verifier

// Verify checks the structural invariants of the flat program against its
// owning Program: known opcodes, jump targets inside the function,
// register operands and parameter registers inside the frame,
// side-table/site indexes in range, and lock expressions the runtime can
// evaluate. The pass pipeline runs it after every pass so a miscompiled
// rewrite fails at build time instead of as a VM fault.
func (fp *FlatProgram) Verify(p *Program) error {
	if len(fp.Funcs) != len(p.Funcs) {
		return fmt.Errorf("flat program has %d funcs, tree has %d", len(fp.Funcs), len(p.Funcs))
	}
	for i, ff := range fp.Funcs {
		if err := ff.verify(p, p.Funcs[i]); err != nil {
			return fmt.Errorf("func %s: %v", p.Funcs[i].Name, err)
		}
	}
	return nil
}

func (ff *FlatFunc) verify(p *Program, fn *Func) error {
	n := int32(len(ff.Code))
	if n == 0 {
		return fmt.Errorf("empty code")
	}
	if ff.Code[n-1].Op != FRet {
		return fmt.Errorf("code does not end in ret")
	}
	if err := ff.verifyParamRegs(fn); err != nil {
		return err
	}
	// Registers compare unsigned, so a negative register is out of range.
	nregs := uint32(ff.NumRegs)
	regErr := func(pc int32, r int32) error {
		return fmt.Errorf("pc %d: register %d out of range [0,%d)", pc, r, ff.NumRegs)
	}
	target := func(pc int32, t int32) error {
		if t < 0 || t >= n {
			return fmt.Errorf("pc %d: jump target %d out of range [0,%d)", pc, t, n)
		}
		return nil
	}
	pos := func(pc int32, idx int64) error {
		if idx < 0 || int(idx) >= len(ff.PosTab) {
			return fmt.Errorf("pc %d: position index %d out of range [0,%d)", pc, idx, len(ff.PosTab))
		}
		return nil
	}
	checkSite := func(pc int32, site int) error {
		if site < 0 || site >= len(p.Sites) {
			return fmt.Errorf("pc %d: check site %d out of range [0,%d)", pc, site, len(p.Sites))
		}
		return nil
	}
	check := func(pc int32, idx int32) error {
		if idx < 0 || int(idx) >= len(ff.Checks) {
			return fmt.Errorf("pc %d: check index %d out of range", pc, idx)
		}
		c := ff.Checks[idx].Orig
		if c == nil {
			return fmt.Errorf("pc %d: check %d has nil Orig", pc, idx)
		}
		if c.Kind != CheckNone {
			return checkSite(pc, c.Site)
		}
		return nil
	}
	for pc := int32(0); pc < n; pc++ {
		in := &ff.Code[pc]
		if in.Op >= opCount {
			return fmt.Errorf("pc %d: unknown opcode %d", pc, int(in.Op))
		}
		rs := opRegs[in.Op]
		if rs.A != RegNone && uint32(in.A) >= nregs {
			return regErr(pc, in.A)
		}
		if rs.B != RegNone && uint32(in.B) >= nregs {
			return regErr(pc, in.B)
		}
		if rs.C != RegNone && uint32(in.C) >= nregs {
			return regErr(pc, in.C)
		}
		var err error
		if t := in.Target(); t != nil {
			if err = target(pc, *t); err != nil {
				return err
			}
			continue // a branch has no other index operand
		}
		switch in.Op {
		case FNop, FConst, FMove, FNeg, FNot, FBitNot, FSetNZ, FAddImm,
			FAdd, FSub, FMul, FAnd, FOr, FXor, FShl, FShr,
			FEq, FNe, FLt, FLe, FGt, FGe, FLoad, FStore, FBarrier, FRet:
		case FStr:
			if in.B < 0 || int(in.B) >= len(p.Strings) {
				err = fmt.Errorf("pc %d: string index %d out of range", pc, in.B)
			}
		case FFrame:
			if in.B < 0 || int(in.B) >= fn.FrameSize {
				err = fmt.Errorf("pc %d: frame slot %d out of range [0,%d)", pc, in.B, fn.FrameSize)
			}
		case FFunc:
			if in.B < 0 || int(in.B) >= len(p.Funcs) {
				err = fmt.Errorf("pc %d: function index %d out of range", pc, in.B)
			}
		case FDiv, FMod:
			err = pos(pc, in.Imm)
		case FYield:
			err = pos(pc, in.Imm)
		case FChkRead, FChkWrite, FChkLock, FChkElided:
			err = check(pc, in.B)
		case FScast:
			if in.C < 0 || int(in.C) >= len(ff.Scasts) {
				err = fmt.Errorf("pc %d: scast index %d out of range", pc, in.C)
			}
		case FCall:
			if in.B < 0 || int(in.B) >= len(ff.Calls) {
				err = fmt.Errorf("pc %d: call index %d out of range", pc, in.B)
			} else if ci := &ff.Calls[in.B]; ci.Target >= len(p.Funcs) {
				err = fmt.Errorf("pc %d: call target %d out of range", pc, ci.Target)
			}
		case FBuiltin:
			if in.B < 0 || int(in.B) >= len(ff.Builtins) {
				err = fmt.Errorf("pc %d: builtin index %d out of range", pc, in.B)
			} else if ff.Builtins[in.B].E == nil {
				err = fmt.Errorf("pc %d: builtin %d has nil call node", pc, in.B)
			}
		case FCString:
			if in.B < 0 || int(in.B) >= len(ff.Builtins) {
				err = fmt.Errorf("pc %d: builtin index %d out of range", pc, in.B)
			} else if bi := &ff.Builtins[in.B]; bi.E == nil ||
				in.C < 0 || int(in.C) >= len(bi.E.ArgChecks) {
				err = fmt.Errorf("pc %d: cstring arg index %d out of range", pc, in.C)
			}
		case FLoadAcc, FStoreAcc, FLoadFrame:
			if in.Op == FLoadFrame && (in.B < 0 || int(in.B) >= fn.FrameSize) {
				err = fmt.Errorf("pc %d: frame slot %d out of range [0,%d)", pc, in.B, fn.FrameSize)
				break
			}
			// Site 0 is the CheckNone default and is legal even in a
			// program with no interned sites (checks off).
			if in.C != 0 {
				err = checkSite(pc, int(in.C))
			}
			if err == nil {
				err = pos(pc, in.Imm)
			}
		case FLoadChk, FStoreChk:
			if err = check(pc, in.C); err == nil {
				err = pos(pc, in.Imm)
			}
		default:
			err = fmt.Errorf("pc %d: unhandled opcode %v", pc, in.Op)
		}
		if err == nil && rs.SideArgs {
			// The side-table entry is in range now: check its argument
			// registers too.
			args, fnReg := ff.sideArgs(in)
			for _, r := range args {
				if uint32(r) >= nregs {
					return regErr(pc, r)
				}
			}
			if fnReg != nil && uint32(*fnReg) >= nregs {
				return regErr(pc, *fnReg)
			}
		}
		if err != nil {
			return err
		}
	}
	for i := range ff.Checks {
		if c := ff.Checks[i].Orig; c != nil {
			if err := verifyLock(c); err != nil {
				return fmt.Errorf("check %d: %v", i, err)
			}
		}
	}
	for i := range ff.Builtins {
		if bi := &ff.Builtins[i]; bi.E != nil {
			for j := range bi.E.ArgChecks {
				if err := verifyLock(&bi.E.ArgChecks[j]); err != nil {
					return fmt.Errorf("builtin %d arg %d: %v", i, j, err)
				}
			}
		}
	}
	for i, sc := range ff.Scasts {
		if sc == nil {
			continue
		}
		for _, c := range []*Check{&sc.ChkR, &sc.ChkW} {
			if err := verifyLock(c); err != nil {
				return fmt.Errorf("scast %d: %v", i, err)
			}
		}
	}
	return nil
}

// verifyParamRegs checks the parameter register map: one entry per
// parameter, each -1 or a register of the frame, no register shared by two
// parameters.
func (ff *FlatFunc) verifyParamRegs(fn *Func) error {
	if len(ff.ParamRegs) != fn.NumParams {
		return fmt.Errorf("%d parameter registers for %d parameters", len(ff.ParamRegs), fn.NumParams)
	}
	for i, r := range ff.ParamRegs {
		if r == -1 {
			continue
		}
		if r < 0 || int(r) >= ff.NumRegs {
			return fmt.Errorf("parameter %d: register %d out of range [0,%d)", i, r, ff.NumRegs)
		}
		for j := range i {
			if ff.ParamRegs[j] == r {
				return fmt.Errorf("parameters %d and %d share register %d", j, i, r)
			}
		}
	}
	return nil
}

// verifyLock rejects a check whose lock expression the runtime's lock
// evaluator cannot run. A locked check needs a lock expression, and every
// lock expression must be address arithmetic over Const, FrameAddr, Load
// and Bin{OpAdd}: all that lowering emits for the Ident/Member chains the
// checker accepts as verifiably constant locks.
func verifyLock(c *Check) error {
	if c.Kind == CheckLocked && c.Lock == nil {
		return fmt.Errorf("locked check at site %d has no lock expression", c.Site)
	}
	if c.Lock == nil {
		return nil
	}
	if bad := badLockNode(c.Lock); bad != nil {
		return fmt.Errorf("site %d: lock expression node %T is outside the runtime lock evaluator", c.Site, bad)
	}
	return nil
}

// badLockNode returns the first node of lock expression e outside the lock
// evaluator's node set, or nil. A Load's own check is held to the same rule.
func badLockNode(e Expr) Expr {
	switch e := e.(type) {
	case *Const, *FrameAddr:
		return nil
	case *Load:
		if bad := badLockNode(e.Addr); bad != nil {
			return bad
		}
		if e.Chk.Lock != nil {
			return badLockNode(e.Chk.Lock)
		}
		return nil
	case *Bin:
		if e.Op != OpAdd {
			return e
		}
		if bad := badLockNode(e.L); bad != nil {
			return bad
		}
		return badLockNode(e.R)
	}
	return e
}
