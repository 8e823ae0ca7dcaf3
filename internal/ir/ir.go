// Package ir defines the instrumented intermediate representation that
// internal/compile lowers ShC programs into and internal/interp executes.
//
// The IR is a small typed tree over a flat cell memory: every scalar value
// is one int64 cell; pointers are cell addresses (0 is NULL); functions are
// referenced by negative encoded indexes so function pointers and data
// pointers cannot collide. Runtime checks — the product of SharC's static
// analysis — are attached to loads and stores as Check values: dynamic
// accesses carry a report site for the shadow memory, locked accesses carry
// the compiled lock-address expression, and stores of tracked pointer slots
// carry a reference-counting barrier flag.
package ir

import (
	"repro/internal/token"
)

// CheckKind says which runtime check guards an access.
type CheckKind int

const (
	CheckNone    CheckKind = iota
	CheckDynamic           // reader/writer-set check in shadow memory
	CheckLocked            // required lock must be in the thread's lock log
	CheckElided            // check static discharge proved unnecessary; the
	// site index survives so telemetry can attribute the avoided work
)

// Check is the runtime guard attached to one access site.
type Check struct {
	Kind CheckKind
	Site int  // index into Program.Sites (for reports)
	Lock Expr // CheckLocked: evaluates to the lock address
}

// Site is a static access site used in race reports.
type Site struct {
	LValue string
	Pos    token.Pos
}

// Access summarizes how a builtin touches a pointer argument's referent.
type Access int

const (
	AccessNone Access = iota
	AccessRead
	AccessWrite
	AccessReadWrite
)

// ---------------------------------------------------------------------------
// expressions

// Expr is the interface of IR expressions; evaluation yields an int64.
type Expr interface{ irExpr() }

// Const is an integer or resolved-address constant.
type Const struct{ V int64 }

// StrAddr is the address of interned string literal Idx, resolved when the
// program is laid out.
type StrAddr struct{ Idx int }

// FrameAddr is the address of a frame slot of the current function.
type FrameAddr struct{ Slot int }

// FuncVal is the encoded value of a function used as a pointer.
type FuncVal struct{ Index int }

// Load reads one cell.
type Load struct {
	Addr Expr
	Chk  Check
}

// OpKind enumerates the arithmetic/comparison operators.
type OpKind int

const (
	OpAdd OpKind = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// Bin is a strict binary operation.
type Bin struct {
	Op   OpKind
	L, R Expr
	Pos  token.Pos // for divide-by-zero reports
}

// Logic is short-circuit && / ||.
type Logic struct {
	Or   bool
	L, R Expr
}

// Un is negation, logical not, or bitwise complement.
type Un struct {
	Op UnOp
	X  Expr
}

// UnOp enumerates unary operators.
type UnOp int

const (
	UnNeg UnOp = iota
	UnNot
	UnBitNot
)

// CondE is the ternary operator.
type CondE struct{ C, T, F Expr }

// Store writes Val to Addr and yields the stored value. Barrier requests a
// reference-counting write barrier (the slot statically holds a tracked
// pointer).
type Store struct {
	Addr    Expr
	Val     Expr
	Chk     Check
	Barrier bool
}

// IncDec is ++/-- on an l-value; the address is evaluated once. Delta is
// scaled for pointer arithmetic by the compiler.
type IncDec struct {
	Addr    Expr
	Delta   int64
	Post    bool // yield the old value
	ChkR    Check
	ChkW    Check
	Barrier bool
}

// Compound is a compound assignment (+=, <<=, ...); the address is
// evaluated once. The RHS is pre-scaled for pointer arithmetic.
type Compound struct {
	Op      OpKind
	Addr    Expr
	RHS     Expr
	ChkR    Check
	ChkW    Check
	Barrier bool
	Pos     token.Pos
}

// Call invokes a user function (by index) or, when Fn is non-nil, an
// indirect target.
type Call struct {
	Target int // function index; -1 for indirect
	Fn     Expr
	Args   []Expr
	Pos    token.Pos
}

// BuiltinCall invokes a runtime builtin. ArgChecks carries, per argument,
// the check the builtin must apply to referent cells it touches (the §4.4
// read/write summaries instantiated for the actual's sharing mode).
type BuiltinCall struct {
	Name      string
	Args      []Expr
	ArgChecks []Check
	ArgAccess []Access
	Pos       token.Pos
}

// Scast is a sharing cast of the l-value at Addr: load the value, null the
// slot (with the slot's own check and barrier), verify the reference count
// is at most one, clear the object's reader/writer sets, and yield the
// value.
type Scast struct {
	Addr    Expr
	ChkR    Check
	ChkW    Check
	Barrier bool
	Pos     token.Pos
	// TargetDesc renders the cast's target type for error reports.
	TargetDesc string
}

func (*Const) irExpr()       {}
func (*StrAddr) irExpr()     {}
func (*FrameAddr) irExpr()   {}
func (*FuncVal) irExpr()     {}
func (*Load) irExpr()        {}
func (*Bin) irExpr()         {}
func (*Logic) irExpr()       {}
func (*Un) irExpr()          {}
func (*CondE) irExpr()       {}
func (*Store) irExpr()       {}
func (*IncDec) irExpr()      {}
func (*Compound) irExpr()    {}
func (*Call) irExpr()        {}
func (*BuiltinCall) irExpr() {}
func (*Scast) irExpr()       {}

// ---------------------------------------------------------------------------
// statements

// Stmt is the interface of IR statements.
type Stmt interface{ irStmt() }

// SExpr evaluates an expression for effect.
type SExpr struct{ E Expr }

// SIf is a conditional.
type SIf struct {
	C          Expr
	Then, Else []Stmt
}

// SLoop is the unified loop: while (Cond) { Body; Post }. continue jumps to
// Post; break exits. PostFirst makes it a do-while (body runs before the
// first condition test).
type SLoop struct {
	Cond      Expr // nil = true
	Body      []Stmt
	Post      Expr // nil = none
	PostFirst bool
}

// SReturn returns from the function.
type SReturn struct{ E Expr } // E nil for void

// SBreak exits the innermost loop or switch.
type SBreak struct{}

// SContinue continues the innermost loop.
type SContinue struct{}

// SSwitch evaluates X and runs Arms starting at the matching value's arm
// (or Default), with C fallthrough semantics.
type SSwitch struct {
	X      Expr
	Values []int64 // per arm; ignored for the default arm
	IsDflt []bool
	Arms   [][]Stmt
}

func (*SExpr) irStmt()     {}
func (*SIf) irStmt()       {}
func (*SLoop) irStmt()     {}
func (*SReturn) irStmt()   {}
func (*SBreak) irStmt()    {}
func (*SContinue) irStmt() {}
func (*SSwitch) irStmt()   {}

// ---------------------------------------------------------------------------
// program

// Func is one compiled function.
type Func struct {
	Name      string
	NumParams int
	FrameSize int // cells, including params
	// ParamSlots[i] is the frame offset of parameter i (always i under the
	// current layout, but kept explicit).
	ParamSlots []int
	// RCPtrSlots are frame offsets of every reference-counted pointer cell
	// (including pointer fields of local aggregates); they are nulled with
	// barriers when the frame dies.
	RCPtrSlots []int
	// RCSlotSet is RCPtrSlots as a FrameSize-length membership table.
	RCSlotSet []bool
	Body      []Stmt
	Pos       token.Pos
}

// GlobalInit is one constant-initialized global cell.
type GlobalInit struct {
	Addr int64
	Val  Expr // Const or StrAddr
}

// ElisionStats summarizes static check removal: how many dynamic and
// locked check sites the lowering compiled, and how many the whole-program
// vet analysis discharged outright at lowering time (those never become
// dynamic or locked checks at all, so they are counted separately and are
// not part of TotalDynamic/TotalLocked).
type ElisionStats struct {
	TotalDynamic int // dynamic check sites compiled
	TotalLocked  int // locked check sites compiled

	// DischargedDynamic/DischargedLocked count check sites proven safe by
	// the whole-program points-to + lockset analysis (internal/vet) and
	// compiled directly as elided.
	DischargedDynamic int
	DischargedLocked  int

	// DischargedAbsint counts dynamic check sites proven safe by the
	// abstract-interpretation layer (internal/absint) — the flow- and
	// context-sensitive tier staged after the lockset pass. Disjoint from
	// DischargedDynamic: a site is attributed to exactly one tier.
	DischargedAbsint int
}

// Discharged returns the total number of checks vet discharged statically,
// across all provenance tiers (lockset/points-to and absint).
func (s ElisionStats) Discharged() int {
	return s.DischargedDynamic + s.DischargedLocked + s.DischargedAbsint
}

// AvoidedFraction is the fraction of would-be checks discharged
// statically: discharged / (total + discharged). The denominator adds the
// discharged sites back because discharged checks are excluded from
// TotalDynamic/TotalLocked.
func (s ElisionStats) AvoidedFraction() float64 {
	den := s.TotalDynamic + s.TotalLocked + s.Discharged()
	if den == 0 {
		return 0
	}
	return float64(s.Discharged()) / float64(den)
}

// DischargeSet is the output of the whole-program vet analysis consumed by
// the compiler: source positions of l-values whose dynamic (reader/writer
// set) or locked (lock log) checks are statically proven unnecessary. The
// compiler mints CheckElided at these positions instead of a real check.
type DischargeSet struct {
	Dynamic map[token.Pos]bool
	Locked  map[token.Pos]bool

	// Provenance names the analysis tier that proved each position safe
	// ("absint" for the abstract-interpretation layer; positions absent
	// from the map default to the lockset/points-to tier). The compiler
	// uses it to attribute discharged checks to the right ElisionStats
	// counter.
	Provenance map[token.Pos]string
}

// ProvenanceOf returns the tier that discharged pos ("vet" when unrecorded).
func (d *DischargeSet) ProvenanceOf(pos token.Pos) string {
	if d == nil || d.Provenance == nil {
		return "vet"
	}
	if p, ok := d.Provenance[pos]; ok {
		return p
	}
	return "vet"
}

// Empty reports whether the set discharges nothing.
func (d *DischargeSet) Empty() bool {
	return d == nil || (len(d.Dynamic) == 0 && len(d.Locked) == 0)
}

// Program is a complete lowered ShC program.
type Program struct {
	Funcs      []*Func
	FuncIdx    map[string]int
	Main       int
	Globals    map[string]int64 // name -> base address (diagnostics)
	GlobalSize int64            // cells [1, GlobalSize] hold globals
	Strings    []string         // interned string literals
	StringAddr []int64          // filled at layout: base address per string
	StaticSize int64            // first free cell after globals+strings
	Inits      []GlobalInit
	Sites      []Site

	// RCTracked reports whether any sharing cast exists: if not, no write
	// barriers are needed at all.
	RCTracked bool

	// Elision holds the lowering's check-site counts.
	Elision ElisionStats

	// Flat is the linear instruction form of Funcs, attached by the
	// linearize pass; the register VM executes it. Nil only for hand-built
	// programs that never went through the pass pipeline, which cannot
	// run.
	Flat *FlatProgram
}

// EncodeFunc converts a function index into a pointer-distinguishable value.
func EncodeFunc(idx int) int64 { return -int64(idx) - 1 }

// DecodeFunc converts an encoded function value back into an index, or -1.
func DecodeFunc(v int64) int {
	if v >= 0 {
		return -1
	}
	return int(-v - 1)
}
