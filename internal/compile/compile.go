// Package compile lowers a checked ShC program to the instrumented IR.
//
// Lowering decides, per access site, which runtime check the access needs —
// from the sharing mode the checker resolved for the accessed l-value:
// dynamic storage gets reader/writer-set checks with an interned report
// site, locked storage gets a lock-log check carrying the compiled lock
// expression, and private/readonly/racy storage is access-check free.
// Stores whose static slot type is a tracked pointer get reference-counting
// write barriers; the §4.3 "RC site" analysis restricts tracked pointers to
// those whose referent shape can reach a sharing cast (void* included,
// since anything flows through it).
package compile

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/qualinfer"
	"repro/internal/token"
	"repro/internal/typer"
	"repro/internal/types"
)

// Options selects the instrumentation level, the knobs of the paper's
// evaluation and ablations.
type Options struct {
	// Checks enables dynamic/locked access checks; off gives the "Orig"
	// baseline the paper compares against.
	Checks bool
	// RC enables reference-counting write barriers (required for sound
	// sharing casts).
	RC bool
	// RCSiteAnalysis restricts barriers to pointers whose referent shape
	// may reach a sharing cast (§4.3's optimization); when false every
	// pointer store is barriered.
	RCSiteAnalysis bool
	// Discharge carries the whole-program vet verdicts: l-value positions
	// whose dynamic or locked checks are statically proven unnecessary.
	// The lowering mints CheckElided at these sites instead of a runtime
	// check (and, for locked sites, skips compiling the lock expression
	// entirely); the counts land in ir.Program.Elision.
	Discharge *ir.DischargeSet
}

// DefaultOptions enables full instrumentation with the site analysis.
func DefaultOptions() Options {
	return Options{Checks: true, RC: true, RCSiteAnalysis: true}
}

// Compile lowers a resolved, inferred, checked world. The checker must have
// passed: Compile assumes well-typed input and panics on impossibilities.
func Compile(w *types.World, inf *qualinfer.Result, opts Options) (*ir.Program, error) {
	return compileWith(w, inf, opts, pipeline())
}

// compileWith lowers the world and runs the given flat pass sequence.
func compileWith(w *types.World, inf *qualinfer.Result, opts Options, passes []Pass) (*ir.Program, error) {
	c := &compiler{
		w:    w,
		inf:  inf,
		s:    inf.Subst,
		opts: opts,
		prog: &ir.Program{
			FuncIdx: make(map[string]int),
			Globals: make(map[string]int64),
			Main:    -1,
		},
		strIdx: make(map[string]int),
	}
	c.collectScastShapes()
	c.layoutGlobals()
	if err := c.compileFuncs(); err != nil {
		return nil, err
	}
	c.layoutStrings()
	if c.prog.Main < 0 {
		return nil, fmt.Errorf("program has no main function")
	}
	if err := runPasses(c.prog, passes); err != nil {
		return nil, err
	}
	return c.prog, nil
}

type compiler struct {
	w    *types.World
	inf  *qualinfer.Result
	s    types.Subst
	opts Options
	prog *ir.Program

	strIdx map[string]int

	// scastShapes is the set of referent shape keys that may be subject to
	// a sharing cast.
	scastShapes map[string]bool

	// per-function state
	fi        *types.FuncInfo
	env       *typer.Env
	slots     map[*ast.DeclStmt]int
	paramSlot map[string]int
	frameSize int
	rcSlots   []int
}

// ---------------------------------------------------------------------------
// layout

func (c *compiler) layoutGlobals() {
	names := make([]string, 0, len(c.w.Globals))
	for name := range c.w.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	addr := int64(1) // cell 0 is NULL
	for _, name := range names {
		g := c.w.Globals[name]
		c.prog.Globals[name] = addr
		size := int64(c.w.SizeOf(g.Type))
		if g.Decl.Init != nil {
			c.prog.Inits = append(c.prog.Inits, ir.GlobalInit{
				Addr: addr,
				Val:  c.constInit(g.Decl.Init),
			})
		}
		addr += size
	}
	c.prog.GlobalSize = addr
}

func (c *compiler) constInit(e ast.Expr) ir.Expr {
	switch e := e.(type) {
	case *ast.IntLit:
		return &ir.Const{V: e.Value}
	case *ast.NullLit:
		return &ir.Const{V: 0}
	case *ast.StringLit:
		return &ir.StrAddr{Idx: c.internString(e.Value)}
	case *ast.Unary:
		if e.Op == token.MINUS {
			if inner, ok := c.constInit(e.X).(*ir.Const); ok {
				return &ir.Const{V: -inner.V}
			}
		}
	case *ast.Binary:
		l, lok := c.constInit(e.L).(*ir.Const)
		r, rok := c.constInit(e.R).(*ir.Const)
		if lok && rok {
			return &ir.Const{V: constFold(e.Op, l.V, r.V)}
		}
	}
	return &ir.Const{V: 0}
}

func constFold(op token.Kind, l, r int64) int64 {
	switch op {
	case token.PLUS:
		return l + r
	case token.MINUS:
		return l - r
	case token.STAR:
		return l * r
	case token.SLASH:
		if r != 0 {
			return l / r
		}
	case token.PERCENT:
		if r != 0 {
			return l % r
		}
	case token.SHL:
		return l << uint(r&63)
	case token.SHR:
		return l >> uint(r&63)
	case token.AMP:
		return l & r
	case token.PIPE:
		return l | r
	case token.CARET:
		return l ^ r
	}
	return 0
}

func (c *compiler) internString(s string) int {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := len(c.prog.Strings)
	c.prog.Strings = append(c.prog.Strings, s)
	c.strIdx[s] = i
	return i
}

// layoutStrings places string literals after the globals; each occupies
// len+1 cells (one char per cell, NUL-terminated).
func (c *compiler) layoutStrings() {
	addr := c.prog.GlobalSize
	c.prog.StringAddr = make([]int64, len(c.prog.Strings))
	for i, s := range c.prog.Strings {
		c.prog.StringAddr[i] = addr
		addr += int64(len(s)) + 1
	}
	c.prog.StaticSize = addr
}

// ---------------------------------------------------------------------------
// RC site analysis

func shapeKey(t *types.Type) string {
	if t == nil {
		return "?"
	}
	switch t.Kind {
	case types.KPtr:
		return "*" + shapeKey(t.Elem)
	case types.KStruct:
		return "s:" + t.StructName
	case types.KFunc:
		return "fn"
	default:
		return t.Kind.String()
	}
}

// collectScastShapes records the referent shapes of every sharing cast's
// source and target; only pointers to these shapes (plus void*) need write
// barriers.
func (c *compiler) collectScastShapes() {
	c.scastShapes = make(map[string]bool)
	for _, fi := range c.w.Funcs {
		if fi.Decl.Body == nil {
			continue
		}
		var walk func(s ast.Stmt)
		var walkE func(e ast.Expr)
		walkE = func(e ast.Expr) {
			if e == nil {
				return
			}
			if sc, ok := e.(*ast.Scast); ok {
				to := c.w.ResolveCastType(sc, sc.To)
				if to.Kind == types.KPtr {
					c.scastShapes[shapeKey(to.Elem)] = true
				}
				c.prog.RCTracked = true
			}
			switch e := e.(type) {
			case *ast.Unary:
				walkE(e.X)
			case *ast.Postfix:
				walkE(e.X)
			case *ast.Binary:
				walkE(e.L)
				walkE(e.R)
			case *ast.Assign:
				walkE(e.L)
				walkE(e.R)
			case *ast.Cond:
				walkE(e.C)
				walkE(e.T)
				walkE(e.F)
			case *ast.Call:
				walkE(e.Fun)
				for _, a := range e.Args {
					walkE(a)
				}
			case *ast.Index:
				walkE(e.X)
				walkE(e.I)
			case *ast.Member:
				walkE(e.X)
			case *ast.Cast:
				walkE(e.X)
			case *ast.Scast:
				walkE(e.X)
			}
		}
		walk = func(s ast.Stmt) {
			switch s := s.(type) {
			case *ast.Block:
				for _, st := range s.Stmts {
					walk(st)
				}
			case *ast.DeclStmt:
				walkE(s.Init)
			case *ast.ExprStmt:
				walkE(s.X)
			case *ast.If:
				walkE(s.Cond)
				walk(s.Then)
				if s.Else != nil {
					walk(s.Else)
				}
			case *ast.While:
				walkE(s.Cond)
				walk(s.Body)
			case *ast.DoWhile:
				walk(s.Body)
				walkE(s.Cond)
			case *ast.For:
				if s.Init != nil {
					walk(s.Init)
				}
				walkE(s.Cond)
				walkE(s.Post)
				walk(s.Body)
			case *ast.Return:
				walkE(s.X)
			case *ast.Switch:
				walkE(s.X)
				for _, cs := range s.Cases {
					for _, st := range cs.Body {
						walk(st)
					}
				}
			}
		}
		walk(fi.Decl.Body)
	}
}

// rcTracked reports whether stores to a slot of the given (pointer) type
// need write barriers.
func (c *compiler) rcTracked(slotType *types.Type) bool {
	if !c.opts.RC || !c.prog.RCTracked {
		return false
	}
	if slotType == nil || slotType.Kind != types.KPtr {
		return false
	}
	if !c.opts.RCSiteAnalysis {
		return true
	}
	if slotType.Elem.Kind == types.KVoid {
		return true // anything flows through void*
	}
	return c.scastShapes[shapeKey(slotType.Elem)]
}

// ---------------------------------------------------------------------------
// checks

func (c *compiler) site(lv string, pos token.Pos) int {
	c.prog.Sites = append(c.prog.Sites, ir.Site{LValue: lv, Pos: pos})
	return len(c.prog.Sites) - 1
}

// checkFor computes the runtime check guarding an access to storage of type
// t through l-value lv.
func (c *compiler) checkFor(t *types.Type, lv ast.Expr) ir.Check {
	if !c.opts.Checks {
		return ir.Check{}
	}
	m := c.s.Apply(t.Mode)
	switch m.Kind {
	case types.ModeDynamic:
		if c.opts.Discharge != nil && c.opts.Discharge.Dynamic[lv.Pos()] {
			if c.opts.Discharge.ProvenanceOf(lv.Pos()) == "absint" {
				c.prog.Elision.DischargedAbsint++
			} else {
				c.prog.Elision.DischargedDynamic++
			}
			return ir.Check{
				Kind: ir.CheckElided,
				Site: c.site(ast.ExprString(lv), lv.Pos()),
			}
		}
		c.prog.Elision.TotalDynamic++
		return ir.Check{
			Kind: ir.CheckDynamic,
			Site: c.site(ast.ExprString(lv), lv.Pos()),
		}
	case types.ModeLocked:
		if m.Lock == nil {
			return ir.Check{}
		}
		if c.opts.Discharge != nil && c.opts.Discharge.Locked[lv.Pos()] {
			c.prog.Elision.DischargedLocked++
			return ir.Check{
				Kind: ir.CheckElided,
				Site: c.site(ast.ExprString(lv), lv.Pos()),
			}
		}
		c.prog.Elision.TotalLocked++
		return ir.Check{
			Kind: ir.CheckLocked,
			Site: c.site(ast.ExprString(lv), lv.Pos()),
			Lock: c.value(m.Lock.Expr),
		}
	}
	return ir.Check{}
}

// ---------------------------------------------------------------------------
// functions

func (c *compiler) compileFuncs() error {
	names := make([]string, 0, len(c.w.Funcs))
	for name, fi := range c.w.Funcs {
		if fi.Decl.Body != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	// Assign indexes first so calls and function values resolve.
	for _, name := range names {
		c.prog.FuncIdx[name] = len(c.prog.Funcs)
		c.prog.Funcs = append(c.prog.Funcs, &ir.Func{Name: name})
		if name == "main" {
			c.prog.Main = len(c.prog.Funcs) - 1
		}
	}
	for _, name := range names {
		if err := c.compileFunc(c.w.Funcs[name], c.prog.Funcs[c.prog.FuncIdx[name]]); err != nil {
			return err
		}
	}
	return nil
}

type compileError struct {
	pos token.Pos
	msg string
}

func (e *compileError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

func (c *compiler) failf(pos token.Pos, format string, args ...any) {
	panic(&compileError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (c *compiler) compileFunc(fi *types.FuncInfo, out *ir.Func) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*compileError); ok {
				err = ce
				return
			}
			panic(r)
		}
	}()
	c.fi = fi
	c.env = typer.NewEnv(c.w, fi)
	c.slots = make(map[*ast.DeclStmt]int)
	c.paramSlot = make(map[string]int)
	c.frameSize = 0
	c.rcSlots = nil

	out.Pos = fi.Decl.P
	out.NumParams = len(fi.Params)
	for i, p := range fi.Params {
		slot := c.allocSlot(1)
		c.paramSlot[p.Name] = slot
		out.ParamSlots = append(out.ParamSlots, slot)
		if c.rcTracked(p.Type) {
			c.rcSlots = append(c.rcSlots, slot)
		}
		_ = i
	}
	out.Body = c.block(fi.Decl.Body)
	out.FrameSize = c.frameSize
	out.RCPtrSlots = c.rcSlots
	out.RCSlotSet = make([]bool, c.frameSize)
	for _, s := range c.rcSlots {
		out.RCSlotSet[s] = true
	}
	return nil
}

func (c *compiler) allocSlot(size int) int {
	s := c.frameSize
	c.frameSize += size
	return s
}

// rcCellsWithin appends the frame offsets of reference-counted pointer
// cells inside an aggregate local at base.
func (c *compiler) rcCellsWithin(t *types.Type, base int) {
	switch t.Kind {
	case types.KPtr:
		if c.rcTracked(t) {
			c.rcSlots = append(c.rcSlots, base)
		}
	case types.KStruct:
		si := c.w.Structs[t.StructName]
		if si == nil {
			return
		}
		for i := range si.Fields {
			c.rcCellsWithin(si.Fields[i].Type, base+si.Fields[i].Offset)
		}
	case types.KArray:
		es := c.w.SizeOf(t.Elem)
		n := t.Len
		for i := 0; i < n; i++ {
			c.rcCellsWithin(t.Elem, base+i*es)
		}
	}
}

// ---------------------------------------------------------------------------
// statements

func (c *compiler) block(b *ast.Block) []ir.Stmt {
	c.env.Push()
	defer c.env.Pop()
	var out []ir.Stmt
	for _, s := range b.Stmts {
		out = append(out, c.stmt(s)...)
	}
	return out
}

func (c *compiler) stmt(s ast.Stmt) []ir.Stmt {
	switch s := s.(type) {
	case *ast.Block:
		return c.block(s)
	case *ast.DeclStmt:
		return c.declStmt(s)
	case *ast.ExprStmt:
		return []ir.Stmt{&ir.SExpr{E: c.value(s.X)}}
	case *ast.If:
		node := &ir.SIf{C: c.value(s.Cond)}
		node.Then = c.stmtAsBlock(s.Then)
		if s.Else != nil {
			node.Else = c.stmtAsBlock(s.Else)
		}
		return []ir.Stmt{node}
	case *ast.While:
		return []ir.Stmt{&ir.SLoop{Cond: c.value(s.Cond), Body: c.stmtAsBlock(s.Body)}}
	case *ast.DoWhile:
		return []ir.Stmt{&ir.SLoop{Cond: c.value(s.Cond), Body: c.stmtAsBlock(s.Body), PostFirst: true}}
	case *ast.For:
		c.env.Push()
		defer c.env.Pop()
		var out []ir.Stmt
		if s.Init != nil {
			out = append(out, c.stmt(s.Init)...)
		}
		loop := &ir.SLoop{}
		if s.Cond != nil {
			loop.Cond = c.value(s.Cond)
		}
		loop.Body = c.stmtAsBlock(s.Body)
		if s.Post != nil {
			loop.Post = c.value(s.Post)
		}
		out = append(out, loop)
		return out
	case *ast.Return:
		if s.X != nil {
			return []ir.Stmt{&ir.SReturn{E: c.value(s.X)}}
		}
		return []ir.Stmt{&ir.SReturn{}}
	case *ast.Break:
		return []ir.Stmt{&ir.SBreak{}}
	case *ast.Continue:
		return []ir.Stmt{&ir.SContinue{}}
	case *ast.Switch:
		node := &ir.SSwitch{X: c.value(s.X)}
		for _, cs := range s.Cases {
			node.Values = append(node.Values, cs.Value)
			node.IsDflt = append(node.IsDflt, cs.IsDefault)
			c.env.Push()
			var arm []ir.Stmt
			for _, st := range cs.Body {
				arm = append(arm, c.stmt(st)...)
			}
			c.env.Pop()
			node.Arms = append(node.Arms, arm)
		}
		return []ir.Stmt{node}
	}
	c.failf(s.Pos(), "cannot compile statement %T", s)
	return nil
}

func (c *compiler) stmtAsBlock(s ast.Stmt) []ir.Stmt {
	if b, ok := s.(*ast.Block); ok {
		return c.block(b)
	}
	c.env.Push()
	defer c.env.Pop()
	return c.stmt(s)
}

func (c *compiler) declStmt(s *ast.DeclStmt) []ir.Stmt {
	lt := c.fi.Locals[s]
	size := c.w.SizeOf(lt)
	slot := c.allocSlot(size)
	c.slots[s] = slot
	c.rcCellsWithin(lt, slot)
	var out []ir.Stmt
	if s.Init != nil {
		rv := c.value(s.Init)
		out = append(out, &ir.SExpr{E: &ir.Store{
			Addr:    &ir.FrameAddr{Slot: slot},
			Val:     rv,
			Barrier: c.rcTracked(lt),
		}})
	}
	c.env.Define(&typer.Sym{Kind: typer.SymLocal, Name: s.Name, Type: lt, Decl: s})
	return out
}

// ---------------------------------------------------------------------------
// expressions: addresses

// typeOf resolves an expression's type; the checker has already validated,
// so failures are internal errors.
func (c *compiler) typeOf(e ast.Expr) *types.Type {
	t, err := c.env.TypeOf(e)
	if err != nil {
		c.failf(err.Pos, "internal: %s", err.Msg)
	}
	return t
}

// addr compiles an l-value to its address.
func (c *compiler) addr(e ast.Expr) ir.Expr {
	switch e := e.(type) {
	case *ast.Ident:
		sym := c.env.Lookup(e.Name)
		if sym == nil {
			c.failf(e.P, "internal: unbound %q", e.Name)
		}
		switch sym.Kind {
		case typer.SymLocal:
			return &ir.FrameAddr{Slot: c.slots[sym.Decl]}
		case typer.SymParam:
			return &ir.FrameAddr{Slot: c.paramSlot[e.Name]}
		case typer.SymGlobal:
			return &ir.Const{V: c.prog.Globals[e.Name]}
		}
		c.failf(e.P, "cannot take the address of function %q", e.Name)
	case *ast.Unary:
		if e.Op == token.STAR {
			return c.value(e.X)
		}
	case *ast.Index:
		bt := c.typeOf(e.X)
		var base ir.Expr
		var elem *types.Type
		if bt.Kind == types.KArray {
			base = c.addr(e.X)
			elem = bt.Elem
		} else {
			base = c.value(e.X)
			elem = bt.Elem
		}
		es := int64(c.w.SizeOf(elem))
		idx := c.value(e.I)
		return &ir.Bin{Op: ir.OpAdd, L: base, R: scale(idx, es), Pos: e.P}
	case *ast.Member:
		bt := c.typeOf(e.X)
		var base ir.Expr
		var sname string
		if e.Arrow {
			base = c.value(e.X)
			sname = bt.Elem.StructName
		} else {
			base = c.addr(e.X)
			sname = bt.StructName
		}
		si := c.w.Structs[sname]
		fi := si.Field(e.Name)
		if fi.Offset == 0 {
			return base
		}
		return &ir.Bin{Op: ir.OpAdd, L: base, R: &ir.Const{V: int64(fi.Offset)}, Pos: e.P}
	}
	c.failf(e.Pos(), "expression is not an l-value")
	return nil
}

func scale(e ir.Expr, by int64) ir.Expr {
	if by == 1 {
		return e
	}
	if k, ok := e.(*ir.Const); ok {
		return &ir.Const{V: k.V * by}
	}
	return &ir.Bin{Op: ir.OpMul, L: e, R: &ir.Const{V: by}}
}

// ---------------------------------------------------------------------------
// expressions: values

func (c *compiler) value(e ast.Expr) ir.Expr {
	switch e := e.(type) {
	case *ast.IntLit:
		return &ir.Const{V: e.Value}
	case *ast.NullLit:
		return &ir.Const{V: 0}
	case *ast.StringLit:
		return &ir.StrAddr{Idx: c.internString(e.Value)}
	case *ast.Sizeof:
		if e.T == nil {
			return &ir.Const{V: 1}
		}
		return &ir.Const{V: int64(c.w.SizeOf(c.w.ResolveCastType(e, e.T)))}
	case *ast.Ident:
		sym := c.env.Lookup(e.Name)
		if sym == nil {
			c.failf(e.P, "internal: unbound %q", e.Name)
		}
		if sym.Kind == typer.SymFunc {
			return &ir.FuncVal{Index: c.prog.FuncIdx[e.Name]}
		}
		t := sym.Type
		if t.Kind == types.KArray || t.Kind == types.KStruct {
			return c.addr(e) // decay / aggregate base
		}
		return &ir.Load{Addr: c.addr(e), Chk: c.checkFor(t, e)}
	case *ast.Unary:
		return c.unary(e)
	case *ast.Postfix:
		return c.incdec(e.X, e.Op, true, e.P)
	case *ast.Binary:
		return c.binary(e)
	case *ast.Assign:
		return c.assign(e)
	case *ast.Cond:
		return &ir.CondE{C: c.value(e.C), T: c.value(e.T), F: c.value(e.F)}
	case *ast.Call:
		return c.call(e)
	case *ast.Index:
		t := c.typeOf(e)
		a := c.addr(e)
		if t.Kind == types.KArray || t.Kind == types.KStruct {
			return a
		}
		return &ir.Load{Addr: a, Chk: c.checkFor(t, e)}
	case *ast.Member:
		t := c.typeOf(e)
		a := c.addr(e)
		if t.Kind == types.KArray || t.Kind == types.KStruct {
			return a
		}
		return &ir.Load{Addr: a, Chk: c.checkFor(t, e)}
	case *ast.Cast:
		return c.value(e.X)
	case *ast.Scast:
		return c.scast(e)
	}
	c.failf(e.Pos(), "cannot compile expression %T", e)
	return nil
}

func (c *compiler) unary(e *ast.Unary) ir.Expr {
	switch e.Op {
	case token.MINUS:
		return &ir.Un{Op: ir.UnNeg, X: c.value(e.X)}
	case token.NOT:
		return &ir.Un{Op: ir.UnNot, X: c.value(e.X)}
	case token.TILDE:
		return &ir.Un{Op: ir.UnBitNot, X: c.value(e.X)}
	case token.STAR:
		t := c.typeOf(e)
		a := c.value(e.X)
		if t.Kind == types.KArray || t.Kind == types.KStruct {
			return a
		}
		return &ir.Load{Addr: a, Chk: c.checkFor(t, e)}
	case token.AMP:
		return c.addr(e.X)
	case token.INC:
		return c.incdec(e.X, token.INC, false, e.P)
	case token.DEC:
		return c.incdec(e.X, token.DEC, false, e.P)
	}
	c.failf(e.P, "cannot compile unary %s", e.Op)
	return nil
}

func (c *compiler) incdec(lv ast.Expr, op token.Kind, post bool, pos token.Pos) ir.Expr {
	t := c.typeOf(lv)
	delta := int64(1)
	if t.Kind == types.KPtr {
		delta = int64(c.w.SizeOf(t.Elem))
	}
	if op == token.DEC {
		delta = -delta
	}
	return &ir.IncDec{
		Addr:    c.addr(lv),
		Delta:   delta,
		Post:    post,
		ChkR:    c.checkFor(t, lv),
		ChkW:    c.checkFor(t, lv),
		Barrier: c.rcTracked(t),
	}
}

func binOp(k token.Kind) (ir.OpKind, bool) {
	switch k {
	case token.PLUS:
		return ir.OpAdd, true
	case token.MINUS:
		return ir.OpSub, true
	case token.STAR:
		return ir.OpMul, true
	case token.SLASH:
		return ir.OpDiv, true
	case token.PERCENT:
		return ir.OpMod, true
	case token.AMP:
		return ir.OpAnd, true
	case token.PIPE:
		return ir.OpOr, true
	case token.CARET:
		return ir.OpXor, true
	case token.SHL:
		return ir.OpShl, true
	case token.SHR:
		return ir.OpShr, true
	case token.EQ:
		return ir.OpEq, true
	case token.NEQ:
		return ir.OpNe, true
	case token.LT:
		return ir.OpLt, true
	case token.LEQ:
		return ir.OpLe, true
	case token.GT:
		return ir.OpGt, true
	case token.GEQ:
		return ir.OpGe, true
	}
	return 0, false
}

func (c *compiler) binary(e *ast.Binary) ir.Expr {
	if e.Op == token.LAND || e.Op == token.LOR {
		return &ir.Logic{Or: e.Op == token.LOR, L: c.value(e.L), R: c.value(e.R)}
	}
	op, ok := binOp(e.Op)
	if !ok {
		c.failf(e.P, "cannot compile operator %s", e.Op)
	}
	lt := typer.Decay(c.typeOf(e.L))
	rt := typer.Decay(c.typeOf(e.R))
	l, r := c.value(e.L), c.value(e.R)
	// Pointer arithmetic scales by the element size.
	if e.Op == token.PLUS || e.Op == token.MINUS {
		switch {
		case lt.Kind == types.KPtr && rt.IsInteger():
			r = scale(r, int64(c.w.SizeOf(lt.Elem)))
		case e.Op == token.PLUS && lt.IsInteger() && rt.Kind == types.KPtr:
			l = scale(l, int64(c.w.SizeOf(rt.Elem)))
		case e.Op == token.MINUS && lt.Kind == types.KPtr && rt.Kind == types.KPtr:
			diff := &ir.Bin{Op: ir.OpSub, L: l, R: r, Pos: e.P}
			es := int64(c.w.SizeOf(lt.Elem))
			if es == 1 {
				return diff
			}
			return &ir.Bin{Op: ir.OpDiv, L: diff, R: &ir.Const{V: es}, Pos: e.P}
		}
	}
	return &ir.Bin{Op: op, L: l, R: r, Pos: e.P}
}

func (c *compiler) assign(e *ast.Assign) ir.Expr {
	lt := c.typeOf(e.L)
	if e.Op == token.ASSIGN {
		return &ir.Store{
			Addr:    c.addr(e.L),
			Val:     c.value(e.R),
			Chk:     c.checkFor(lt, e.L),
			Barrier: c.rcTracked(lt),
		}
	}
	op, ok := binOp(e.Op)
	if !ok {
		c.failf(e.P, "cannot compile compound operator %s", e.Op)
	}
	rhs := c.value(e.R)
	if lt.Kind == types.KPtr {
		rhs = scale(rhs, int64(c.w.SizeOf(lt.Elem)))
	}
	return &ir.Compound{
		Op:      op,
		Addr:    c.addr(e.L),
		RHS:     rhs,
		ChkR:    c.checkFor(lt, e.L),
		ChkW:    c.checkFor(lt, e.L),
		Barrier: c.rcTracked(lt),
		Pos:     e.P,
	}
}

func (c *compiler) scast(e *ast.Scast) ir.Expr {
	xt := c.typeOf(e.X)
	to := c.w.ResolveCastType(e, e.To)
	return &ir.Scast{
		Addr:       c.addr(e.X),
		ChkR:       c.checkFor(xt, e.X),
		ChkW:       c.checkFor(xt, e.X),
		Barrier:    c.rcTracked(xt),
		Pos:        e.P,
		TargetDesc: to.String(),
	}
}

func (c *compiler) call(e *ast.Call) ir.Expr {
	if id, ok := e.Fun.(*ast.Ident); ok && c.env.Lookup(id.Name) == nil {
		if b, isb := types.Builtins[id.Name]; isb {
			return c.builtinCall(b, e)
		}
		c.failf(e.P, "internal: undefined function %q", id.Name)
	}
	args := make([]ir.Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.value(a)
	}
	if id, ok := e.Fun.(*ast.Ident); ok {
		if sym := c.env.Lookup(id.Name); sym != nil && sym.Kind == typer.SymFunc {
			return &ir.Call{Target: c.prog.FuncIdx[id.Name], Args: args, Pos: e.P}
		}
	}
	return &ir.Call{Target: -1, Fn: c.value(e.Fun), Args: args, Pos: e.P}
}

func (c *compiler) builtinCall(b *types.Builtin, e *ast.Call) ir.Expr {
	if b.Kind == types.BKMalloc {
		return &ir.BuiltinCall{Name: b.Name, Args: []ir.Expr{c.value(e.Args[0])}, Pos: e.P}
	}
	bc := &ir.BuiltinCall{Name: b.Name, Pos: e.P}
	for i, a := range e.Args {
		bc.Args = append(bc.Args, c.value(a))
		var chk ir.Check
		var acc ir.Access
		if i < len(b.Args) {
			spec := b.Args[i]
			acc = ir.Access(spec.Access)
			if spec.Access != types.AccessNone {
				at := c.typeOf(a)
				atd := typer.Decay(at)
				if atd.Kind == types.KPtr {
					chk = c.checkFor(atd.Elem, a)
				}
			}
		}
		bc.ArgChecks = append(bc.ArgChecks, chk)
		bc.ArgAccess = append(bc.ArgAccess, acc)
	}
	return bc
}
