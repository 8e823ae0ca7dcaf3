// Package vet is the whole-program static analysis pipeline behind the
// `sharc vet` subcommand. It runs a pass manager over the typed AST:
//
//   - points-to: the Andersen-style solver from internal/pointsto, giving
//     lock aliases, heap-object identity, and thread classes;
//   - locksets: a flow-sensitive must/may-held analysis keyed on points-to
//     lock aliases, propagated across calls (callee entry state is the
//     intersection of its call-site states, iterated to a fixpoint);
//   - thread escape: which heap objects are ever reachable from two thread
//     classes, refining qualinfer's coarse thread-reachability;
//   - violations: each shared access site is classified must-race /
//     may-race / safe, per the SharC sharing rules — a write to readonly
//     storage, a parallel conflicting access to dynamic storage with no
//     intervening sharing cast, or a locked(l) access where the must-held
//     set provably never contains an alias of l.
//
// `safe` verdicts are not just reported: they become an ir.DischargeSet
// that internal/compile consumes to mint CheckElided instead of a runtime
// check: whole-program check elimination. Soundness bar: a `must` finding must correspond to a
// real racy schedule (the corpus cross-check pins vet musts against
// explore's dynamic conflicts), and a discharged check must never change
// observable behavior (pinned by replay oracles). The analysis is
// deliberately conservative everywhere it cannot prove a fact: loops and
// branches demote definiteness, unknown calls kill must-held sets, and
// only uniquely-allocated lock objects may enter a must-held set.
package vet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/absint"
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/pointsto"
	"repro/internal/qualinfer"
	"repro/internal/token"
	"repro/internal/typer"
	"repro/internal/types"
)

// Finding is one classified violation. Severity "must" findings are
// provable under the analysis' model (and gate exit codes); "may" findings
// are possible-but-unproven.
type Finding struct {
	Severity string   `json:"severity"` // "must" | "may"
	Kind     string   `json:"kind"`     // "race" | "lock" | "readonly-write"
	Site     string   `json:"site"`     // file:line:col of the anchor access
	LValue   string   `json:"lvalue"`
	Other    string   `json:"other,omitempty"` // second access of a race pair
	OtherLV  string   `json:"other_lvalue,omitempty"`
	Threads  []string `json:"threads,omitempty"` // thread classes involved
	Msg      string   `json:"msg"`

	Pos      token.Pos `json:"-"`
	OtherPos token.Pos `json:"-"`
}

// Stats summarizes the classified site population.
type Stats struct {
	Functions    int `json:"functions"`
	Objects      int `json:"objects"` // abstract points-to objects
	DynamicSites int `json:"dynamic_sites"`
	LockedSites  int `json:"locked_sites"`
	SafeDynamic  int `json:"safe_dynamic"` // dynamic checks discharged (all tiers)
	SafeLocked   int `json:"safe_locked"`  // locked checks discharged
	SafeAbsint   int `json:"safe_absint"`  // of SafeDynamic, proven by the absint tier
}

// Resolved is a would-be finding every access site of which the absint tier
// proved safe: the sharing it describes cannot produce a failing check.
type Resolved struct {
	Site    string `json:"site"`
	LValue  string `json:"lvalue"`
	Reasons string `json:"reasons"` // comma-joined absint proof reasons
	Msg     string `json:"msg"`
}

// Report is the full vet result: ranked findings, site statistics, and the
// discharge set the compiler can consume.
type Report struct {
	Findings []Finding  `json:"findings"`
	Resolved []Resolved `json:"resolved,omitempty"`
	Stats    Stats      `json:"stats"`

	// Absint summarizes the abstract-interpretation tier's run (json-silent:
	// engine step counts are implementation detail, not verdict).
	Absint absint.Stats `json:"-"`

	discharge *ir.DischargeSet
	verdicts  map[string]string
	proofs    map[string]absint.Proof
}

// MustCount returns the number of must-severity findings.
func (r *Report) MustCount() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == "must" {
			n++
		}
	}
	return n
}

// Discharge returns the set of check positions proven unnecessary, for
// compile.Options.Discharge.
func (r *Report) Discharge() *ir.DischargeSet { return r.discharge }

// Verdicts maps "file:line:col" site keys to their static verdict
// ("safe", "must-race", "may-race", "must-lock", "may-lock",
// "readonly-write") for every site vet classified beyond "keep the
// runtime check". Sites absent from the map stay dynamically checked.
func (r *Report) Verdicts() map[string]string { return r.verdicts }

// Proofs maps "file:line:col" site keys to the absint proof that discharged
// the site, for sites with "absint" provenance.
func (r *Report) Proofs() map[string]absint.Proof { return r.proofs }

// Explain renders the proof chain for one "file:line:col" site key: the
// static verdict, the tier that produced it, and (for absint discharges)
// the proof rule and its justification.
func (r *Report) Explain(site string) string {
	var b strings.Builder
	verdict, classified := r.verdicts[site]
	if !classified {
		fmt.Fprintf(&b, "%s: no static verdict; the site keeps its runtime check\n", site)
		return b.String()
	}
	fmt.Fprintf(&b, "%s: verdict %q\n", site, verdict)
	for _, f := range r.Findings {
		if f.Site == site || f.Other == site {
			fmt.Fprintf(&b, "  finding: [%s] %s: %s\n", f.Severity, f.Kind, f.Msg)
		}
	}
	if verdict != "safe" {
		return b.String()
	}
	if p, ok := r.proofs[site]; ok {
		fmt.Fprintf(&b, "  tier 1 lockset: not discharged (no lock discipline or single-thread proof)\n")
		fmt.Fprintf(&b, "  tier 2 points-to: object set resolved; candidate survived to absint\n")
		fmt.Fprintf(&b, "  tier 3 absint: %s — %s\n", p.Reason, p.Detail)
	} else {
		fmt.Fprintf(&b, "  tier 1 lockset + points-to: discharged by the lockset tier\n")
	}
	return b.String()
}

// JSON renders the report deterministically (findings are pre-sorted and
// Stats has fixed fields, so the bytes are identical across runs).
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Format renders the ranked findings as text.
func (r *Report) Format() string {
	var b strings.Builder
	musts := r.MustCount()
	fmt.Fprintf(&b, "vet: %d finding(s), %d must, %d may; %d dynamic site(s), %d locked site(s); discharged %d dynamic (%d absint) + %d locked check site(s)\n",
		len(r.Findings), musts, len(r.Findings)-musts,
		r.Stats.DynamicSites, r.Stats.LockedSites, r.Stats.SafeDynamic, r.Stats.SafeAbsint, r.Stats.SafeLocked)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%-4s %-14s %s  %s: %s\n", f.Severity, f.Kind, f.Site, f.LValue, f.Msg)
	}
	for _, res := range r.Resolved {
		fmt.Fprintf(&b, "ok   %-14s %s  %s: %s\n", "resolved", res.Site, res.LValue, res.Msg)
	}
	return b.String()
}

func posKey(p token.Pos) string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// ---------------------------------------------------------------------------
// analyzer

// access is one recorded shared-access site with its converged lockset
// state.
type access struct {
	fn    string
	pos   token.Pos
	lv    string
	write bool
	mode  types.ModeKind

	objs     []pointsto.Ref // dynamic: l-value locations
	lockRefs []pointsto.Ref // locked: lock expression aliases

	must map[pointsto.Obj]bool
	may  map[pointsto.Obj]bool

	definite bool // straight-line from function entry, only total ops before
	seq      int  // top-level statement index in main; -1 elsewhere

	global string // direct global cell name ("" if not a direct cell)
	gidx   int64  // -1 scalar, >=0 constant array index, -2 not a cell
}

type accessKey struct {
	pos   token.Pos
	write bool
}

type analyzer struct {
	w   *types.World
	inf *qualinfer.Result
	pts *pointsto.Analysis

	fnNames  []string
	total    map[string]bool // fn provably runs to completion
	affects  map[string]bool // fn may (transitively) perform lock operations
	allLocks map[pointsto.Obj]bool

	entryMust    map[string]map[pointsto.Obj]bool
	entryMay     map[string]map[pointsto.Obj]bool
	entrySeen    map[string]bool
	entryChanged bool

	accesses []*access
	accIdx   map[accessKey]*access
	spawnSeq map[string]int // root -> seq of first definite top-level spawn in main

	// firstSpawn is the smallest main statement index containing any spawn
	// call (definite or not); -1 when main never spawns. spawnElsewhere
	// records spawn calls outside main, after which statement ordering in
	// main says nothing about when sharing begins.
	firstSpawn     int
	spawnElsewhere bool

	// noDischarge blocks positions where the compiler mints a check for a
	// *different* object than the l-value vet classified: builtin pointer
	// arguments carry referent checks at the argument expression's
	// position (§4.4 summaries), so a verdict about the pointer load must
	// not elide the referent check sharing its position.
	noDischarge map[token.Pos]bool

	findings  []Finding
	resolved  []Resolved
	stats     Stats
	discharge *ir.DischargeSet
	verdicts  map[string]string

	// absint tier state: rule options, referent pseudo-access records
	// (deduplicated across lockset rounds), and the resulting proofs.
	absintOpts  absint.Options
	referents   []absint.Access
	referentIdx map[accessKey]bool
	proofs      map[string]absint.Proof
	absintStats absint.Stats
}

// Analyze runs the vet pipeline over a resolved, inferred, checked world
// with every analysis tier enabled.
func Analyze(w *types.World, inf *qualinfer.Result) *Report {
	return AnalyzeWith(w, inf, absint.DefaultOptions())
}

// AnalyzeWith runs the pipeline with an explicit absint tier configuration
// (the ablation harness turns rule families off one at a time; the zero
// Options disables the tier entirely, giving the pure lockset baseline).
func AnalyzeWith(w *types.World, inf *qualinfer.Result, opts absint.Options) *Report {
	a := &analyzer{
		w:           w,
		inf:         inf,
		entryMust:   make(map[string]map[pointsto.Obj]bool),
		entryMay:    make(map[string]map[pointsto.Obj]bool),
		entrySeen:   make(map[string]bool),
		accIdx:      make(map[accessKey]*access),
		spawnSeq:    make(map[string]int),
		firstSpawn:  -1,
		noDischarge: make(map[token.Pos]bool),
		discharge: &ir.DischargeSet{
			Dynamic:    make(map[token.Pos]bool),
			Locked:     make(map[token.Pos]bool),
			Provenance: make(map[token.Pos]string),
		},
		verdicts:    make(map[string]string),
		absintOpts:  opts,
		referentIdx: make(map[accessKey]bool),
		proofs:      make(map[string]absint.Proof),
	}
	a.pts = pointsto.Analyze(w, inf)
	for name, fi := range w.Funcs {
		if fi.Decl != nil && fi.Decl.Body != nil {
			a.fnNames = append(a.fnNames, name)
		}
	}
	sort.Strings(a.fnNames)
	a.stats.Functions = len(a.fnNames)

	a.computeTotality()
	a.computeAffects()
	a.computeLockUniverse()
	a.solveLocksets()
	// Freeze the points-to access relation: everything below is pure
	// queries, so thread-escape verdicts cannot depend on their order.
	a.pts.Freeze()
	a.stats.Objects = a.pts.NumObjs()
	a.classify()

	sort.Slice(a.findings, func(i, j int) bool {
		fi, fj := a.findings[i], a.findings[j]
		if fi.Severity != fj.Severity {
			return fi.Severity == "must"
		}
		if fi.Site != fj.Site {
			return posLess(fi.Pos, fj.Pos)
		}
		return fi.Kind < fj.Kind
	})
	return &Report{
		Findings:  a.findings,
		Resolved:  a.resolved,
		Stats:     a.stats,
		Absint:    a.absintStats,
		discharge: a.discharge,
		verdicts:  a.verdicts,
		proofs:    a.proofs,
	}
}

func posLess(a, b token.Pos) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// ---------------------------------------------------------------------------
// call-graph facts

// nonTotalBuiltins may block forever (join on a non-terminating thread,
// condWait with no signaller) or abort (assert); an access after one is
// not definitely reached. mutexLock is treated as total: the analysis
// model assumes locks are not leaked into a guaranteed deadlock, matching
// the corpus cross-check gate.
var nonTotalBuiltins = map[string]bool{"assert": true, "join": true, "condWait": true}

func (a *analyzer) computeTotality() {
	bad := make(map[string]bool)
	for _, fn := range a.fnNames {
		fi := a.w.Funcs[fn]
		b := false
		qualinfer.WalkStmts(fi.Decl.Body, func(s ast.Stmt) {
			switch s.(type) {
			case *ast.While, *ast.DoWhile, *ast.For:
				b = true // loops may not terminate
			}
			qualinfer.WalkExprs(s, func(e ast.Expr) {
				qualinfer.WalkExpr(e, func(e ast.Expr) {
					if c, ok := e.(*ast.Call); ok {
						if id, ok := c.Fun.(*ast.Ident); ok {
							if nonTotalBuiltins[id.Name] && a.w.Funcs[id.Name] == nil {
								b = true
							}
						}
					}
				})
			})
		})
		bad[fn] = b
	}
	a.total = make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range a.fnNames {
			if a.total[fn] || bad[fn] || a.pts.HasIndirectCalls(fn) {
				continue
			}
			ok := true
			for _, c := range a.pts.Calls(fn) {
				fi := a.w.Funcs[c]
				if fi == nil || fi.Decl == nil || fi.Decl.Body == nil || !a.total[c] {
					ok = false
					break
				}
			}
			if ok {
				a.total[fn] = true
				changed = true
			}
		}
	}
}

func (a *analyzer) computeAffects() {
	a.affects = make(map[string]bool)
	for _, fn := range a.fnNames {
		if a.pts.HasLockOps(fn) || a.pts.HasIndirectCalls(fn) {
			a.affects[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range a.fnNames {
			if a.affects[fn] {
				continue
			}
			for _, c := range a.pts.Calls(fn) {
				if a.affects[c] {
					a.affects[fn] = true
					changed = true
					break
				}
			}
		}
	}
}

func (a *analyzer) computeLockUniverse() {
	a.allLocks = make(map[pointsto.Obj]bool)
	for i := 0; i < a.pts.NumObjs(); i++ {
		if a.pts.Obj(pointsto.Obj(i)).Alloc == "mutexNew" {
			a.allLocks[pointsto.Obj(i)] = true
		}
	}
}

// ---------------------------------------------------------------------------
// lockset solving

func (a *analyzer) solveLocksets() {
	// Thread entry points start with no locks held, whatever call sites
	// they may additionally have.
	a.entryMust["main"] = set()
	a.entryMay["main"] = set()
	a.entrySeen["main"] = true
	for root := range a.inf.ThreadRoots {
		a.entryMust[root] = set()
		a.entryMay[root] = set()
		a.entrySeen[root] = true
	}
	// Iterate until callee entry states converge. Entry must-sets only
	// shrink and may-sets only grow, so access-site records merged across
	// rounds converge to the final round's values.
	for round := 0; round < 32; round++ {
		a.entryChanged = false
		for _, fn := range a.fnNames {
			a.walkFn(fn)
		}
		if !a.entryChanged {
			break
		}
	}
}

func (a *analyzer) walkFn(fn string) {
	fi := a.w.Funcs[fn]
	w := &fnwalk{
		a:    a,
		fn:   fn,
		env:  typer.NewEnv(a.w, fi),
		must: clone(a.entryMust[fn]),
		may:  clone(a.entryMay[fn]),
		seq:  -1,
	}
	if fn == "main" {
		w.seq = 0
	}
	w.env.Push()
	for _, s := range fi.Decl.Body.Stmts {
		w.stmt(s)
		if fn == "main" {
			w.seq++
		}
	}
	w.env.Pop()
}

// fnwalk carries the flow-sensitive state of one function walk.
type fnwalk struct {
	a   *analyzer
	fn  string
	env *typer.Env

	must map[pointsto.Obj]bool
	may  map[pointsto.Obj]bool

	branch int // conditional/loop nesting depth
	nonTot int // non-total operations seen on the path so far
	seq    int // top-level statement counter (main only)

	frames []*exitFrame
}

// exitFrame collects break/continue states of the innermost loop/switch.
type exitFrame struct {
	isLoop         bool
	breakM, breakY map[pointsto.Obj]bool
	contM, contY   map[pointsto.Obj]bool
	haveB, haveC   bool
}

func (w *fnwalk) definite() bool { return w.branch == 0 && w.nonTot == 0 }

func set() map[pointsto.Obj]bool { return make(map[pointsto.Obj]bool) }

func clone(s map[pointsto.Obj]bool) map[pointsto.Obj]bool {
	out := set()
	for o := range s {
		out[o] = true
	}
	return out
}

func intersect(a, b map[pointsto.Obj]bool) map[pointsto.Obj]bool {
	out := set()
	for o := range a {
		if b[o] {
			out[o] = true
		}
	}
	return out
}

func union(a, b map[pointsto.Obj]bool) map[pointsto.Obj]bool {
	out := clone(a)
	for o := range b {
		out[o] = true
	}
	return out
}

func equal(a, b map[pointsto.Obj]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

// unreachable puts the walker in the state after a jump away: must-held is
// the full universe (⊤, the identity of intersection) and may-held empty
// (⊥, the identity of union), so joining it in is a no-op.
func (w *fnwalk) unreachable() {
	w.must = clone(w.a.allLocks)
	w.may = set()
}

func (w *fnwalk) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.Block:
		w.env.Push()
		for _, st := range s.Stmts {
			w.stmt(st)
		}
		w.env.Pop()
	case *ast.ExprStmt:
		w.value(s.X)
	case *ast.DeclStmt:
		if s.Init != nil {
			w.value(s.Init)
		}
		w.env.Define(&typer.Sym{Kind: typer.SymLocal, Name: s.Name, Type: w.env.F.Locals[s], Decl: s})
	case *ast.If:
		w.value(s.Cond)
		m0, y0 := clone(w.must), clone(w.may)
		w.branch++
		w.stmt(s.Then)
		mT, yT := w.must, w.may
		w.must, w.may = m0, y0
		w.stmt(s.Else)
		w.branch--
		w.must = intersect(mT, w.must)
		w.may = union(yT, w.may)
	case *ast.While:
		w.fixpoint(func() {
			w.value(s.Cond)
			w.stmt(s.Body)
		})
	case *ast.DoWhile:
		w.fixpoint(func() {
			w.stmt(s.Body)
			w.value(s.Cond)
		})
	case *ast.For:
		w.env.Push()
		w.stmt(s.Init)
		w.fixpoint(func() {
			if s.Cond != nil {
				w.value(s.Cond)
			}
			w.stmt(s.Body)
			if s.Post != nil {
				w.value(s.Post)
			}
		})
		w.env.Pop()
	case *ast.Return:
		if s.X != nil {
			w.value(s.X)
		}
		w.nonTot++ // a conditional return makes later code non-definite
		w.unreachable()
	case *ast.Break:
		w.exitTo(true)
	case *ast.Continue:
		w.exitTo(false)
	case *ast.Switch:
		w.value(s.X)
		fr := &exitFrame{}
		w.frames = append(w.frames, fr)
		m0, y0 := clone(w.must), clone(w.may)
		// Dispatch may skip every case (no default), so the entry state is
		// part of the exit join; fallthrough is over-approximated by
		// letting each case start from entry ∧ the previous case's end.
		accM, accY := clone(m0), clone(y0)
		prevM, prevY := clone(m0), clone(y0)
		w.branch++
		for _, c := range s.Cases {
			w.must = intersect(clone(m0), prevM)
			w.may = union(clone(y0), prevY)
			for _, st := range c.Body {
				w.stmt(st)
			}
			prevM, prevY = w.must, w.may
			accM = intersect(accM, w.must)
			accY = union(accY, w.may)
		}
		w.branch--
		w.frames = w.frames[:len(w.frames)-1]
		w.must, w.may = accM, accY
		if fr.haveB {
			w.must = intersect(w.must, fr.breakM)
			w.may = union(w.may, fr.breakY)
		}
	}
}

// exitTo folds the current state into the innermost frame's break or
// continue join (for continue, the innermost *loop* frame) and marks the
// rest of the path unreachable.
func (w *fnwalk) exitTo(isBreak bool) {
	for i := len(w.frames) - 1; i >= 0; i-- {
		fr := w.frames[i]
		if !isBreak && !fr.isLoop {
			continue // continue skips switch frames
		}
		if isBreak {
			if !fr.haveB {
				fr.breakM, fr.breakY, fr.haveB = clone(w.must), clone(w.may), true
			} else {
				fr.breakM = intersect(fr.breakM, w.must)
				fr.breakY = union(fr.breakY, w.may)
			}
		} else {
			if !fr.haveC {
				fr.contM, fr.contY, fr.haveC = clone(w.must), clone(w.may), true
			} else {
				fr.contM = intersect(fr.contM, w.must)
				fr.contY = union(fr.contY, w.may)
			}
		}
		break
	}
	w.nonTot++ // a conditional jump makes later code non-definite
	w.unreachable()
}

// fixpoint iterates one loop's body walk until the entry join stabilizes.
// Loop bodies are conditional (branch+1) and the loop itself may not
// terminate (nonTot+1 after it).
func (w *fnwalk) fixpoint(iter func()) {
	fr := &exitFrame{isLoop: true}
	w.frames = append(w.frames, fr)
	w.branch++
	for i := 0; i < 8; i++ {
		m0, y0 := clone(w.must), clone(w.may)
		iter()
		if fr.haveC {
			w.must = intersect(w.must, fr.contM)
			w.may = union(w.may, fr.contY)
		}
		w.must = intersect(w.must, m0)
		w.may = union(w.may, y0)
		if equal(w.must, m0) && equal(w.may, y0) {
			break
		}
	}
	w.branch--
	w.frames = w.frames[:len(w.frames)-1]
	if fr.haveB {
		w.must = intersect(w.must, fr.breakM)
		w.may = union(w.may, fr.breakY)
	}
	w.nonTot++
}

// ---------------------------------------------------------------------------
// expression walk

// value walks e in evaluation order, recording shared accesses and
// applying lock effects, mirroring where internal/compile mints checks.
func (w *fnwalk) value(e ast.Expr) {
	switch e := e.(type) {
	case nil, *ast.IntLit, *ast.StringLit, *ast.NullLit, *ast.Sizeof:
	case *ast.Ident:
		w.access(e, false)
	case *ast.Unary:
		switch e.Op {
		case token.STAR:
			w.value(e.X)
			w.access(e, false)
		case token.AMP:
			w.addrWalk(e.X)
		case token.INC, token.DEC:
			w.addrWalk(e.X)
			w.access(e.X, false)
			w.access(e.X, true)
		default:
			w.value(e.X)
		}
	case *ast.Postfix:
		w.addrWalk(e.X)
		w.access(e.X, false)
		w.access(e.X, true)
	case *ast.Binary:
		if e.Op == token.LAND || e.Op == token.LOR {
			w.value(e.L)
			m0, y0 := clone(w.must), clone(w.may)
			w.branch++
			w.value(e.R) // short-circuit: conditionally evaluated
			w.branch--
			w.must = intersect(w.must, m0)
			w.may = union(w.may, y0)
			return
		}
		w.value(e.L)
		w.value(e.R)
	case *ast.Assign:
		w.addrWalk(e.L)
		w.value(e.R)
		if e.Op != token.ASSIGN {
			w.access(e.L, false)
		}
		w.access(e.L, true)
	case *ast.Cond:
		w.value(e.C)
		m0, y0 := clone(w.must), clone(w.may)
		w.branch++
		w.value(e.T)
		mT, yT := w.must, w.may
		w.must, w.may = m0, y0
		w.value(e.F)
		w.branch--
		w.must = intersect(mT, w.must)
		w.may = union(yT, w.may)
	case *ast.Cast:
		w.value(e.X)
	case *ast.Scast:
		w.addrWalk(e.X)
		w.access(e.X, false)
		w.access(e.X, true)
	case *ast.Index, *ast.Member:
		w.addrWalk(e)
		w.access(e, false)
	case *ast.Call:
		w.call(e)
	}
}

// addrWalk walks the subexpressions an l-value's address computation
// evaluates, without touching the target itself.
func (w *fnwalk) addrWalk(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
	case *ast.Unary:
		if e.Op == token.STAR {
			w.value(e.X)
		} else {
			w.value(e)
		}
	case *ast.Index:
		if t, err := w.env.TypeOf(e.X); err == nil && t.Kind == types.KArray {
			w.addrWalk(e.X)
		} else {
			w.value(e.X)
		}
		w.value(e.I)
	case *ast.Member:
		if e.Arrow {
			w.value(e.X)
		} else {
			w.addrWalk(e.X)
		}
	case *ast.Cast:
		w.addrWalk(e.X)
	default:
		w.value(e)
	}
}

// access records one shared access to l-value lv (merging with earlier
// walk rounds of the same site).
func (w *fnwalk) access(lv ast.Expr, write bool) {
	t, err := w.env.TypeOf(lv)
	if err != nil || t == nil || t.Kind == types.KArray || t.Kind == types.KStruct {
		return
	}
	m := w.a.inf.Subst.Apply(t.Mode)
	switch m.Kind {
	case types.ModeDynamic, types.ModeLocked:
	case types.ModeReadonly:
		if !write {
			return
		}
	default:
		return
	}
	key := accessKey{pos: lv.Pos(), write: write}
	acc := w.a.accIdx[key]
	if acc == nil {
		acc = &access{
			fn:    w.fn,
			pos:   lv.Pos(),
			lv:    ast.ExprString(lv),
			write: write,
			mode:  m.Kind,
			seq:   -1,
			gidx:  -2,
		}
		if m.Kind == types.ModeDynamic {
			acc.objs = w.a.pts.EvalLValue(w.env, w.fn, lv)
			acc.global, acc.gidx = w.directGlobalCell(lv)
		}
		if m.Kind == types.ModeLocked {
			// The absint tier's ticket matching needs the counter's identity,
			// so locked accesses record their l-value objects too.
			acc.objs = w.a.pts.EvalLValue(w.env, w.fn, lv)
			if m.Lock != nil {
				acc.lockRefs = w.a.pts.EvalValue(w.env, w.fn, m.Lock.Expr)
			}
		}
		acc.must = clone(w.must)
		acc.may = clone(w.may)
		acc.definite = w.definite()
		if w.fn == "main" {
			acc.seq = w.seq
		}
		w.a.accIdx[key] = acc
		w.a.accesses = append(w.a.accesses, acc)
		return
	}
	acc.must = intersect(acc.must, w.must)
	acc.may = union(acc.may, w.may)
	if !w.definite() {
		acc.definite = false
	}
}

// directGlobalCell identifies l-values denoting exactly one global cell: a
// scalar global, or a global array indexed by a constant.
func (w *fnwalk) directGlobalCell(lv ast.Expr) (string, int64) {
	switch lv := lv.(type) {
	case *ast.Ident:
		if sym := w.env.Lookup(lv.Name); sym != nil && sym.Kind == typer.SymGlobal {
			return lv.Name, -1
		}
	case *ast.Index:
		id, ok := lv.X.(*ast.Ident)
		if !ok {
			return "", -2
		}
		sym := w.env.Lookup(id.Name)
		if sym == nil || sym.Kind != typer.SymGlobal || sym.Type == nil || sym.Type.Kind != types.KArray {
			return "", -2
		}
		if i, ok := lv.I.(*ast.IntLit); ok {
			return id.Name, i.Value
		}
	}
	return "", -2
}

// ---------------------------------------------------------------------------
// calls

func (w *fnwalk) call(e *ast.Call) {
	if id, ok := e.Fun.(*ast.Ident); ok {
		if b := types.Builtins[id.Name]; b != nil && w.env.Lookup(id.Name) == nil {
			w.builtin(b, e)
			return
		}
		if sym := w.env.Lookup(id.Name); sym != nil && sym.Kind == typer.SymFunc {
			for _, arg := range e.Args {
				w.value(arg)
			}
			w.userCall(id.Name)
			return
		}
	}
	// Indirect call: any address-taken function may run.
	w.value(e.Fun)
	for _, arg := range e.Args {
		w.value(arg)
	}
	w.must = set()
	w.may = union(w.may, w.a.allLocks)
	w.nonTot++
}

func (w *fnwalk) userCall(name string) {
	a := w.a
	if !a.entrySeen[name] {
		a.entryMust[name] = clone(w.must)
		a.entryMay[name] = clone(w.may)
		a.entrySeen[name] = true
		a.entryChanged = true
	} else {
		nm := intersect(a.entryMust[name], w.must)
		if !equal(nm, a.entryMust[name]) {
			a.entryMust[name] = nm
			a.entryChanged = true
		}
		ny := union(a.entryMay[name], w.may)
		if !equal(ny, a.entryMay[name]) {
			a.entryMay[name] = ny
			a.entryChanged = true
		}
	}
	if a.affects[name] {
		w.must = set()
		w.may = union(w.may, a.allLocks)
	}
	if !a.total[name] {
		w.nonTot++
	}
}

func (w *fnwalk) builtin(b *types.Builtin, e *ast.Call) {
	for i, argE := range e.Args {
		w.value(argE)
		// Builtin pointer arguments with read/write summaries get referent
		// checks minted at the argument's position: block discharge there,
		// and record referent pseudo-accesses so the absint tier's
		// object-level rules see every shadow-touching operation.
		if i < len(b.Args) && b.Args[i].Access != types.AccessNone {
			if at, err := w.env.TypeOf(argE); err == nil {
				if d := typer.Decay(at); d != nil && d.Kind == types.KPtr {
					w.a.noDischarge[argE.Pos()] = true
					w.referent(argE, b.Args[i].Access, d)
				}
			}
		}
	}
	w.lockEffects(b, e)
}

// referent records the pseudo-accesses a builtin performs on a pointer
// argument's referent cells. Only dynamic- and locked-mode referents touch
// shadow state (private and racy referents are uninstrumented), so only
// those modes are recorded; the absint tier's object-level rules need this
// list to be complete.
func (w *fnwalk) referent(argE ast.Expr, acc types.Access, d *types.Type) {
	if d.Elem == nil {
		return
	}
	m := w.a.inf.Subst.Apply(d.Elem.Mode)
	if m.Kind != types.ModeDynamic && m.Kind != types.ModeLocked {
		return
	}
	objs := w.a.pts.EvalValue(w.env, w.fn, argE)
	seq := -1
	if w.fn == "main" {
		seq = w.seq
	}
	add := func(write bool) {
		key := accessKey{pos: argE.Pos(), write: write}
		if w.a.referentIdx[key] {
			return
		}
		w.a.referentIdx[key] = true
		w.a.referents = append(w.a.referents, absint.Access{
			Fn:       w.fn,
			Pos:      argE.Pos(),
			LV:       ast.ExprString(argE),
			Write:    write,
			Locked:   m.Kind == types.ModeLocked,
			Referent: true,
			Objs:     objs,
			Seq:      seq,
		})
	}
	if acc == types.AccessRead || acc == types.AccessReadWrite {
		add(false)
	}
	if acc == types.AccessWrite || acc == types.AccessReadWrite {
		add(true)
	}
}

// lockEffects applies a builtin's effect on the walker's lockset state.
func (w *fnwalk) lockEffects(b *types.Builtin, e *ast.Call) {
	lockArg := func(i int) []pointsto.Ref {
		if i < len(e.Args) {
			return w.a.pts.EvalValue(w.env, w.fn, e.Args[i])
		}
		return nil
	}
	switch b.Name {
	case "mutexLock":
		refs := lockArg(0)
		for _, r := range refs {
			w.may[r.Obj] = true
		}
		// Only a provably unique lock object may enter the must-held set:
		// the alias must be a singleton and the allocation site must denote
		// one run-time mutex.
		if len(refs) == 1 && w.a.pts.UniqueAlloc(refs[0].Obj) {
			w.must[refs[0].Obj] = true
		}
	case "mutexUnlock":
		refs := lockArg(0)
		for _, r := range refs {
			delete(w.must, r.Obj)
		}
		if len(refs) == 1 && w.a.pts.UniqueAlloc(refs[0].Obj) {
			delete(w.may, refs[0].Obj)
		}
	case "condWait":
		// The mutex is released during the wait but re-acquired before the
		// call returns, so must-held is unchanged across it; the wait
		// itself may block forever.
		for _, r := range lockArg(1) {
			w.may[r.Obj] = true
		}
		w.nonTot++
	case "join", "assert":
		w.nonTot++
	case "spawn":
		if w.fn != "main" {
			w.a.spawnElsewhere = true
		} else if w.a.firstSpawn < 0 || w.seq < w.a.firstSpawn {
			w.a.firstSpawn = w.seq
		}
		if w.fn == "main" && w.definite() && len(e.Args) > 0 {
			if id, ok := e.Args[0].(*ast.Ident); ok {
				if fi := w.a.w.Funcs[id.Name]; fi != nil {
					if _, seen := w.a.spawnSeq[id.Name]; !seen {
						w.a.spawnSeq[id.Name] = w.seq
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// classification

func (a *analyzer) classify() {
	a.classifyLocked()
	a.classifyDynamic()
	a.classifyReadonly()
	a.findMustRaces()
	a.runAbsint()
	a.findMayRaces()
}

// runAbsint stages the abstract-interpretation tier after the lockset
// discharge passes: candidates are the dynamic sites the lockset tier kept,
// minus must-race positions (those checks are expected to fire, so no proof
// may build on their elision).
func (a *analyzer) runAbsint() {
	opts := a.absintOpts
	if !opts.MHP && !opts.Intervals {
		return
	}
	excluded := make(map[token.Pos]bool)
	for _, f := range a.findings {
		if f.Severity == "must" && f.Kind == "race" {
			excluded[f.Pos] = true
			if f.OtherPos != (token.Pos{}) {
				excluded[f.OtherPos] = true
			}
		}
	}
	facts := &absint.Facts{
		World:          a.w,
		Inf:            a.inf,
		Pts:            a.pts,
		Discharged:     a.discharge.Dynamic,
		Excluded:       excluded,
		SpawnElsewhere: a.spawnElsewhere,
		FirstSpawn:     a.firstSpawn,
	}
	for _, acc := range a.accesses {
		if acc.mode != types.ModeDynamic && acc.mode != types.ModeLocked {
			continue
		}
		rec := absint.Access{
			Fn:     acc.fn,
			Pos:    acc.pos,
			LV:     acc.lv,
			Write:  acc.write,
			Locked: acc.mode == types.ModeLocked,
			Objs:   acc.objs,
			Seq:    acc.seq,
		}
		if rec.Locked {
			rec.Must = sortedObjs(acc.must)
		}
		facts.Accesses = append(facts.Accesses, rec)
	}
	facts.Accesses = append(facts.Accesses, a.referents...)

	res := absint.Analyze(facts, opts)
	a.absintStats = res.Stats

	positions := make([]token.Pos, 0, len(res.Dynamic))
	for pos := range res.Dynamic {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return posLess(positions[i], positions[j]) })
	for _, pos := range positions {
		if a.discharge.Dynamic[pos] {
			continue
		}
		a.discharge.Dynamic[pos] = true
		a.discharge.Provenance[pos] = "absint"
		a.verdicts[posKey(pos)] = "safe"
		a.proofs[posKey(pos)] = res.Dynamic[pos]
		// Stats count access records, matching classifyDynamic (a position
		// read and written counts twice); referent-only positions carry no
		// dynamic access record and add nothing.
		for _, wr := range []bool{false, true} {
			if acc, ok := a.accIdx[accessKey{pos: pos, write: wr}]; ok && acc.mode == types.ModeDynamic {
				a.stats.SafeDynamic++
				a.stats.SafeAbsint++
			}
		}
	}
}

func sortedObjs(s map[pointsto.Obj]bool) []pointsto.Obj {
	out := make([]pointsto.Obj, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// precedesSharing reports whether acc provably executes before any other
// thread can exist. Main runs alone until its first spawn call, so any
// access under a main statement strictly before the statement containing
// the first spawn is single-threaded regardless of branches or loops —
// provided no spawn hides in another function, where main's statement
// ordering cannot see it.
func (a *analyzer) precedesSharing(acc *access) bool {
	if a.spawnElsewhere || acc.fn != "main" || acc.seq < 0 {
		return false
	}
	return a.firstSpawn < 0 || acc.seq < a.firstSpawn
}

func lockObjs(refs []pointsto.Ref) []pointsto.Obj {
	seen := make(map[pointsto.Obj]bool)
	var out []pointsto.Obj
	for _, r := range refs {
		if !seen[r.Obj] {
			seen[r.Obj] = true
			out = append(out, r.Obj)
		}
	}
	return out
}

func (a *analyzer) classifyLocked() {
	for _, acc := range a.accesses {
		if acc.mode != types.ModeLocked {
			continue
		}
		a.stats.LockedSites++
		objs := lockObjs(acc.lockRefs)
		// safe: the lock expression denotes exactly one run-time mutex and
		// that mutex is provably held at the access.
		if len(objs) == 1 && a.pts.UniqueAlloc(objs[0]) && acc.must[objs[0]] {
			if !a.noDischarge[acc.pos] {
				a.discharge.Locked[acc.pos] = true
				a.stats.SafeLocked++
				a.verdicts[posKey(acc.pos)] = "safe"
			}
			continue
		}
		// violation: the may-held set provably never contains an alias of
		// the required lock.
		if len(objs) == 0 {
			continue // lock never allocated on any path we saw: stay checked
		}
		anyMay := false
		for _, o := range objs {
			if acc.may[o] {
				anyMay = true
				break
			}
		}
		if anyMay {
			continue // possibly held: the runtime check decides
		}
		sev := "may"
		if a.definitelyRuns(acc) {
			sev = "must"
		}
		f := Finding{
			Severity: sev,
			Kind:     "lock",
			Site:     posKey(acc.pos),
			LValue:   acc.lv,
			Msg: fmt.Sprintf("access to locked storage in %s: no alias of the required lock is ever in the held set on any path to this site",
				acc.fn),
			Pos: acc.pos,
		}
		a.findings = append(a.findings, f)
		a.verdicts[posKey(acc.pos)] = sev + "-lock"
	}
}

// definitelyRuns reports whether the access provably executes in some run:
// a straight-line site in main, or in a thread root that main definitely
// spawns.
func (a *analyzer) definitelyRuns(acc *access) bool {
	if !acc.definite {
		return false
	}
	if acc.fn == "main" {
		return true
	}
	_, spawned := a.spawnSeq[acc.fn]
	return spawned
}

func (a *analyzer) classifyDynamic() {
	for _, acc := range a.accesses {
		if acc.mode != types.ModeDynamic {
			continue
		}
		a.stats.DynamicSites++
		if len(acc.objs) == 0 || a.noDischarge[acc.pos] {
			continue
		}
		ok := true
		for _, r := range acc.objs {
			if !a.pts.SingleThreadHeap(r.Obj) || a.pts.Scasted(r.Obj) {
				ok = false
				break
			}
		}
		if ok {
			// Every object this l-value can reach is a heap object touched
			// by at most one single-instance thread class: the shadow
			// check can never fire and is discharged.
			a.discharge.Dynamic[acc.pos] = true
			a.stats.SafeDynamic++
			a.verdicts[posKey(acc.pos)] = "safe"
		}
	}
}

func (a *analyzer) classifyReadonly() {
	for _, acc := range a.accesses {
		if acc.mode != types.ModeReadonly || !acc.write {
			continue
		}
		// The standard init idiom writes readonly fields through a private
		// pointer before the object is ever shared; only writes that can
		// execute once another thread may hold a reference are findings.
		if a.precedesSharing(acc) {
			continue
		}
		f := Finding{
			Severity: "may",
			Kind:     "readonly-write",
			Site:     posKey(acc.pos),
			LValue:   acc.lv,
			Msg:      fmt.Sprintf("write to readonly storage in %s after sharing", acc.fn),
			Pos:      acc.pos,
		}
		a.findings = append(a.findings, f)
		a.verdicts[posKey(acc.pos)] = "readonly-write"
	}
}

// singleClass returns the unique thread class that can execute fn, or "".
// For must findings the access must additionally execute straight-line
// from the thread's start, so the function must *be* the class entry
// (main or the root itself).
func (a *analyzer) singleClass(fn string) string {
	cs := a.pts.FuncClasses(fn)
	if len(cs) != 1 || cs[0] != fn {
		return ""
	}
	return cs[0]
}

// findMustRaces reports provable parallel conflicting accesses to dynamic
// storage: two definite straight-line accesses to the same global cell
// from two different single-instance threads whose lifetimes provably
// overlap, at least one a write, with no common possibly-held lock and no
// sharing cast ever applied to the cell's object.
func (a *analyzer) findMustRaces() {
	type cellKey struct {
		name string
		idx  int64
	}
	cells := make(map[cellKey][]*access)
	var keys []cellKey
	for _, acc := range a.accesses {
		if acc.mode != types.ModeDynamic || acc.gidx == -2 {
			continue
		}
		k := cellKey{acc.global, acc.gidx}
		if cells[k] == nil {
			keys = append(keys, k)
		}
		cells[k] = append(cells[k], acc)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].idx < keys[j].idx
	})
	for _, k := range keys {
		accs := cells[k]
		sort.Slice(accs, func(i, j int) bool {
			if accs[i].pos != accs[j].pos {
				return posLess(accs[i].pos, accs[j].pos)
			}
			return !accs[i].write && accs[j].write
		})
		for i := 0; i < len(accs); i++ {
			found := false
			for j := i + 1; j < len(accs); j++ {
				if a.mustPair(accs[i], accs[j]) {
					x, y := accs[i], accs[j]
					f := Finding{
						Severity: "must",
						Kind:     "race",
						Site:     posKey(x.pos),
						LValue:   x.lv,
						Other:    posKey(y.pos),
						OtherLV:  y.lv,
						Threads:  []string{a.singleClass(x.fn), a.singleClass(y.fn)},
						Msg: fmt.Sprintf("parallel conflicting access to dynamic storage: %s in thread '%s' races with %s of %s at %s in thread '%s'; no common lock, no intervening sharing cast",
							accWord(x), a.singleClass(x.fn), accWord(y), y.lv, posKey(y.pos), a.singleClass(y.fn)),
						Pos:      x.pos,
						OtherPos: y.pos,
					}
					a.findings = append(a.findings, f)
					a.verdicts[posKey(x.pos)] = "must-race"
					a.verdicts[posKey(y.pos)] = "must-race"
					found = true
					break // one finding per cell
				}
			}
			if found {
				break
			}
		}
	}
}

func accWord(acc *access) string {
	if acc.write {
		return "write"
	}
	return "read"
}

func (a *analyzer) mustPair(x, y *access) bool {
	if !x.write && !y.write {
		return false
	}
	cx, cy := a.singleClass(x.fn), a.singleClass(y.fn)
	if cx == "" || cy == "" || cx == cy {
		return false
	}
	if !x.definite || !y.definite {
		return false
	}
	// Lifetimes must provably overlap. A definite access has no blocking
	// operation (in particular no join) before it, so the only ordering
	// constraint to establish is that each non-main thread is definitely
	// started before a main-side access runs.
	for _, p := range []*access{x, y} {
		c := a.singleClass(p.fn)
		if c == "main" {
			continue
		}
		if a.pts.ClassMany(c) {
			return false
		}
		sseq, ok := a.spawnSeq[c]
		if !ok {
			return false
		}
		other := x
		if p == x {
			other = y
		}
		if other.fn == "main" && other.seq <= sseq {
			return false
		}
	}
	// No common possibly-held lock, and no sharing cast on the cell.
	for o := range x.may {
		if y.may[o] {
			return false
		}
	}
	for _, p := range []*access{x, y} {
		for _, r := range p.objs {
			if a.pts.Scasted(r.Obj) {
				return false
			}
		}
	}
	return true
}

// findMayRaces reports possible races at object granularity: a heap or
// global object written by code of two thread classes (or one
// multi-instance class) with no lock possibly held in common across all
// its accesses, and no must finding already covering it.
func (a *analyzer) findMayRaces() {
	mustObjs := make(map[pointsto.Obj]bool)
	for _, f := range a.findings {
		if f.Severity != "must" || f.Kind != "race" {
			continue
		}
		for _, acc := range a.accesses {
			if acc.pos == f.Pos || acc.pos == f.OtherPos {
				for _, r := range acc.objs {
					mustObjs[r.Obj] = true
				}
			}
		}
	}
	groups := make(map[pointsto.Obj][]*access)
	for _, acc := range a.accesses {
		if acc.mode != types.ModeDynamic {
			continue
		}
		seen := make(map[pointsto.Obj]bool)
		for _, r := range acc.objs {
			if !seen[r.Obj] {
				seen[r.Obj] = true
				groups[r.Obj] = append(groups[r.Obj], acc)
			}
		}
	}
	var objs []pointsto.Obj
	for o := range groups {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, o := range objs {
		if mustObjs[o] {
			continue
		}
		accs := groups[o]
		if len(accs) < 2 {
			continue
		}
		write := false
		classes := make(map[string]bool)
		multi := false
		for _, acc := range accs {
			if acc.write {
				write = true
			}
			for _, c := range a.pts.FuncClasses(acc.fn) {
				classes[c] = true
				if c != "main" && a.pts.ClassMany(c) {
					multi = true
				}
			}
		}
		if !write || (len(classes) < 2 && !multi) {
			continue
		}
		// Eraser-style: if some lock is possibly held at every access the
		// discipline may be consistent; only lock-free sharing is flagged.
		common := clone(accs[0].may)
		for _, acc := range accs[1:] {
			common = intersect(common, acc.may)
		}
		if len(common) > 0 {
			continue
		}
		sort.Slice(accs, func(i, j int) bool { return posLess(accs[i].pos, accs[j].pos) })
		anchor := accs[0]
		// absint resolution: when every access site of the group is
		// discharged and at least one proof came from the absint tier, the
		// would-be finding is reported as resolved — the sharing it
		// describes is proven unable to fail a check.
		allSafe, anyAbsint := true, false
		reasonSet := make(map[string]bool)
		for _, acc := range accs {
			if !a.discharge.Dynamic[acc.pos] {
				allSafe = false
				break
			}
			if a.discharge.ProvenanceOf(acc.pos) == "absint" {
				anyAbsint = true
				if p, ok := a.proofs[posKey(acc.pos)]; ok {
					reasonSet[p.Reason] = true
				}
			}
		}
		if allSafe && anyAbsint {
			var reasons []string
			for r := range reasonSet {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			info := a.pts.Obj(o)
			a.resolved = append(a.resolved, Resolved{
				Site:    posKey(anchor.pos),
				LValue:  anchor.lv,
				Reasons: strings.Join(reasons, ","),
				Msg: fmt.Sprintf("sharing of %s object '%s' proven check-free across %d site(s): %s",
					info.Kind, info.Name, len(accs), strings.Join(reasons, ", ")),
			})
			continue
		}
		var cls []string
		for c := range classes {
			cls = append(cls, c)
		}
		sort.Strings(cls)
		info := a.pts.Obj(o)
		f := Finding{
			Severity: "may",
			Kind:     "race",
			Site:     posKey(anchor.pos),
			LValue:   anchor.lv,
			Threads:  cls,
			Msg: fmt.Sprintf("possible unsynchronized sharing of %s object '%s' (%d access site(s), threads: %s) with no common lock",
				info.Kind, info.Name, len(accs), strings.Join(cls, ", ")),
			Pos: anchor.pos,
		}
		a.findings = append(a.findings, f)
		if _, ok := a.verdicts[posKey(anchor.pos)]; !ok {
			a.verdicts[posKey(anchor.pos)] = "may-race"
		}
	}
}
