// Package sharc is a Go reproduction of SharC, the data-sharing checker
// for multithreaded C of Anderson, Gay, Ennals and Brewer (PLDI 2008).
//
// SharC lets a programmer annotate the types of a C-like program (the ShC
// dialect implemented here) with five sharing modes — private, readonly,
// locked(l), racy, and dynamic — and verifies, with a mix of static
// analysis and runtime instrumentation, that every access conforms:
//
//   - a whole-program qualifier inference (§4.1 of the paper) decides
//     private-vs-dynamic for every unannotated type, seeded by thread
//     arguments and thread-touched globals;
//   - a static checker enforces the typing judgments (assignments and calls
//     preserve referent modes, readonly is written only while private,
//     sharing casts change exactly one mode level) and suggests SCAST
//     insertions where only a top referent mode mismatches;
//   - the runtime tracks reader/writer sets in shadow memory for dynamic
//     data, held locks for locked data, and reference counts (an adapted
//     Levanoni–Petrank concurrent scheme) so sharing casts can verify
//     their source is the sole reference.
//
// The package is a facade over the internal pipeline: Check analyzes
// sources, Build compiles them with selectable instrumentation, and Run
// executes them on the concurrent interpreter, returning the violation
// reports in the paper's format.
package sharc

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vet"
)

// Source is one named ShC source text.
type Source = parser.Source

// Options selects analysis and instrumentation behavior.
type Options struct {
	// Checks enables the dynamic/locked runtime checks (default true via
	// DefaultOptions).
	Checks bool
	// RefCounting enables write barriers and the oneref check on sharing
	// casts.
	RefCounting bool
	// RCSiteAnalysis restricts barriers to pointers that may reach a
	// sharing cast (§4.3's optimization).
	RCSiteAnalysis bool
	// NaiveRC replaces the Levanoni–Petrank scheme with per-write atomic
	// counting (the scheme the paper measured at >60% overhead).
	NaiveRC bool
	// StaticDischarge runs the whole-program vet analysis (points-to +
	// locksets, internal/vet) at build time and compiles its safe verdicts
	// as already-elided checks: must-held locksets discharge locked checks
	// across calls and single-thread heap objects discharge dynamic
	// checks. Counted in Elision().DischargedDynamic/DischargedLocked.
	StaticDischarge bool
	// Stdout receives program output (io.Discard if nil).
	Stdout io.Writer
	// Observer taps accesses and synchronization for external detectors.
	Observer interp.Observer
	// Metrics enables per-site telemetry collection; the aggregated
	// snapshot appears on Result.Telemetry.
	Metrics bool
	// TraceEvents, when positive, enables structured event tracing with a
	// ring buffer of that many events (Result.Trace).
	TraceEvents int
}

// DefaultOptions enables full instrumentation.
func DefaultOptions() Options {
	return Options{Checks: true, RefCounting: true, RCSiteAnalysis: true}
}

// Analysis is the result of static analysis: errors, warnings, and sharing
// cast suggestions, plus access to the resolved world for inspection.
type Analysis struct {
	inner *core.Analysis
}

// Check parses and analyzes the sources.
func Check(sources ...Source) (*Analysis, error) {
	a, err := core.Analyze(sources...)
	if err != nil {
		return nil, err
	}
	return &Analysis{inner: a}, nil
}

// OK reports whether the program passed all static checks.
func (a *Analysis) OK() bool { return a.inner.Check.OK() }

// Errors returns the static errors, formatted with positions.
func (a *Analysis) Errors() []string {
	var out []string
	for _, e := range a.inner.Check.Errors {
		out = append(out, e.Error())
	}
	return out
}

// Warnings returns the warnings (e.g. SCAST sources live after the cast).
func (a *Analysis) Warnings() []string {
	var out []string
	for _, w := range a.inner.Check.Warnings {
		out = append(out, w.Error())
	}
	return out
}

// Suggestions returns the sharing-cast suggestions in source form.
func (a *Analysis) Suggestions() []string {
	var out []string
	for _, s := range a.inner.Check.Suggestions {
		out = append(out, s.String())
	}
	return out
}

// RawSuggestions exposes the structured suggestions.
func (a *Analysis) RawSuggestions() []check.Suggestion {
	return a.inner.Check.Suggestions
}

// InferredAnnotations renders the sharing modes inference selected for
// every struct field, global, function signature, and local — the view
// Figure 2 of the paper shows for the pipeline example.
func (a *Analysis) InferredAnnotations() string {
	w := a.inner.World
	s := a.inner.Inf.Subst
	var sb strings.Builder

	resolve := func(t *types.Type) string {
		return renderResolved(s, t)
	}

	var structNames []string
	for name := range w.Structs {
		structNames = append(structNames, name)
	}
	sort.Strings(structNames)
	for _, name := range structNames {
		si := w.Structs[name]
		if si.Decl != nil && si.Decl.P.File == "<prelude>" {
			continue
		}
		fmt.Fprintf(&sb, "struct %s(q) {\n", name)
		for _, f := range si.Fields {
			fmt.Fprintf(&sb, "\t%s %s;\n", resolve(f.Type), f.Name)
		}
		sb.WriteString("};\n")
	}

	var globalNames []string
	for name := range w.Globals {
		globalNames = append(globalNames, name)
	}
	sort.Strings(globalNames)
	for _, name := range globalNames {
		fmt.Fprintf(&sb, "%s %s;\n", resolve(w.Globals[name].Type), name)
	}

	var funcNames []string
	for name := range w.Funcs {
		funcNames = append(funcNames, name)
	}
	sort.Strings(funcNames)
	for _, name := range funcNames {
		fi := w.Funcs[name]
		if fi.Decl.Body == nil {
			continue
		}
		fmt.Fprintf(&sb, "%s %s(", resolve(fi.Ret), name)
		for i, p := range fi.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %s", resolve(p.Type), p.Name)
		}
		sb.WriteString(")\n")
		// Locals in declaration order (by position).
		type loc struct {
			line, col int
			text      string
		}
		var locs []loc
		for d, lt := range fi.Locals {
			locs = append(locs, loc{d.P.Line, d.P.Col, fmt.Sprintf("\t%s %s;", resolve(lt), d.Name)})
		}
		sort.Slice(locs, func(i, j int) bool {
			if locs[i].line != locs[j].line {
				return locs[i].line < locs[j].line
			}
			return locs[i].col < locs[j].col
		})
		for _, l := range locs {
			sb.WriteString(l.text)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// renderResolved renders a type with inference variables substituted.
func renderResolved(s types.Subst, t *types.Type) string {
	if t == nil {
		return "<nil>"
	}
	c := t.Clone()
	var walk func(*types.Type)
	walk = func(x *types.Type) {
		if x == nil {
			return
		}
		x.Mode = s.Apply(x.Mode)
		walk(x.Elem)
		walk(x.Ret)
		for _, p := range x.Params {
			walk(p)
		}
	}
	walk(c)
	return c.String()
}

// Program is a compiled, instrumented ShC program ready to run.
type Program struct {
	ir   *ir.Program
	opts Options
}

// Build compiles the analyzed program with the given instrumentation.
func (a *Analysis) Build(opts Options) (*Program, error) {
	copts := compile.Options{
		Checks:         opts.Checks,
		RC:             opts.RefCounting,
		RCSiteAnalysis: opts.RCSiteAnalysis,
	}
	if opts.StaticDischarge && opts.Checks {
		copts.Discharge = a.Vet().Discharge()
	}
	p, err := a.inner.Build(copts)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p, opts: opts}, nil
}

// VetReport is the result of the whole-program static vet analysis; see
// internal/vet.
type VetReport = vet.Report

// Vet runs the points-to + lockset static analysis over the checked
// program: ranked must/may findings plus the check-discharge set.
func (a *Analysis) Vet() *VetReport {
	return vet.Analyze(a.inner.World, a.inner.Inf)
}

// Elision returns the build's check-site counts: checks compiled and
// checks discharged statically.
func (p *Program) Elision() ir.ElisionStats { return p.ir.Elision }

// Result is the outcome of executing a program.
type Result struct {
	Exit    int64
	Reports []interp.Report
	Stats   interp.Stats
	// Deadlock is set when the cooperative scheduler found all threads
	// blocked (only possible under seeded/replayed runs; a free run hangs
	// instead).
	Deadlock bool
	// Telemetry holds the per-site metrics snapshot (nil unless the
	// program ran with Options.Metrics).
	Telemetry *telemetry.Snapshot
	// Trace is the structured event stream (nil unless Options.TraceEvents
	// was positive).
	Trace *telemetry.Tracer
}

// Races returns the conflict reports (the paper's read/write conflict
// format).
func (r *Result) Races() []interp.Report {
	return filterReports(r.Reports, interp.ReportRace)
}

// LockViolations returns reports of locked-mode accesses without the lock.
func (r *Result) LockViolations() []interp.Report {
	return filterReports(r.Reports, interp.ReportLock)
}

// OneRefFailures returns sharing casts whose source was not the sole
// reference.
func (r *Result) OneRefFailures() []interp.Report {
	return filterReports(r.Reports, interp.ReportOneRef)
}

func filterReports(rs []interp.Report, k interp.ReportKind) []interp.Report {
	var out []interp.Report
	for _, r := range rs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// baseConfig translates the build options into a runtime configuration.
func (p *Program) baseConfig() interp.Config {
	cfg := interp.DefaultConfig()
	cfg.Stdout = p.opts.Stdout
	cfg.Observer = p.opts.Observer
	cfg.Metrics = p.opts.Metrics
	cfg.TraceCapacity = p.opts.TraceEvents
	if !p.opts.RefCounting {
		cfg.RC = interp.RCOff
	} else if p.opts.NaiveRC {
		cfg.RC = interp.RCNaive
	}
	return cfg
}

func (p *Program) runWith(ctl *sched.Controller) (*Result, error) {
	cfg := p.baseConfig()
	cfg.Sched = ctl
	rt := interp.New(p.ir, cfg)
	exit, err := rt.Run()
	res := &Result{
		Exit:      exit,
		Reports:   rt.Reports(),
		Stats:     rt.Stats(),
		Telemetry: rt.TelemetrySnapshot(),
		Trace:     rt.Tracer(),
	}
	if ctl != nil {
		res.Deadlock = ctl.Deadlocked()
	}
	return res, err
}

// Run executes the compiled program on the free-running Go scheduler.
func (p *Program) Run() (*Result, error) { return p.runWith(nil) }

// RunSeeded executes the program under the cooperative scheduler with a
// seeded uniform-random strategy: the same (program, seed) pair reproduces
// the identical execution, reports, and exit value.
func (p *Program) RunSeeded(seed int64) (*Result, error) {
	return p.runWith(sched.New(sched.NewRandom(seed), sched.Options{}))
}

// RunRecorded is RunSeeded plus schedule recording: the returned trace
// replays the execution exactly with RunReplay, including against a build
// of the same program with different elision options (the elision
// soundness oracle).
func (p *Program) RunRecorded(seed int64) (*Result, *sched.Trace, error) {
	ctl := sched.New(sched.NewRandom(seed), sched.Options{Record: true})
	res, err := p.runWith(ctl)
	return res, ctl.Trace(), err
}

// RunReplay re-executes a recorded schedule. diverged reports whether the
// trace failed to match the execution (replaying against a different
// program, or one whose instrumentation changed its scheduling points).
func (p *Program) RunReplay(tr *sched.Trace) (res *Result, diverged bool, err error) {
	ctl := sched.New(sched.NewReplay(tr), sched.Options{})
	res, err = p.runWith(ctl)
	return res, ctl.Diverged(), err
}

// ExploreOptions configures Explore; see interp.ExploreOptions.
type ExploreOptions = interp.ExploreOptions

// ExploreSummary is the coverage report of Explore.
type ExploreSummary = interp.ExploreSummary

// Explore runs the program under many controlled schedules and aggregates
// the distinct (site, kind) findings with the schedule that first exposed
// each one.
func (p *Program) Explore(opt ExploreOptions) *ExploreSummary {
	return interp.Explore(p.ir, p.baseConfig(), opt)
}

// ExploreSummaryJSON renders an exploration summary as indented JSON.
func ExploreSummaryJSON(sum *ExploreSummary) ([]byte, error) {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Run is the one-call pipeline: check, build, execute. Static errors abort
// with a combined error.
func Run(src string, opts Options) (*Result, error) {
	a, err := Check(Source{Name: "program.shc", Text: src})
	if err != nil {
		return nil, err
	}
	if !a.OK() {
		return nil, fmt.Errorf("static checking failed: %s", a.Errors()[0])
	}
	p, err := a.Build(opts)
	if err != nil {
		return nil, err
	}
	return p.Run()
}
