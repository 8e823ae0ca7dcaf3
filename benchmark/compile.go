package main

import (
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/check"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/pointsto"
	"repro/internal/qualinfer"
	"repro/internal/types"
	"repro/internal/vet"
)

// built is one program through the front end, the analyses and the
// compiler.
type built struct {
	world *types.World
	inf   *qualinfer.Result
	vet   *vet.Report // nil unless discharge was asked for
	prog  *ir.Program
}

// opCtx places the layer calls of one operation in the trace.
type opCtx struct {
	tr     *tracer
	layers *means
	op     int64
	lane   int
	parent int
}

func (c opCtx) call(name string, fn func()) time.Duration {
	return c.tr.call(name, c.op, c.lane, c.parent, fn)
}

// buildSource runs parse → world → infer → check, then vet when discharge
// is set, then compile. Static errors fail the build.
func buildSource(c opCtx, file, src string, opts compile.Options, discharge bool) (*built, error) {
	var (
		b    built
		tree *ast.Program
		err  error
		res  *check.Result
	)
	d := c.call("parser", func() { tree, err = parser.ParseProgram(parser.Source{Name: file, Text: src}) })
	c.layers.add("parser.parse_ms", ms(d))
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", file, err)
	}
	d = c.call("types", func() { b.world = types.BuildWorld(tree) })
	c.layers.add("types.world_ms", ms(d))
	d = c.call("qualinfer", func() { b.inf = qualinfer.Infer(b.world) })
	c.layers.add("qualinfer.infer_ms", ms(d))
	d = c.call("check", func() { res = check.Check(b.world, b.inf) })
	c.layers.add("check.check_ms", ms(d))
	if !res.OK() {
		return nil, fmt.Errorf("%s: static check: %v", file, res.Errors[0])
	}
	if discharge {
		d = c.call("vet", func() { b.vet = vet.Analyze(b.world, b.inf) })
		c.layers.add("vet.analyze_ms", ms(d))
		opts.Discharge = b.vet.Discharge()
	}
	d = c.call("compile", func() { b.prog, err = compile.Compile(b.world, b.inf, opts) })
	c.layers.add("compile.compile_ms", ms(d))
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", file, err)
	}
	return &b, nil
}

// buildProgram compiles a program for running, outside any trace.
func buildProgram(p *program, opts compile.Options) (*ir.Program, error) {
	b, err := buildSource(opCtx{parent: -1}, p.file, p.source, opts, false)
	if err != nil {
		return nil, err
	}
	return b.prog, nil
}

// runCompile measures cold static checking: every operation takes a program
// of the corpus, made unique by a trailing comment, from source through
// Check, Vet and Build with static discharge. Nothing runs.
func runCompile(b *bench) error {
	progs, err := loadPrograms(b.exp, programSets[b.workload])
	if err != nil {
		return err
	}
	// Set-up checks that every input parses and type-checks.
	err = b.setUp(func() error {
		for _, p := range progs {
			if _, err := buildProgram(p, compile.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	gen := newGenerator(b.workload, b.seed, len(progs))
	b.use = b.rotate(b.window, len(progs), func(lane int) {
		op := gen.next()
		p := progs[op.prog]
		c := opCtx{tr: b.tr, layers: b.layers, op: op.n, lane: lane}
		c.parent = b.tr.begin("compile.op", op.n, lane, -1)
		start := time.Now()
		res, err := buildSource(c, p.file, p.source+op.variant, compile.DefaultOptions(), true)
		d := time.Since(start)
		b.tr.finish(c.parent)
		if err == nil {
			err = checkVet(p, res.vet)
		}
		b.rec.record(p.label(), d, err)
		if err != nil || b.tr == nil {
			return
		}
		gaveUp := 0.0
		if res.vet.Absint.GaveUp {
			gaveUp = 1
		}
		b.layers.add("absint.steps", float64(res.vet.Absint.Steps))
		b.layers.add("absint.gave_up_frac", gaveUp)
		// Count check sites in the emitted code: the ones left to run, and the
		// ones compiled as already elided.
		instrs, kept, elided := 0, 0, 0
		for _, f := range res.prog.Flat.Funcs {
			instrs += len(f.Code)
			for _, c := range f.Checks {
				switch c.Orig.Kind {
				case ir.CheckDynamic, ir.CheckLocked:
					kept++
				case ir.CheckElided:
					elided++
				}
			}
		}
		b.layers.add("compile.flat_instrs", float64(instrs))
		b.layers.add("compile.check_sites", float64(kept))
		if kept+elided > 0 {
			b.layers.add("compile.avoided_frac", float64(elided)/float64(kept+elided))
		}
		// vet runs points-to inside itself; the separate call here, outside
		// the operation's span, times that layer alone.
		probe := b.tr.begin("probe", op.n, lane, -1)
		d = b.tr.call("pointsto", op.n, lane, probe, func() { pointsto.Analyze(res.world, res.inf) })
		b.tr.finish(probe)
		b.layers.add("pointsto.analyze_ms", ms(d))
	})
	return b.setUpAgain()
}

// checkVet compares a vet verdict with the pinned class.
func checkVet(p *program, r *vet.Report) error {
	got := "no-must"
	if r.MustCount() > 0 {
		got = "must"
	}
	if got != p.want.Vet {
		return fmt.Errorf("%s: vet verdict %s, want %s", p.id, got, p.want.Vet)
	}
	return nil
}
