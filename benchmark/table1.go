package main

import (
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
)

// runTable1 is the paper's experiment: free-running executions of the
// Table-1 models at full scale, each built checked and uninstrumented
// (orig), the two builds run back to back. One caller, closed loop.
func runTable1(b *bench) error {
	progs, err := loadPrograms(b.exp, programSets[b.workload])
	if err != nil {
		return err
	}
	type pair struct{ checked, orig *ir.Program }
	builds := make([]pair, len(progs))
	err = b.setUp(func() error {
		for i, p := range progs {
			c, err := buildProgram(p, compile.DefaultOptions())
			if err != nil {
				return err
			}
			o, err := buildProgram(p, compile.Options{})
			if err != nil {
				return err
			}
			builds[i] = pair{c, o}
		}
		return nil
	})
	if err != nil {
		return err
	}
	gen := newGenerator(b.workload, b.seed, len(progs))
	b.use = b.rotate(b.window, 2*len(progs), func(lane int) {
		op := gen.next()
		p := progs[op.prog]
		prog, kind := builds[op.prog].checked, p.label()+".checked"
		cfg := interp.DefaultConfig()
		if op.orig {
			prog, kind = builds[op.prog].orig, p.label()+".orig"
			cfg.RC = interp.RCOff
		}
		c := opCtx{tr: b.tr, op: op.n, lane: lane}
		c.parent = b.tr.begin("table1.op", op.n, lane, -1)
		var (
			rt     *interp.Runtime
			exit   int64
			runErr error
			newMB  float64
		)
		start := time.Now()
		dNew := c.call("interp.new", func() {
			a0 := b.allocMark()
			rt = interp.New(prog, cfg)
			newMB = float64(b.allocMark()-a0) / mb
		})
		dRun := c.call("interp.run", func() { exit, runErr = rt.Run() })
		reports := rt.Reports()
		d := time.Since(start)
		b.tr.finish(c.parent)

		err := checkRun(p, exit, runErr, reports)
		b.rec.record(kind, d, err)
		if err != nil || b.tr == nil {
			return
		}
		b.layers.add("interp.new_ms", ms(dNew))
		b.layers.add("interp.new_mb", newMB)
		if op.orig {
			b.layers.add("interp.run_ms_orig", ms(dRun))
			return
		}
		b.layers.add("interp.run_ms", ms(dRun))
		st := rt.Stats()
		b.layers.add("interp.accesses", float64(st.TotalAccesses))
		b.layers.add("shadow.dynamic_checks", float64(st.DynamicAccesses))
		b.layers.add("locklog.lock_checks", float64(st.LockChecks))
		b.layers.add("refcount.barriers", float64(st.Barriers))
		b.layers.add("refcount.collections", float64(st.Collections))
		b.layers.add("shadow.pages", float64(st.ShadowPages))
		b.layers.add("interp.heap_pages", float64(st.HeapPages))
	})
	// The paper's columns: each build's time as the geometric mean over the
	// programs of each program's median run.
	var checked, orig []float64
	for _, p := range progs {
		checked = append(checked, b.rec.kindMedian(p.label()+".checked"))
		orig = append(orig, b.rec.kindMedian(p.label()+".orig"))
	}
	b.derived["checked_ms"] = geomean(checked)
	b.derived["orig_ms"] = geomean(orig)
	if o := b.derived["orig_ms"]; o > 0 {
		b.derived["overhead_pct"] = 100 * (b.derived["checked_ms"]/o - 1)
	}
	return b.setUpAgain()
}

// checkRun compares one execution with the pinned answer.
func checkRun(p *program, exit int64, runErr error, reports []interp.Report) error {
	if runErr != nil {
		return fmt.Errorf("%s: run: %w", p.id, runErr)
	}
	if exit != p.want.Exit {
		return fmt.Errorf("%s: exit %d, want %d", p.id, exit, p.want.Exit)
	}
	kinds := make([]string, len(reports))
	sites := make([]string, len(reports))
	for i, r := range reports {
		kinds[i], sites[i] = r.Kind.String(), r.Pos.String()
	}
	return p.checkReports(kinds, sites)
}
