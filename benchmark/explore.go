package main

import (
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
)

const (
	exploreSchedules = 20
	exploreWorkers   = 2
)

// runExplore measures systematic schedule exploration: each operation
// explores one program under 20 seeded schedules of the mix strategy on 2
// workers. Closed loop, one caller.
func runExplore(b *bench) error {
	progs, err := loadPrograms(b.exp, programSets[b.workload])
	if err != nil {
		return err
	}
	builds := make([]*ir.Program, len(progs))
	err = b.setUp(func() error {
		for i, p := range progs {
			if builds[i], err = buildProgram(p, compile.DefaultOptions()); err != nil {
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
		p, prog := progs[op.prog], builds[op.prog]
		c := opCtx{tr: b.tr, op: op.n, lane: lane}
		c.parent = b.tr.begin("explore.op", op.n, lane, -1)
		var sum *interp.ExploreSummary
		start := time.Now()
		c.call("sched", func() {
			sum = interp.Explore(prog, interp.DefaultConfig(), interp.ExploreOptions{
				Schedules: exploreSchedules, Strategy: "mix", Seed: op.seed, Workers: exploreWorkers,
			})
		})
		d := time.Since(start)
		b.tr.finish(c.parent)
		err := checkExplore(p, sum)
		if err == nil && b.tr != nil {
			b.layers.add("sched.decisions_per_schedule", float64(sum.Decisions)/float64(sum.Schedules))
			b.layers.add("portfolio.dup_frac", float64(sum.Duplicates)/float64(sum.Schedules))
			err = probeSchedule(b, p, prog, op, lane)
		}
		b.rec.record(p.label(), d, err)
	})
	return b.setUpAgain()
}

// probeSchedule runs one schedule of the explored program layer by layer,
// which Explore does not expose: controller, runtime set-up, execution.
func probeSchedule(b *bench, p *program, prog *ir.Program, op opSpec, lane int) error {
	c := opCtx{tr: b.tr, op: op.n, lane: lane}
	c.parent = b.tr.begin("probe", op.n, lane, -1)
	defer b.tr.finish(c.parent)
	cfg := interp.DefaultConfig()
	cfg.SeedRand = op.seed
	c.call("sched.new", func() { cfg.Sched = sched.New(sched.NewRandom(op.seed), sched.Options{}) })
	var (
		rt     *interp.Runtime
		newMB  float64
		exit   int64
		runErr error
	)
	dNew := c.call("interp.new", func() {
		a0 := b.allocMark()
		rt = interp.New(prog, cfg)
		newMB = float64(b.allocMark()-a0) / mb
	})
	dRun := c.call("sched.run", func() { exit, runErr = rt.Run() })
	b.layers.add("interp.new_ms", ms(dNew))
	b.layers.add("interp.new_mb", newMB)
	b.layers.add("sched.run_ms", ms(dRun))
	return checkRun(p, exit, runErr, rt.Reports())
}

// checkExplore compares an exploration with the pinned answer: every
// schedule ran without deadlock, a racy program's race was found, and every
// finding is at a pinned site.
func checkExplore(p *program, sum *interp.ExploreSummary) error {
	if sum.Schedules != exploreSchedules {
		return fmt.Errorf("%s: %d schedules, want %d", p.id, sum.Schedules, exploreSchedules)
	}
	for _, o := range sum.Outcomes {
		if o.Deadlock {
			return fmt.Errorf("%s: schedule %d deadlocked", p.id, o.Index)
		}
	}
	if len(p.want.RaceSites) > 0 && len(sum.Findings) == 0 {
		return fmt.Errorf("%s: no race found in %d schedules", p.id, sum.Schedules)
	}
	kinds := make([]string, len(sum.Findings))
	sites := make([]string, len(sum.Findings))
	for i, f := range sum.Findings {
		kinds[i], sites[i] = f.KindName, f.Site
	}
	return p.checkReports(kinds, sites)
}
