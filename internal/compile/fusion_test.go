package compile_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/vet"
)

// TestRegoptLeavesNoFusablePair is the fusion and threading
// postcondition: after the default pipeline, on every corpus program and
// every Table-1 model at both scales, in the checked and the uninstrumented
// build, no pair regopt knows how to fuse survives with a dead
// intermediate register, and no jump the thread pass knows how to thread
// survives.
func TestRegoptLeavesNoFusablePair(t *testing.T) {
	fused := map[ir.Op]int{}
	backBranches := 0
	for _, pr := range corpusAndModels(t) {
		a, err := core.Analyze(parser.Source{Name: pr.name, Text: pr.src})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, opts := range []compile.Options{compile.DefaultOptions(), {}} {
			p, err := a.Build(opts)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			for i, ff := range p.Flat.Funcs {
				for _, pc := range compile.FusablePairs(ff) {
					t.Errorf("%s %s (checks=%v) pc %d: %v; %v survived regopt", pr.name, p.Funcs[i].Name, opts.Checks, pc, ff.Code[pc-1], ff.Code[pc])
				}
				for _, pc := range compile.ThreadableJumps(ff) {
					t.Errorf("%s %s (checks=%v) pc %d: %v to %v survived thread", pr.name, p.Funcs[i].Name, opts.Checks, pc, ff.Code[pc], ff.Code[ff.Code[pc].A])
				}
				for pc, in := range ff.Code {
					fused[in.Op]++
					if tg := in.Target(); tg != nil && in.Op != ir.FJmp && int(*tg) <= pc {
						backBranches++
					}
				}
			}
		}
	}
	// The postcondition is vacuous if nothing fuses: each kind of
	// superinstruction shows up somewhere in the set, and so do threaded
	// back edges, which are conditional branches to an earlier pc.
	for _, op := range []ir.Op{ir.FLoadFrame, ir.FAddImm, ir.FBrLt, ir.FBrGe,
		ir.FLoadIdx, ir.FLoadChkIdx, ir.FStoreIdx, ir.FMulImm, ir.FModImm, ir.FShrImm,
		ir.FBrEqImm, ir.FBrNeImm, ir.FBrLtImm, ir.FBrLeImm, ir.FBrGtImm, ir.FBrGeImm} {
		if fused[op] == 0 {
			t.Errorf("no %v in any build", op)
		}
	}
	if backBranches == 0 {
		t.Error("no conditional back edge in any build")
	}
}

// TestRegoptLeavesNoRedundantValue pins value numbering's postcondition:
// no pure instruction of a corpus or Table-1 build recomputes a value a
// register of its extended block still holds.
func TestRegoptLeavesNoRedundantValue(t *testing.T) {
	for _, pr := range corpusAndModels(t) {
		a, err := core.Analyze(parser.Source{Name: pr.name, Text: pr.src})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, opts := range []compile.Options{compile.DefaultOptions(), {}} {
			p, err := a.Build(opts)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			for i, ff := range p.Flat.Funcs {
				for _, pc := range compile.RedundantValues(ff) {
					t.Errorf("%s %s (checks=%v) pc %d: %v recomputes an available value", pr.name, p.Funcs[i].Name, opts.Checks, pc, ff.Code[pc])
				}
			}
		}
	}
}

// TestFusionKeepsDischargeAccounting pins the check accounting of the
// discharged builds of aget and the hotsites example to the figures the
// pipeline gave before regopt fused pairs: absint sees the fused opcodes
// and must prove exactly what it proved on the unfused ones.
func TestFusionKeepsDischargeAccounting(t *testing.T) {
	hotsites, err := os.ReadFile(filepath.Join("..", "..", "examples", "profile", "hotsites.shc"))
	if err != nil {
		t.Fatal(err)
	}
	agetStats := ir.ElisionStats{DischargedLocked: 3, DischargedAbsint: 4}
	for _, tc := range []struct {
		name, src string
		want      ir.ElisionStats
		avoided   float64
	}{
		{"aget.quick", bench.AgetSource(bench.Quick), agetStats, 1},
		{"aget.full", bench.AgetSource(bench.Full), agetStats, 1},
		{"hotsites.shc", string(hotsites), ir.ElisionStats{TotalDynamic: 5, DischargedLocked: 3, DischargedAbsint: 1}, 4.0 / 9},
	} {
		a, err := core.Analyze(parser.Source{Name: tc.name, Text: tc.src})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opts := compile.DefaultOptions()
		opts.Discharge = vet.Analyze(a.World, a.Inf).Discharge()
		p, err := a.Build(opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.Elision != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, p.Elision, tc.want)
		}
		if got := p.Elision.AvoidedFraction(); got != tc.avoided {
			t.Errorf("%s: avoided fraction %v, want %v", tc.name, got, tc.avoided)
		}
	}
}
