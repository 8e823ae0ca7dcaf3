package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"strings"
)

// The inputs are a snapshot, compiled into the program, so a later change to
// the repository's own examples, test programs or benchmark models cannot
// change what this benchmark measures.
//
//go:embed programs expected.json
var inputFS embed.FS

// answer is the pinned outcome of one program.
type answer struct {
	// Exit is main's return value, the same on every build and schedule.
	Exit int64 `json:"exit"`
	// Reports is the exact report count of a run; it applies only when
	// RaceSites is empty.
	Reports int `json:"reports"`
	// Vet is the class of the static vet verdict: "must" when vet proves at
	// least one violation, "no-must" when it proves none.
	Vet string `json:"vet"`
	// RaceSites are the only sites at which a run or an exploration may
	// report a race.
	RaceSites []string `json:"race_sites"`
}

// expected maps a program id (its path under programs/ without ".shc") to
// its pinned answer.
type expected struct {
	Programs map[string]answer `json:"programs"`
}

func loadExpected() (*expected, error) {
	data, err := inputFS.ReadFile("expected.json")
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// program is one input program with its pinned answer.
type program struct {
	id     string // e.g. "table1/pfscan.full"
	file   string // source file name used in report positions
	source string
	want   answer
}

// label is the short name a program's samples are reported under.
func (p *program) label() string { return strings.TrimSuffix(p.file, ".shc") }

func loadPrograms(exp *expected, ids []string) ([]*program, error) {
	var out []*program
	for _, id := range ids {
		src, err := inputFS.ReadFile("programs/" + id + ".shc")
		if err != nil {
			return nil, err
		}
		want, ok := exp.Programs[id]
		if !ok {
			return nil, fmt.Errorf("expected.json has no answer for %s", id)
		}
		name, _, _ := strings.Cut(path.Base(id), ".")
		out = append(out, &program{id: id, file: name + ".shc", source: string(src), want: want})
	}
	return out, nil
}

// checkReports compares the report sites of one run (or the finding sites
// of one exploration) with the pinned answer. kinds[i] is the report kind
// at sites[i].
func (p *program) checkReports(kinds, sites []string) error {
	if len(p.want.RaceSites) == 0 {
		if len(sites) != p.want.Reports {
			return fmt.Errorf("%s: %d reports, want %d", p.id, len(sites), p.want.Reports)
		}
		return nil
	}
	for i, s := range sites {
		if kinds[i] != "race" || !slices.Contains(p.want.RaceSites, s) {
			return fmt.Errorf("%s: unexpected %s report at %s", p.id, kinds[i], s)
		}
	}
	return nil
}

// Program sets. aget is not in table1: it is bound by its own sleepMs calls.
// fftw is not in explore: under PCT its yield() spin loop starves the
// workers and the schedule's decision log grows without bound.
var (
	table1Programs  = []string{"table1/pfscan.full", "table1/pbzip2.full", "table1/dillo.full", "table1/fftw.full", "table1/stunnel.full"}
	explorePrograms = []string{"racy/handoff", "racy/pair", "racy/reader", "table1/pfscan.quick", "table1/pbzip2.quick", "table1/dillo.quick", "table1/stunnel.quick"}
	servePrograms   = []string{"testdata/bank", "testdata/barrier", "testdata/hashtable", "testdata/linkedlist", "testdata/matmul", "testdata/readers", "testdata/ringbuffer", "testdata/sort", "testdata/racy_pair"}
	compilePrograms = append(append(append([]string{"table1/aget.full"}, table1Programs...), servePrograms...), "testdata/racy_handoff", "testdata/racy_reader", "hotsites")

	programSets = map[string][]string{"table1": table1Programs, "explore": explorePrograms, "compile": compilePrograms, "serve": servePrograms}
)

// opSpec is one generated operation. Which fields matter depends on the
// workload: table1 uses orig, explore and serve use seed, serve uses miss,
// compile and serve use variant.
type opSpec struct {
	n       int64 // position in the sequence
	prog    int   // index into the workload's program list
	orig    bool  // table1: run the uninstrumented build
	seed    int64 // explore: exploration seed; serve: schedule seed
	miss    bool  // serve: send a variant the server has never compiled
	variant string
}

// variantSuffix makes a source text unique without moving any position a
// report could name: a trailing comment.
func variantSuffix(seed, n int64) string { return fmt.Sprintf("\n// variant %d.%d\n", seed, n) }

// generator turns the workload seed into the operation sequence. Every
// rotation visits each program once in a seeded order, so the mix is the
// same for every seed and only the order and the per-op inputs change.
type generator struct {
	workload string
	seed     int64
	rng      *rand.Rand
	order    []int
	pos      int
	n        int64
	// table1 runs each program's two builds back to back.
	second *opSpec
	// serve sends one miss per block of missEvery requests.
	missAt int
}

const missEvery = 10

func newGenerator(workload string, seed int64, programs int) *generator {
	return &generator{
		workload: workload,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		order:    make([]int, programs),
		pos:      programs,
	}
}

func (g *generator) nextProgram() int {
	if g.pos == len(g.order) {
		for i, j := range g.rng.Perm(len(g.order)) {
			g.order[i] = j
		}
		g.pos = 0
	}
	g.pos++
	return g.order[g.pos-1]
}

func (g *generator) next() opSpec {
	defer func() { g.n++ }()
	if g.second != nil {
		op := *g.second
		g.second = nil
		op.n = g.n
		return op
	}
	op := opSpec{n: g.n, prog: g.nextProgram()}
	switch g.workload {
	case "table1":
		// The seed picks which build runs first, so neither always runs on
		// the heap the other left behind.
		op.orig = g.rng.Intn(2) == 0
		g.second = &opSpec{prog: op.prog, orig: !op.orig}
	case "explore":
		op.seed = g.rng.Int63()
	case "compile":
		op.variant = variantSuffix(g.seed, op.n)
	case "serve":
		if op.n%missEvery == 0 {
			g.missAt = g.rng.Intn(missEvery)
		}
		op.seed = 1 + g.rng.Int63n(serveSeeds)
		if int(op.n%missEvery) == g.missAt {
			op.miss = true
			op.variant = variantSuffix(g.seed, op.n)
		}
	}
	return op
}
