package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/compile"
	"repro/internal/interp"
)

// RacyBenchmark is one seeded-race program for the exploration table: a
// program whose data race exists in the interleaving space but whose
// wall-clock thread lifetimes are separated (by sleeps), so a free-running
// execution almost never observes overlapping reader/writer sets in shadow
// memory.
type RacyBenchmark struct {
	Name   string
	Source func() string
	Exit   int64
}

// RacyHandoffSource: main touches a shared cell again after handing it to
// a worker; a sleep separates the lifetimes.
func RacyHandoffSource() string {
	return `
int g[2];

void *worker(void *d) {
	g[0] = 41;
	g[1] = g[1] + 1;
	return NULL;
}

int main(void) {
	int h = spawn(worker, NULL);
	sleepMs(20);
	g[0] = g[0] + 1;
	join(h);
	return 7;
}
`
}

// RacyPairSource: two writers to the same global whose lifetimes a sleep
// keeps disjoint in wall-clock time.
func RacyPairSource() string {
	return `
int shared;

void *early(void *d) {
	shared = 1;
	shared = shared + 1;
	return NULL;
}

void *late(void *d) {
	sleepMs(30);
	shared = 5;
	shared = shared + 1;
	return NULL;
}

int main(void) {
	int h1 = spawn(early, NULL);
	int h2 = spawn(late, NULL);
	join(h1);
	join(h2);
	return 9;
}
`
}

// RacyReaderSource: an unsynchronized publish/poll handoff; the reader
// sleeps past the producer's whole lifetime.
func RacyReaderSource() string {
	return `
int data;
int flag;

void *producer(void *d) {
	data = 42;
	flag = 1;
	return NULL;
}

int main(void) {
	int h = spawn(producer, NULL);
	sleepMs(20);
	int v = data;
	int f = flag;
	join(h);
	if (v > f) return 5;
	return 5;
}
`
}

// RacyBenchmarks lists the exploration programs.
var RacyBenchmarks = []RacyBenchmark{
	{Name: "handoff", Source: RacyHandoffSource, Exit: 7},
	{Name: "pair", Source: RacyPairSource, Exit: 9},
	{Name: "reader", Source: RacyReaderSource, Exit: 5},
}

// ExploreRow compares detection on one racy program: races seen by free
// executions versus races found by systematic schedule exploration.
type ExploreRow struct {
	Name string `json:"name"`

	// Free-running detection: races found across FreeRuns executions on
	// the Go scheduler.
	FreeRuns  int `json:"free_runs"`
	FreeRaces int `json:"free_races"`

	// Explorer detection.
	Schedules     int   `json:"schedules"`
	Decisions     int64 `json:"decisions"`
	Findings      int   `json:"findings"`
	Races         int   `json:"races"`
	FirstSchedule int   `json:"first_schedule"` // -1 if never found
	Deadlocks     int   `json:"deadlocks"`

	Exit int64 `json:"exit"`

	// StaticDischarge records whether the vet discharge pass was part of
	// the measured configuration.
	StaticDischarge bool `json:"static_discharge"`
}

// RunExplore measures one racy benchmark: freeRuns free executions, then
// an exploration of schedules controlled schedules (mix strategy).
func RunExplore(b *RacyBenchmark, freeRuns, schedules int, seed int64) (ExploreRow, error) {
	row := ExploreRow{Name: b.Name, FreeRuns: freeRuns, FirstSchedule: -1}
	prog, err := build(b.Source(), compile.DefaultOptions())
	if err != nil {
		return row, fmt.Errorf("%s (build): %w", b.Name, err)
	}

	for i := 0; i < freeRuns; i++ {
		rt, ret, _, err := runOnce(prog, nil)
		if err != nil {
			return row, fmt.Errorf("%s (free run): %w", b.Name, err)
		}
		if ret != b.Exit {
			return row, fmt.Errorf("%s: free run exit = %d, want %d", b.Name, ret, b.Exit)
		}
		row.FreeRaces += len(rt.ReportsOfKind(interp.ReportRace))
	}

	sum := interp.Explore(prog, interp.DefaultConfig(), interp.ExploreOptions{
		Schedules: schedules, Strategy: "mix", Seed: seed,
	})
	row.Schedules = sum.Schedules
	row.Decisions = sum.Decisions
	row.Findings = len(sum.Findings)
	row.Exit = b.Exit
	for _, f := range sum.Findings {
		if f.Kind == interp.ReportRace {
			row.Races++
			if row.FirstSchedule < 0 || f.Schedule < row.FirstSchedule {
				row.FirstSchedule = f.Schedule
			}
		}
	}
	for _, o := range sum.Outcomes {
		if o.Deadlock {
			row.Deadlocks++
		}
	}
	return row, nil
}

// ExploreTable measures every racy benchmark.
func ExploreTable(freeRuns, schedules int, seed int64) ([]ExploreRow, error) {
	var rows []ExploreRow
	for i := range RacyBenchmarks {
		r, err := RunExplore(&RacyBenchmarks[i], freeRuns, schedules, seed)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// FormatExplore renders the explorer-vs-free-running comparison.
func FormatExplore(rows []ExploreRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %9s %9s %10s %10s %6s %9s %10s\n",
		"Name", "FreeRuns", "FreeRace", "Schedules", "Decisions", "Races", "First@", "Deadlocks")
	for _, r := range rows {
		first := "-"
		if r.FirstSchedule >= 0 {
			first = fmt.Sprintf("%d", r.FirstSchedule)
		}
		fmt.Fprintf(&sb, "%-8s %9d %9d %10d %10d %6d %9s %10d\n",
			r.Name, r.FreeRuns, r.FreeRaces, r.Schedules, r.Decisions,
			r.Races, first, r.Deadlocks)
	}
	return sb.String()
}

// ExploreJSON renders rows machine-readably for BENCH_explore.json.
func ExploreJSON(rows []ExploreRow) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
