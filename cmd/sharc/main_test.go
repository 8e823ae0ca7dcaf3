package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the sharc binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sharc")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeProg(t *testing.T, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "prog.shc")
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const cleanProg = `
int main(void) {
	print("hello from shc\n");
	return 3;
}
`

const badProg = `
int main(void) {
	int dynamic *p = malloc(4);
	int private *q;
	q = p;
	return 0;
}
`

func TestCLICheckRunInfer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)

	t.Run("check clean", func(t *testing.T) {
		out, err := exec.Command(bin, "check", writeProg(t, cleanProg)).CombinedOutput()
		if err != nil {
			t.Fatalf("check: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "ok") {
			t.Fatalf("output: %s", out)
		}
	})

	t.Run("check rejects and suggests", func(t *testing.T) {
		out, err := exec.Command(bin, "check", writeProg(t, badProg)).CombinedOutput()
		if err == nil {
			t.Fatalf("check should fail:\n%s", out)
		}
		if !strings.Contains(string(out), "sharing modes differ") {
			t.Fatalf("output: %s", out)
		}
		if !strings.Contains(string(out), "suggest SCAST") {
			t.Fatalf("missing suggestion: %s", out)
		}
	})

	t.Run("run executes and exits with main's value", func(t *testing.T) {
		cmd := exec.Command(bin, "run", writeProg(t, cleanProg))
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 3 {
			t.Fatalf("exit: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "hello from shc") {
			t.Fatalf("output: %s", out)
		}
	})

	t.Run("infer prints modes", func(t *testing.T) {
		src := `
void *worker(void *d) { return NULL; }
int main(void) { spawn(worker, malloc(4)); return 0; }
`
		out, err := exec.Command(bin, "infer", writeProg(t, src)).CombinedOutput()
		if err != nil {
			t.Fatalf("infer: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "void dynamic * d") {
			t.Fatalf("inferred modes missing:\n%s", out)
		}
	})

	t.Run("run unchecked", func(t *testing.T) {
		cmd := exec.Command(bin, "run", "-unchecked", writeProg(t, cleanProg))
		out, _ := cmd.CombinedOutput()
		if !strings.Contains(string(out), "hello from shc") {
			t.Fatalf("output: %s", out)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if _, err := exec.Command(bin, "check", "/nonexistent.shc").CombinedOutput(); err == nil {
			t.Fatal("expected failure for missing file")
		}
	})

	t.Run("usage", func(t *testing.T) {
		if _, err := exec.Command(bin).CombinedOutput(); err == nil {
			t.Fatal("expected usage error")
		}
	})
}

// racyProg loses its race on the free-running scheduler (the sleep separates
// the threads' lifetimes) but any seeded schedule can interleave them.
const racyProg = `
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

// TestCLIValidation is the table test over subcommand/flag combinations:
// usage errors exit 2, conflicting flags exit 3, bad values exit 4 — all
// before any source file is opened (the file argument below never exists).
func TestCLIValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)

	cases := []struct {
		name   string
		args   []string
		exit   int
		stderr string
	}{
		{"no args", nil, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate", "x.shc"}, 2, "unknown subcommand"},
		{"unknown flag", []string{"run", "-bogus", "x.shc"}, 2, "flag provided but not defined"},
		{"no files", []string{"run", "-seed", "1"}, 2, "usage"},
		{"explore unknown flag", []string{"explore", "-unchecked", "x.shc"}, 2, "flag provided but not defined"},
		{"record+replay", []string{"run", "-record", "a.json", "-replay", "b.json", "x.shc"}, 3, "mutually exclusive"},
		{"replay+seed", []string{"run", "-replay", "a.json", "-seed", "4", "x.shc"}, 3, "-seed conflicts"},
		{"unchecked+record", []string{"run", "-unchecked", "-record", "a.json", "x.shc"}, 3, "cannot record or replay"},
		{"unchecked+replay", []string{"run", "-unchecked", "-replay", "a.json", "x.shc"}, 3, "cannot record or replay"},
		{"seed out of range", []string{"run", "-seed", "-7", "x.shc"}, 4, "-seed must be"},
		{"zero schedules", []string{"explore", "-schedules", "0", "x.shc"}, 4, "-schedules must be positive"},
		{"negative schedules", []string{"explore", "-schedules", "-3", "x.shc"}, 4, "-schedules must be positive"},
		{"bad strategy", []string{"explore", "-strategy", "dfs", "x.shc"}, 4, "-strategy must be one of"},
		{"negative explore seed", []string{"explore", "-seed", "-1", "x.shc"}, 4, "-seed must be"},
		{"unchecked+discharge", []string{"run", "-unchecked", "-discharge", "x.shc"}, 3, "-discharge has nothing to prove away"},
		{"vet no files", []string{"vet"}, 2, "usage"},
		{"vet unknown flag", []string{"vet", "-seed", "1", "x.shc"}, 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected exit error, got %v\n%s", err, out)
			}
			if ee.ExitCode() != tc.exit {
				t.Fatalf("exit = %d, want %d\n%s", ee.ExitCode(), tc.exit, out)
			}
			if !strings.Contains(string(out), tc.stderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.stderr, out)
			}
		})
	}
}

// TestCLIVet covers the static analysis subcommand: must findings exit 1
// with a ranked report, clean programs exit 0, -json writes the report,
// and -discharge runs are output-identical to plain ones.
func TestCLIVet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)

	t.Run("must race exits 1", func(t *testing.T) {
		prog := writeProg(t, racyProg)
		out, err := exec.Command(bin, "vet", prog).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("vet should exit 1 on must findings: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "must race") {
			t.Fatalf("missing must race finding:\n%s", out)
		}
		if !strings.Contains(string(out), "g[0]") {
			t.Fatalf("finding should name the racing cell:\n%s", out)
		}
	})

	t.Run("clean program exits 0", func(t *testing.T) {
		prog := writeProg(t, cleanProg)
		out, err := exec.Command(bin, "vet", prog).CombinedOutput()
		if err != nil {
			t.Fatalf("vet: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "0 must") {
			t.Fatalf("output: %s", out)
		}
	})

	t.Run("json report", func(t *testing.T) {
		prog := writeProg(t, racyProg)
		jsonOut := filepath.Join(t.TempDir(), "vet.json")
		out, err := exec.Command(bin, "vet", "-json", jsonOut, prog).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("vet: %v\n%s", err, out)
		}
		data, err := os.ReadFile(jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "\"findings\"") || !strings.Contains(string(data), "\"must\"") {
			t.Fatalf("report JSON missing findings:\n%s", data)
		}
	})

	t.Run("discharge preserves run output", func(t *testing.T) {
		prog := writeProg(t, racyProg)
		plain, err1 := exec.Command(bin, "run", "-seed", "9", prog).CombinedOutput()
		disch, err2 := exec.Command(bin, "run", "-seed", "9", "-discharge", prog).CombinedOutput()
		if string(plain) != string(disch) {
			t.Fatalf("discharge changed output:\n%s---\n%s", plain, disch)
		}
		c1, c2 := exitCode(err1), exitCode(err2)
		if c1 != c2 {
			t.Fatalf("discharge changed exit: %d vs %d", c1, c2)
		}
	})
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// TestCLISched covers the scheduled-run surface end to end: seeded runs are
// byte-identical, record produces a trace that replays to the same output,
// and explore finds the seeded race and writes its JSON summary.
func TestCLISched(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)

	t.Run("seeded runs are identical", func(t *testing.T) {
		var first string
		for i := 0; i < 3; i++ {
			cmd := exec.Command(bin, "run", "-seed", "12", prog)
			out, err := cmd.CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 7 {
				t.Fatalf("exit: %v\n%s", err, out)
			}
			if i == 0 {
				first = string(out)
			} else if string(out) != first {
				t.Fatalf("run %d differs:\n%s---\n%s", i, first, out)
			}
		}
	})

	t.Run("record then replay", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "trace.json")
		rec := exec.Command(bin, "run", "-record", trace, "-seed", "5", prog)
		recOut, err := rec.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 7 {
			t.Fatalf("record: %v\n%s", err, recOut)
		}
		if !strings.Contains(string(recOut), "recorded") {
			t.Fatalf("no record confirmation:\n%s", recOut)
		}
		rep := exec.Command(bin, "run", "-replay", trace, prog)
		repOut, err := rep.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 7 {
			t.Fatalf("replay: %v\n%s", err, repOut)
		}
		if strings.Contains(string(repOut), "diverged") {
			t.Fatalf("replay diverged:\n%s", repOut)
		}
	})

	t.Run("explore finds the race", func(t *testing.T) {
		jsonOut := filepath.Join(t.TempDir(), "explore.json")
		cmd := exec.Command(bin, "explore", "-schedules", "40", "-json", jsonOut, prog)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("explore should exit 1 on findings: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "conflict") && !strings.Contains(string(out), "finding") {
			t.Fatalf("no findings in output:\n%s", out)
		}
		data, err := os.ReadFile(jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "\"findings\"") {
			t.Fatalf("summary JSON missing findings:\n%s", data)
		}
	})

	t.Run("explore clean program exits 0", func(t *testing.T) {
		clean := writeProg(t, cleanProg)
		out, err := exec.Command(bin, "explore", "-schedules", "5", clean).CombinedOutput()
		if err != nil {
			t.Fatalf("explore: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "0 distinct finding") {
			t.Fatalf("output: %s", out)
		}
	})
}

// ticketProg is certifiable by the absint interval tier: each worker draws
// a ticket from the lock-protected counter and writes its own two-cell
// granule of the shared buffer, so vet resolves the would-be may race with
// an interval-bounded proof — giving -explain a full proof chain to print.
const ticketProg = `
struct pool {
	mutex *m;
	int locked(m) next;
	char dynamic *buf;
};

void *worker(void *d) {
	struct pool dynamic *p = d;
	while (1) {
		mutexLock(p->m);
		int t = p->next;
		if (t >= 32) { mutexUnlock(p->m); return NULL; }
		p->next = t + 1;
		mutexUnlock(p->m);
		char dynamic *b = p->buf;
		b[t * 2] = 1;
		b[t * 2 + 1] = 2;
	}
	return NULL;
}

int main(void) {
	struct pool *p = malloc(sizeof(struct pool));
	p->m = mutexNew();
	mutexLock(p->m);
	p->next = 0;
	mutexUnlock(p->m);
	char *raw = malloc(64);
	p->buf = SCAST(char dynamic *, raw);
	struct pool dynamic *pd = SCAST(struct pool dynamic *, p);
	int t1 = spawn(worker, pd);
	int t2 = spawn(worker, pd);
	join(t1);
	join(t2);
	return 0;
}
`

// TestCLIVetExplain drives vet -explain end to end: extract a resolved
// site from the plain report, ask for its proof chain, then cover the
// unknown-site, conflicting-flag, and malformed-site exits.
func TestCLIVetExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, ticketProg)

	out, err := exec.Command(bin, "vet", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("vet: %v\n%s", err, out)
	}
	var site string
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[1] == "resolved" {
			site = fields[2]
			break
		}
	}
	if site == "" {
		t.Fatalf("no resolved finding in report:\n%s", out)
	}

	t.Run("proof chain exits 0", func(t *testing.T) {
		out, err := exec.Command(bin, "vet", "-explain", site, prog).CombinedOutput()
		if err != nil {
			t.Fatalf("explain: %v\n%s", err, out)
		}
		for _, want := range []string{"tier 1 lockset", "tier 2 points-to", "tier 3 absint", "interval-bounded"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("explain output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("unknown site exits 1", func(t *testing.T) {
		out, err := exec.Command(bin, "vet", "-explain", prog+":999:1", prog).CombinedOutput()
		if exitCode(err) != 1 {
			t.Fatalf("want exit 1 for a checked site: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "no static verdict") {
			t.Fatalf("output: %s", out)
		}
	})

	t.Run("explain+json conflicts", func(t *testing.T) {
		out, err := exec.Command(bin, "vet", "-explain", site, "-json", "o.json", prog).CombinedOutput()
		if exitCode(err) != 3 {
			t.Fatalf("want exit 3: %v\n%s", err, out)
		}
	})

	t.Run("malformed site exits 4", func(t *testing.T) {
		out, err := exec.Command(bin, "vet", "-explain", "nonsense", prog).CombinedOutput()
		if exitCode(err) != 4 {
			t.Fatalf("want exit 4: %v\n%s", err, out)
		}
	})
}
