package sharc

// Golden-file tests for the telemetry reporting and trace-export surfaces:
// under the deterministic scheduler a fixed (program, seed) pair must
// produce byte-identical profile tables, JSONL traces, and Chrome traces.
// Regenerate with UPDATE_GOLDEN=1 go test -run TestTelemetryGolden ./...

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// buildHotsites compiles the examples/profile program with telemetry on,
// optionally with static discharge.
func buildHotsites(t *testing.T, discharge bool) *Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "profile", "hotsites.shc"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Check(Source{Name: "hotsites.shc", Text: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("static checking failed: %v", a.Errors())
	}
	opts := DefaultOptions()
	opts.Metrics = true
	opts.TraceEvents = 1 << 13
	opts.StaticDischarge = discharge
	p, err := a.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestTelemetryGoldenProfile(t *testing.T) {
	p := buildHotsites(t, false)
	res, err := p.RunSeeded(1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "profile_hotsites.golden", []byte(telemetry.FormatProfile(res.Telemetry, 10)))
	checkGolden(t, "summary_hotsites.golden", []byte(telemetry.FormatSummary(res.Telemetry)))
}

// TestTelemetryGoldenProfileDischarged pins the profile of the build with
// static discharge: the discharged q->done write shows as an "(elided)" row.
func TestTelemetryGoldenProfileDischarged(t *testing.T) {
	p := buildHotsites(t, true)
	res, err := p.RunSeeded(1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "profile_hotsites_discharged.golden", []byte(telemetry.FormatProfile(res.Telemetry, 10)))
}

func TestTelemetryGoldenTraces(t *testing.T) {
	p := buildHotsites(t, false)
	res, err := p.RunSeeded(1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	if res.Trace.Dropped() != 0 {
		t.Fatalf("ring buffer dropped %d events; raise capacity for a stable golden", res.Trace.Dropped())
	}
	var jsonl bytes.Buffer
	if err := res.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_hotsites.jsonl.golden", jsonl.Bytes())
	var chrome bytes.Buffer
	if err := res.Trace.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_hotsites.chrome.golden", chrome.Bytes())
}

// TestTelemetryDeterministic is the seed-stability half of the golden
// claim: two fresh builds and runs with the same seed agree byte for byte,
// and a different seed still produces a well-formed (if different) table.
func TestTelemetryDeterministic(t *testing.T) {
	render := func(seed int64) string {
		res, err := buildHotsites(t, false).RunSeeded(seed)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var jsonl bytes.Buffer
		if err := res.Trace.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return telemetry.FormatProfile(res.Telemetry, 10) + jsonl.String()
	}
	a, b := render(42), render(42)
	if a != b {
		t.Fatal("same seed produced different profile or trace bytes")
	}
}
