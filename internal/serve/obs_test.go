package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obsrv"
)

// obsConfig returns a serve config with observability fully armed: spans,
// metrics, access log, and a capture threshold of 1ns so every request is
// "slow". Used to pin that even maximal observability never touches reply
// bytes.
func obsConfig(t *testing.T) Config {
	t.Helper()
	var cfg Config
	cfg.Obs = obsrv.Config{
		Enabled:       true,
		SlowThreshold: time.Nanosecond,
		CaptureDir:    t.TempDir(),
		AccessLog:     io.Discard,
		LogLevel:      obsrv.LevelInfo,
	}
	return cfg
}

// TestObsReplyEquivalence is the determinism contract: reply bodies must
// be byte-identical with observability enabled vs disabled, across
// single- and multi-threaded programs and seeds.
func TestObsReplyEquivalence(t *testing.T) {
	_, plain := startServer(t, Config{})
	_, obs := startServer(t, obsConfig(t))

	progs := map[string]string{"counter": counter(25), "racer": racer, "banker": banker}
	for name, src := range progs {
		for _, seed := range []int64{1, 7} {
			req := map[string]any{"source": src, "name": name + ".shc", "seed": seed}
			st1, _, body1 := post(t, plain+"/run", req)
			st2, _, body2 := post(t, obs+"/run", req)
			if st1 != st2 {
				t.Fatalf("%s seed %d: status %d vs %d", name, seed, st1, st2)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatalf("%s seed %d: reply bytes diverge with observability on:\noff: %s\non:  %s",
					name, seed, body1, body2)
			}
		}
	}
}

// TestSlowCaptureHasAllPhases is the capture acceptance check: a request
// past the threshold yields a span-tree capture with all five phases.
func TestSlowCaptureHasAllPhases(t *testing.T) {
	cfg := obsConfig(t)
	dir := cfg.Obs.CaptureDir
	_, base := startServer(t, cfg)

	st, _, _ := post(t, base+"/run", map[string]any{"source": counter(10)})
	if st != 200 {
		t.Fatalf("run status %d", st)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var capPath string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") && !strings.HasSuffix(e.Name(), ".chrome.json") {
			capPath = filepath.Join(dir, e.Name())
		}
	}
	if capPath == "" {
		t.Fatalf("no capture file in %s (entries: %v)", dir, ents)
	}
	b, err := os.ReadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	var cf struct {
		Endpoint string `json:"endpoint"`
		Handle   string `json:"handle"`
		Phases   []struct {
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		} `json:"phases"`
		Trace *struct {
			Events []json.RawMessage `json:"events"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatalf("capture not JSON: %v", err)
	}
	if cf.Endpoint != "run" || cf.Handle == "" {
		t.Errorf("capture metadata: %+v", cf)
	}
	got := make([]string, 0, len(cf.Phases))
	for _, p := range cf.Phases {
		got = append(got, p.Name)
		if p.DurNS < 0 {
			t.Errorf("phase %q left open in capture", p.Name)
		}
	}
	want := obsrv.PhaseNames
	if len(got) != len(want) {
		t.Fatalf("capture phases = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("capture phases = %v, want %v", got, want)
		}
	}
	if cf.Trace == nil || len(cf.Trace.Events) == 0 {
		t.Errorf("capture carries no program-level tracer events")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, base := startServer(t, obsConfig(t))
	post(t, base+"/run", map[string]any{"source": counter(5)})
	post(t, base+"/run", map[string]any{"source": counter(5)})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type %q", ct)
	}
	if _, err := obsrv.ValidatePrometheus(body); err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v\n%s", err, body)
	}
	for _, want := range append([]string{
		`sharc_requests_total{code="200",endpoint="run"} 2`,
		"sharc_request_duration_seconds_bucket",
		`sharc_phase_duration_seconds_count{phase="execute"} 2`,
		"sharc_cache_hits_total 1",
		"sharc_cache_misses_total 1",
		"sharc_sessions_inflight",
		"sharc_admission_queue_depth",
		"sharc_slow_captures_total 2",
		"sharc_build_info",
	}, obsrv.GoRuntimeMetrics...) {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestMetricsNotFoundWhenDisabled(t *testing.T) {
	_, base := startServer(t, Config{})
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with obs off = %d, want 404", resp.StatusCode)
	}
}

func TestRequestIDHeader(t *testing.T) {
	_, obs := startServer(t, obsConfig(t))
	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		resp, err := http.Post(obs+"/run", "application/json",
			strings.NewReader(`{"source":"int main(void) { return 0; }"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Sharc-Request")
		if id == "" {
			t.Fatalf("request %d missing X-Sharc-Request", i)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}

	_, plain := startServer(t, Config{})
	resp, err := http.Get(plain + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Sharc-Request"); got != "" {
		t.Fatalf("obs-off server emitted X-Sharc-Request %q", got)
	}
}

// TestDrainGraceFlipsHealth pins the drain observability window: with
// DrainGrace set, /healthz and /readyz answer 503 over live connections
// after Shutdown begins, before the listener closes.
func TestDrainGraceFlipsHealth(t *testing.T) {
	cfg := obsConfig(t)
	cfg.DrainGrace = 2 * time.Second
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz before drain = %d", resp.StatusCode)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// During the grace the listener is still accepting; both probes must
	// report 503.
	waitFor(t, cfg.DrainGrace, func() bool {
		for _, ep := range []string{"/healthz", "/readyz"} {
			resp, err := http.Get(base + ep)
			if err != nil {
				return false
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				return false
			}
		}
		return true
	})
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStatsAttribution covers the /stats self-description satellite:
// server_start, go_version, and endpoints must be present and sane.
func TestStatsAttribution(t *testing.T) {
	_, base := startServer(t, Config{})
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	start, err := time.Parse(time.RFC3339Nano, st.ServerStart)
	if err != nil {
		t.Errorf("server_start %q not RFC3339: %v", st.ServerStart, err)
	} else if time.Since(start) > time.Minute || time.Since(start) < 0 {
		t.Errorf("server_start %q implausible", st.ServerStart)
	}
	if !strings.HasPrefix(st.GoVersion, "go") {
		t.Errorf("go_version %q", st.GoVersion)
	}
	found := false
	for _, ep := range st.Endpoints {
		if ep == "/metrics" {
			found = true
		}
	}
	if !found {
		t.Errorf("endpoints %v missing /metrics", st.Endpoints)
	}
}
