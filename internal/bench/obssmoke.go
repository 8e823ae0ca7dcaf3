package bench

// The obs-smoke acceptance harness behind `make obs-smoke`: drive a real
// `sharc serve` process through its observability surface and assert the
// contract end to end — request IDs are unique, replies stay
// deterministic, /metrics parses as Prometheus text, a forced-slow
// request produces a span-tree capture with all five phases, and SIGTERM
// flips /healthz to 503 during the drain grace before the process exits
// cleanly. With no address it runs the same assertions against an
// in-process server (useful under plain `go test`).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obsrv"
	"repro/internal/serve"
)

// obsSlowProg runs long enough to cross a 1ms capture threshold under the
// cooperative scheduler on any host; the workload programs stay fast so
// the 50-request sweep doesn't flood the capture dir.
const obsSlowProg = `
int main(void) {
	int *p = malloc(sizeof(int));
	*p = 0;
	for (int i = 0; i < 20000; i++) {
		*p = *p + 1;
	}
	return 0;
}
`

// ObsSmokeOptions configures RunObsSmoke.
type ObsSmokeOptions struct {
	// Addr is the target server ("" starts one in-process).
	Addr string
	// PID is the serve process to SIGTERM for the drain assertion; 0
	// skips the signal (in-process targets drain via Shutdown).
	PID int
	// CaptureDir is where the target's -capture-dir points; the forced
	// slow request must produce a file here.
	CaptureDir string
	// Requests is the sweep size (default 50).
	Requests int
}

// RunObsSmoke executes the harness, logging progress to w.
func RunObsSmoke(opts ObsSmokeOptions, w io.Writer) error {
	if opts.Requests <= 0 {
		opts.Requests = 50
	}
	base := "http://" + opts.Addr

	var srv *serve.Server
	if opts.Addr == "" {
		if opts.CaptureDir == "" {
			dir, err := os.MkdirTemp("", "sharc-obs-smoke-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			opts.CaptureDir = dir
		}
		cfg := serve.DefaultConfig()
		cfg.Addr = "127.0.0.1:0"
		cfg.DrainGrace = 1500 * time.Millisecond
		cfg.Obs = obsrv.Config{
			Enabled:       true,
			SlowThreshold: time.Millisecond,
			CaptureDir:    opts.CaptureDir,
			AccessLog:     io.Discard,
			LogLevel:      obsrv.LevelInfo,
		}
		srv = serve.New(cfg)
		if err := srv.Listen(); err != nil {
			return err
		}
		go srv.Serve()
		base = "http://" + srv.Addr()
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	// 1. The request sweep: unique IDs, deterministic replies.
	fmt.Fprintf(w, "obs-smoke: sweeping %d requests against %s\n", opts.Requests, base)
	ids := make(map[string]bool)
	bodies := make(map[string]string)
	for i := 0; i < opts.Requests; i++ {
		body := reqBody(i)
		out, id, err := obsRequest(client, base+"/run", body)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if id == "" {
			return fmt.Errorf("request %d: no X-Sharc-Request header", i)
		}
		if ids[id] {
			return fmt.Errorf("request %d: duplicate request id %s", i, id)
		}
		ids[id] = true
		if prev, ok := bodies[body]; ok && prev != out {
			return fmt.Errorf("request %d: reply drifted for identical request\nwas: %s\nnow: %s", i, prev, out)
		}
		bodies[body] = out
	}
	fmt.Fprintf(w, "obs-smoke: %d unique request ids, replies deterministic\n", len(ids))

	// 2. Force a slow request and find its capture.
	if _, _, err := obsRequest(client, base+"/run",
		fmt.Sprintf(`{"source":%q,"name":"slow.shc","seed":3}`, obsSlowProg)); err != nil {
		return fmt.Errorf("slow request: %w", err)
	}
	capPath, err := findCapture(opts.CaptureDir)
	if err != nil {
		return err
	}
	if err := checkCapturePhases(capPath); err != nil {
		return err
	}
	fmt.Fprintf(w, "obs-smoke: slow-request capture %s has all %d phases\n",
		filepath.Base(capPath), len(obsrv.PhaseNames))

	// 3. /metrics parses as Prometheus text.
	mb, err := get(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	n, err := obsrv.ValidatePrometheus(mb)
	if err != nil {
		return fmt.Errorf("/metrics is not valid Prometheus text: %w", err)
	}
	wantMetrics := append([]string{"sharc_requests_total", "sharc_request_duration_seconds", "sharc_slow_captures_total"},
		obsrv.GoRuntimeMetrics...)
	for _, want := range wantMetrics {
		if !strings.Contains(string(mb), want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}
	fmt.Fprintf(w, "obs-smoke: /metrics valid (%d samples)\n", n)

	// 4. Health endpoints answer before the drain...
	for _, ep := range []string{"/healthz", "/readyz"} {
		if _, err := get(client, base+ep); err != nil {
			return fmt.Errorf("%s: %w", ep, err)
		}
	}

	// ...and flip to 503 during it.
	if opts.PID > 0 {
		if err := syscall.Kill(opts.PID, syscall.SIGTERM); err != nil {
			return fmt.Errorf("SIGTERM: %w", err)
		}
	} else if srv != nil {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	} else {
		fmt.Fprintf(w, "obs-smoke: no PID for external target; skipping drain assertion\n")
		return nil
	}
	if err := waitForDrain(client, base); err != nil {
		return err
	}
	fmt.Fprintf(w, "obs-smoke: /healthz flipped to 503 during drain\n")
	return nil
}

func obsRequest(client *http.Client, url, body string) (string, string, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("X-Sharc-Request"), nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// findCapture returns one span-tree capture file from dir.
func findCapture(dir string) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("no capture dir configured")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("capture dir: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") && !strings.HasSuffix(e.Name(), ".chrome.json") {
			return filepath.Join(dir, e.Name()), nil
		}
	}
	return "", fmt.Errorf("no capture file in %s after the forced-slow request", dir)
}

// checkCapturePhases asserts a capture holds the five request phases in
// order.
func checkCapturePhases(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cf struct {
		Phases []struct {
			Name string `json:"name"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(b, &cf); err != nil {
		return fmt.Errorf("capture %s: %w", path, err)
	}
	if len(cf.Phases) != len(obsrv.PhaseNames) {
		return fmt.Errorf("capture %s has %d phases, want %d", path, len(cf.Phases), len(obsrv.PhaseNames))
	}
	for i, want := range obsrv.PhaseNames {
		if cf.Phases[i].Name != want {
			return fmt.Errorf("capture %s phase %d = %q, want %q", path, i, cf.Phases[i].Name, want)
		}
	}
	return nil
}

// waitForDrain polls /healthz until it answers 503 (the drain-grace
// window) or the deadline passes.
func waitForDrain(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			// Listener already closed: the grace window was missed — that
			// is a failure, the whole point is an observable drain.
			return fmt.Errorf("listener closed before /healthz reported draining: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("/healthz never flipped to 503 during drain")
}
