package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildAtcsim builds the command into a temporary directory, skipping the
// test in -short mode or without a go toolchain.
func buildAtcsim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary in PATH")
	}
	bin := filepath.Join(t.TempDir(), "atcsim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTimingFlagValidation builds the real binary and checks the -timing
// contract end to end: an unknown timing model is a usage error — exit 2
// with the registered names listed — while a registered one runs. This is
// deliberately a process-level test: usageFail calls os.Exit, so the exit
// code is the behavior under test.
func TestTimingFlagValidation(t *testing.T) {
	bin := buildAtcsim(t)

	out, err := exec.Command(bin, "-timing", "warp", "-workload", "pr").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("-timing warp: err = %v, want non-zero exit; output:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("-timing warp: exit code = %d, want 2 (usage error)", code)
	}
	for _, want := range []string{"unknown timing model", "analytic", "queued"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-timing warp: stderr lacks %q:\n%s", want, out)
		}
	}

	out, err = exec.Command(bin, "-timing", "queued", "-workload", "pr",
		"-instructions", "2000", "-warmup", "500").CombinedOutput()
	if err != nil {
		t.Fatalf("-timing queued run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "queues ") {
		t.Errorf("queued run report has no queues lines:\n%s", out)
	}
}

var listeningRe = regexp.MustCompile(`listening on (http://[^/\s]+)/`)

// TestOneListener runs the built binary with -metrics-addr and
// -interval-stats: the one announced port serves both the live sim_*
// gauges and the pprof index, no second listener is announced, and the
// JSONL heartbeat rows partition the measured instructions. The run is long
// enough (trace synthesis plus 2M instructions) to be scraped mid-flight.
func TestOneListener(t *testing.T) {
	bin := buildAtcsim(t)
	hbPath := filepath.Join(t.TempDir(), "hb.jsonl")
	cmd := exec.Command(bin, "-workload", "pr", "-instructions", "2000000", "-warmup", "1000",
		"-metrics-addr", "127.0.0.1:0", "-interval-stats", hbPath, "-interval", "100000")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stderr)
	if !sc.Scan() {
		t.Fatalf("no stderr output: %v", sc.Err())
	}
	first := sc.Text()
	m := listeningRe.FindStringSubmatch(first)
	if m == nil {
		t.Fatalf("first stderr line announces no listener: %q", first)
	}
	get := func(path string) string {
		resp, err := http.Get(m[1] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{"\nsim_instructions ", "\nsim_instructions_total 2000000\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ is not the pprof index:\n%.300s", idx)
	}

	rest, _ := io.ReadAll(stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("run failed: %v\n%s", err, rest)
	}
	if n := strings.Count(first+string(rest), "listening"); n != 1 {
		t.Errorf("announced %d listeners, want 1:\n%s\n%s", n, first, rest)
	}

	raw, err := os.ReadFile(hbPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for i, ln := range lines {
		var row struct {
			Instructions uint64 `json:"instructions"`
		}
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("heartbeat line %d is not JSON: %v: %q", i, err, ln)
		}
		sum += row.Instructions
	}
	if len(lines) != 20 || sum != 2_000_000 {
		t.Errorf("heartbeat: %d rows summing to %d instructions, want 20 rows summing to 2000000", len(lines), sum)
	}
}
