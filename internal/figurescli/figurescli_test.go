package figurescli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atcsim/internal/xlat"
)

func run(t *testing.T, args ...string) (code int, errMsg, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code, err := Main(args, &out, &errw)
	if err != nil {
		errMsg = err.Error()
	}
	return code, errMsg, out.String(), errw.String()
}

func TestListExitsZero(t *testing.T) {
	code, errMsg, stdout, _ := run(t, "-list")
	if code != exitOK || errMsg != "" {
		t.Fatalf("code = %d, err = %q", code, errMsg)
	}
	if !strings.Contains(stdout, "fig14") || !strings.Contains(stdout, "multicore") {
		t.Errorf("-list output missing ids:\n%s", stdout)
	}
}

func TestListMechanismsExitsZero(t *testing.T) {
	code, errMsg, stdout, _ := run(t, "-list-mechanisms")
	if code != exitOK || errMsg != "" {
		t.Fatalf("code = %d, err = %q", code, errMsg)
	}
	lines := strings.Fields(stdout)
	want := xlat.Names()
	if len(lines) != len(want) {
		t.Fatalf("-list-mechanisms printed %v, registry has %v", lines, want)
	}
	for i, n := range want {
		if lines[i] != n {
			t.Errorf("-list-mechanisms line %d = %q, want %q", i, lines[i], n)
		}
	}
}

func TestBudgetFlagsValidatedUpFront(t *testing.T) {
	cases := [][]string{
		{"-run-timeout", "0s", "-list"},
		{"-run-timeout", "-5s", "-list"},
		{"-sweep-budget", "0s", "-list"},
		{"-sweep-budget", "-1m", "-list"},
	}
	for _, args := range cases {
		code, errMsg, _, _ := run(t, args...)
		if code != exitUsage {
			t.Errorf("%v: code = %d, want %d", args, code, exitUsage)
		}
		if !strings.Contains(errMsg, "must be positive") {
			t.Errorf("%v: err = %q", args, errMsg)
		}
	}
	// Positive values pass validation (-list returns before any simulation).
	if code, errMsg, _, _ := run(t, "-run-timeout", "1m", "-sweep-budget", "1h", "-list"); code != exitOK {
		t.Errorf("positive budgets rejected: code = %d, err = %q", code, errMsg)
	}
}

// TestTimingFlagValidated pins the -timing contract: an unknown timing
// model is a usage error (exit 2) listing the registered names, and a
// registered one reaches the sweep (here killed instantly by an exhausted
// budget, which is exitFailed — past flag validation).
func TestTimingFlagValidated(t *testing.T) {
	code, errMsg, _, _ := run(t, "-timing", "warp", "-id", "fig1", "-scale", "quick")
	if code != exitUsage {
		t.Errorf("unknown timing: code = %d, want %d", code, exitUsage)
	}
	for _, want := range []string{"unknown timing model", "analytic", "queued"} {
		if !strings.Contains(errMsg, want) {
			t.Errorf("unknown timing: err %q lacks %q", errMsg, want)
		}
	}
	code, errMsg, _, _ = run(t, "-timing", "queued", "-id", "fig1", "-scale", "quick", "-sweep-budget", "1ns")
	if code != exitFailed || errMsg != "" {
		t.Errorf("valid timing rejected: code = %d, err = %q", code, errMsg)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _, _ := run(t, "-scale", "galactic", "-id", "fig1"); code != exitUsage {
		t.Errorf("unknown scale: code = %d", code)
	}
	if code, _, _, _ := run(t, "fig1"); code != exitUsage {
		t.Errorf("positional args: code = %d", code)
	}
	if code, _, _, _ := run(t, "-id", "fig999", "-scale", "quick"); code != exitUsage {
		t.Errorf("unknown id: code = %d", code)
	}
}

// TestExhaustedBudgetDegradesToFailedMarkers drives the whole pipeline with
// an already-spent sweep budget: every run fails fast, the experiment
// completes as a FAILED(reason) point in text and CSV output, and the
// process exit code reports the degradation.
func TestExhaustedBudgetDegradesToFailedMarkers(t *testing.T) {
	csvDir := t.TempDir()
	code, errMsg, stdout, stderr := run(t,
		"-scale", "quick", "-id", "fig1", "-sweep-budget", "1ns", "-csv", csvDir)
	if code != exitFailed || errMsg != "" {
		t.Fatalf("code = %d, err = %q, stderr:\n%s", code, errMsg, stderr)
	}
	if !strings.Contains(stdout, "== fig1: FAILED ==") || !strings.Contains(stdout, "FAILED(") {
		t.Errorf("stdout missing FAILED marker:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1/1 experiments FAILED") {
		t.Errorf("stderr missing failure summary:\n%s", stderr)
	}
	raw, err := os.ReadFile(filepath.Join(csvDir, "fig1.csv"))
	if err != nil {
		t.Fatalf("FAILED experiment wrote no CSV: %v", err)
	}
	if !strings.HasPrefix(string(raw), "status,reason\nFAILED,") {
		t.Errorf("CSV marker = %q", raw)
	}
}

// TestQuickExperimentSucceeds runs one real (quick-scale) experiment end to
// end and checks the success path: exit 0, a rendered table, and a health
// line under -progress.
func TestQuickExperimentSucceeds(t *testing.T) {
	code, errMsg, stdout, stderr := run(t, "-scale", "quick", "-id", "fig14", "-progress")
	if code != exitOK || errMsg != "" {
		t.Fatalf("code = %d, err = %q, stderr:\n%s", code, errMsg, stderr)
	}
	if !strings.Contains(stdout, "== fig14:") {
		t.Errorf("stdout missing report:\n%s", stdout)
	}
	if !strings.Contains(stderr, `msg="sweep complete" runs=`) ||
		!strings.Contains(stderr, "quarantined=") || strings.Contains(stderr, "sweep health") {
		t.Errorf("stderr lacks the one sweep summary line with the health counters:\n%s", stderr)
	}
	if !strings.Contains(stderr, `msg="run complete"`) || !strings.Contains(stderr, "key=baseline") {
		t.Errorf("stderr missing per-run progress attributes:\n%s", stderr)
	}
	if strings.Contains(stderr, "time=") {
		t.Errorf("log lines should not carry timestamps:\n%s", stderr)
	}
}

// TestLogLevelGatesProgress checks -log-level: at error verbosity the
// success path is silent on stderr, and a bad level is a usage error.
func TestLogLevelGatesProgress(t *testing.T) {
	code, errMsg, _, stderr := run(t,
		"-scale", "quick", "-id", "fig14", "-progress", "-log-level", "error")
	if code != exitOK || errMsg != "" {
		t.Fatalf("code = %d, err = %q", code, errMsg)
	}
	if strings.Contains(stderr, `msg="run complete"`) || strings.Contains(stderr, "sweep complete") {
		t.Errorf("-log-level error should suppress info logs:\n%s", stderr)
	}
	if code, errMsg, _, _ := run(t, "-log-level", "loud", "-list"); code != exitUsage ||
		!strings.Contains(errMsg, "-log-level") {
		t.Errorf("bad level: code = %d, err = %q", code, errMsg)
	}
}

// TestMarkdownFailedRendering checks the markdown shape of a failed point.
func TestMarkdownFailedRendering(t *testing.T) {
	code, _, stdout, _ := run(t,
		"-scale", "quick", "-id", "fig1", "-sweep-budget", "1ns", "-markdown")
	if code != exitFailed {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(stdout, "### fig1 — FAILED") || !strings.Contains(stdout, "`FAILED(") {
		t.Errorf("markdown output = %q", stdout)
	}
}
