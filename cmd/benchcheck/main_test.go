package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
cpu: Example CPU @ 2.10GHz
BenchmarkCacheAccessHit-8     	  200000	        19.68 ns/op	       0 B/op	       0 allocs/op
BenchmarkTLBLookupHit-8       	  200000	        12.19 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig14_EnhancementLadder 	       1	485117825 ns/op	208691716 B/op	 2915543 allocs/op
PASS
`

func TestParse(t *testing.T) {
	run, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if run.Machine != "Example CPU @ 2.10GHz" || run.GOMAXPROCS != 8 {
		t.Fatalf("machine %q, GOMAXPROCS %d; want the cpu header and the -8 suffix", run.Machine, run.GOMAXPROCS)
	}
	got := run.Benchmarks
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	e, ok := got["BenchmarkCacheAccessHit"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if e.NsPerOp != 19.68 || e.AllocsPerOp != 0 {
		t.Fatalf("bad entry: %+v", e)
	}
	f := got["BenchmarkFig14_EnhancementLadder"]
	if f.AllocsPerOp != 2915543 || f.BytesPerOp != 208691716 {
		t.Fatalf("bad entry: %+v", f)
	}
}

func TestDeltaTable(t *testing.T) {
	old := map[string]Entry{
		"BenchmarkHot":     {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkSweep":   {NsPerOp: 2e6, AllocsPerOp: 5000},
		"BenchmarkRetired": {NsPerOp: 50, AllocsPerOp: 1},
	}
	cur := map[string]Entry{
		"BenchmarkHot":   {NsPerOp: 80, AllocsPerOp: 0},
		"BenchmarkSweep": {NsPerOp: 1e6, AllocsPerOp: 5500},
		"BenchmarkNew":   {NsPerOp: 42, AllocsPerOp: 3},
	}
	out := deltaTable("old.json", "new.json", old, cur)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 benchmarks
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []struct{ name, frag string }{
		{"BenchmarkHot", "-20.0%"},      // ns/op improvement
		{"BenchmarkSweep", "-50.0%"},    // ns/op halved
		{"BenchmarkSweep", "+10.0%"},    // allocs/op regression visible
		{"BenchmarkNew", "added"},       // only in new
		{"BenchmarkRetired", "removed"}, // only in old
	} {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, want.name) && strings.Contains(l, want.frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no row for %s containing %q:\n%s", want.name, want.frag, out)
		}
	}
	// Rows are sorted by benchmark name.
	if !(strings.Index(out, "BenchmarkHot") < strings.Index(out, "BenchmarkNew") &&
		strings.Index(out, "BenchmarkNew") < strings.Index(out, "BenchmarkRetired")) {
		t.Errorf("rows not sorted:\n%s", out)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 5},
		"BenchmarkC": {NsPerOp: 100, AllocsPerOp: 0},
	}
	got := map[string]Entry{
		"BenchmarkA": {NsPerOp: 110, AllocsPerOp: 1}, // zero baseline is exact → fail
		"BenchmarkB": {NsPerOp: 150, AllocsPerOp: 4}, // 50% slower → warn only
		// BenchmarkC missing → fail
		"BenchmarkD": {NsPerOp: 10}, // unknown → warn
	}
	fails, warns := compare(base, got, 15, 10)
	if len(fails) != 2 {
		t.Fatalf("fails = %v, want 2 entries", fails)
	}
	if len(warns) != 2 {
		t.Fatalf("warns = %v, want 2 entries", warns)
	}
	if fails, _ := compare(base, map[string]Entry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 5},
		"BenchmarkC": {NsPerOp: 100, AllocsPerOp: 0},
	}, 15, 10); len(fails) != 0 {
		t.Fatalf("clean run should pass, got %v", fails)
	}
	// A nonzero baseline gets slack before failing, with a warning inside it.
	fails, warns = compare(base, map[string]Entry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 5.4},
		"BenchmarkC": {NsPerOp: 100, AllocsPerOp: 0},
	}, 15, 10)
	if len(fails) != 0 || len(warns) != 1 {
		t.Fatalf("slack case: fails = %v warns = %v, want 0 fails 1 warn", fails, warns)
	}
	if fails, _ = compare(base, map[string]Entry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 6},
		"BenchmarkC": {NsPerOp: 100, AllocsPerOp: 0},
	}, 15, 10); len(fails) != 1 {
		t.Fatalf("beyond slack should fail, got %v", fails)
	}
}

func TestTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var traj Trajectory
	for _, label := range []string{"before", "after"} {
		if err := traj.add(Run{Label: label, Commit: "abc1234", Benchmarks: map[string]Entry{"BenchmarkHot": {NsPerOp: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := traj.add(Run{Label: "before"}); err == nil {
		t.Fatal("a recorded label was accepted twice")
	}
	if err := traj.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 2 || back.Runs[0].Label != "before" || back.Runs[1].Label != "after" {
		t.Fatalf("round trip lost the run order: %+v", back.Runs)
	}
	if r, err := back.find("after"); err != nil || r.Benchmarks["BenchmarkHot"].NsPerOp != 1 {
		t.Fatalf("find(after) = %+v, %v", r, err)
	}
	if _, err := back.find("missing"); err == nil || !strings.Contains(err.Error(), "before, after") {
		t.Fatalf("unknown label error %v does not list the recorded labels", err)
	}
	if d := (Run{Commit: "abc1234+"}).describe(); !strings.Contains(d, "GOMAXPROCS unrecorded") || !strings.Contains(d, "abc1234+") {
		t.Errorf("describe() = %q", d)
	}
}
