package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"atcsim/internal/experiments/runner"
	"atcsim/internal/faultinject"
)

// fastRetry keeps chaos-test backoff delays negligible.
func fastRetry() runner.RetryPolicy {
	return runner.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

// chaosRules is the canonical 3-fault plan of the acceptance scenario: one
// crashing run (permanent: multicore's TEMPO mix panics every attempt), one
// transient I/O-shaped failure that heals after the first attempt (fig17's
// baseline SMT run), and one on-disk cache entry silently corrupted after
// its first successful store.
func chaosRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Site: faultinject.SiteRun, Match: "multi:tempo/", Kind: faultinject.KindPanic},
		{Site: faultinject.SiteRun, Match: "smt:baseline/", Kind: faultinject.KindTransient, Until: 1},
		{Site: faultinject.SiteDiskEntry, Kind: faultinject.KindCorrupt, Times: 1},
	}
}

// chaosSweep runs fig17 (2-way SMT) and multicore under one runner and
// returns the runner plus each rendered report in order.
func chaosSweep(t *testing.T, jobs int, dir string, plan *faultinject.Plan) (*Runner, []string) {
	t.Helper()
	r, err := NewRunnerWith(Quick(), Options{
		Jobs: jobs, CacheDir: dir, Faults: plan, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, id := range []string{"fig17", "multicore"} {
		rep, err := ByIDWith(r, id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rep.String())
	}
	return r, out
}

// TestChaos is the acceptance scenario: a seeded fault plan (panic +
// transient + corrupt disk entry) injected into a multi-point sweep. The
// sweep must complete; the transient failure must be retried to success;
// exactly one point may fail (as a FAILED marker, not an aborted sweep);
// the report bytes must be identical for any job count; and a resumed sweep
// must quarantine the corrupt entry and recompute only what is missing.
func TestChaos(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	rA, outA := chaosSweep(t, 1, dirA, faultinject.NewPlan(1, chaosRules()...))
	rB, outB := chaosSweep(t, 8, dirB, faultinject.NewPlan(1, chaosRules()...))

	// Byte-identical degradation regardless of -jobs.
	joinedA, joinedB := strings.Join(outA, ""), strings.Join(outB, "")
	if joinedA != joinedB {
		t.Errorf("chaos reports differ between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", joinedA, joinedB)
	}

	// Exactly one FAILED point: multicore (its TEMPO run panics every
	// attempt); fig17 must have healed through retry.
	if n := strings.Count(joinedA, "FAILED("); n != 1 {
		t.Errorf("FAILED points = %d, want 1:\n%s", n, joinedA)
	}
	if !strings.Contains(outA[1], "== multicore: FAILED ==") {
		t.Errorf("multicore did not fail:\n%s", outA[1])
	}
	if !strings.Contains(outA[1], "panic") {
		t.Errorf("multicore failure reason does not mention the panic:\n%s", outA[1])
	}
	if strings.Contains(outA[0], "FAILED") {
		t.Errorf("fig17 failed instead of retrying to success:\n%s", outA[0])
	}

	// Health and fault accounting (pass A: 2 SMT runs + multi baseline
	// succeed, multi TEMPO panics once, the transient costs one retry).
	for name, r := range map[string]*Runner{"jobs=1": rA, "jobs=8": rB} {
		h := r.Health().Snapshot()
		if h.Runs != 3 || h.Failures != 1 || h.Panics != 1 || h.Retries < 1 {
			t.Errorf("%s: health = %+v", name, h)
		}
	}

	// Resume on pass A's cache with no faults: the corrupted entry is
	// quarantined and recomputed, the intact entries are served from disk,
	// and the previously-failed point now succeeds — with fig17's bytes
	// unchanged from the degraded pass.
	rC, outC := chaosSweep(t, 4, dirA, nil)
	joinedC := strings.Join(outC, "")
	if strings.Contains(joinedC, "FAILED") {
		t.Errorf("resumed sweep still has failures:\n%s", joinedC)
	}
	if outC[0] != outA[0] {
		t.Errorf("fig17 bytes changed across resume:\n--- chaos ---\n%s\n--- resume ---\n%s", outA[0], outC[0])
	}
	if q := rC.Quarantined(); q != 1 {
		t.Errorf("Quarantined = %d, want 1", q)
	}
	// 3 entries were stored, 1 of them corrupt: resume loads 2, recomputes
	// the corrupt one plus the never-completed multi TEMPO run.
	if rC.DiskHits() != 2 || rC.Runs() != 2 {
		t.Errorf("resume DiskHits = %d, Runs = %d, want 2 and 2", rC.DiskHits(), rC.Runs())
	}
	if h := rC.Health().Snapshot(); h.Quarantined != 1 || h.DiskHits != 2 {
		t.Errorf("resume health = %+v", h)
	}
}

// TestChaosThreeFaultSweep drives three permanent faults into a three-point
// sweep and checks complete degradation accounting: the sweep still
// produces a full report set with exactly three FAILED points. This is the
// CI chaos job's primary assertion.
func TestChaosThreeFaultSweep(t *testing.T) {
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SiteRun, Match: "fig10:proper/pr", Kind: faultinject.KindPanic},
		faultinject.Rule{Site: faultinject.SiteRun, Match: "smt:tempo/", Kind: faultinject.KindPanic},
		faultinject.Rule{Site: faultinject.SiteRun, Match: "multi:baseline/", Kind: faultinject.KindPanic},
	)
	r, err := NewRunnerWith(Quick(), Options{Jobs: 4, Faults: plan, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig10", "fig17", "multicore"}
	failed := 0
	for _, id := range ids {
		rep, err := ByIDWith(r, id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != "" {
			failed++
			if !strings.Contains(rep.Failed, "panic") {
				t.Errorf("%s: failure reason = %q", id, rep.Failed)
			}
		}
	}
	if failed != 3 {
		t.Errorf("FAILED points = %d, want 3", failed)
	}
	if got := plan.Fired(faultinject.KindPanic); got != 3 {
		t.Errorf("panics fired = %d, want 3", got)
	}
	if h := r.Health().Snapshot(); h.Panics != 3 || h.Failures != 3 {
		t.Errorf("health = %+v", h)
	}
}

// TestCancelMidSweepResumes emulates SIGINT: the sweep context is canceled
// mid-flight, the experiment completes as a FAILED point with completed
// results flushed to the disk cache, and a re-run against the same cache
// resumes — recomputing only the runs the interrupted pass never finished
// (verified by counting compute invocations per run identity).
func TestCancelMidSweepResumes(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rA, err := NewRunnerWith(Quick(), Options{Jobs: 1, CacheDir: dir, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	computedA := map[string]bool{}
	rA.OnRun = func(key, name string, runs int) {
		computedA[key+"/"+name] = true
		if runs == 2 {
			cancel() // the moment SIGINT would cancel the sweep
		}
	}
	repA, err := ByIDWith(rA, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if repA.Failed == "" {
		t.Fatal("canceled sweep did not degrade to a FAILED point")
	}
	if !strings.Contains(repA.Failed, "canceled") {
		t.Errorf("failure reason = %q, want context cancellation", repA.Failed)
	}
	if !rA.Interrupted() {
		t.Error("Interrupted() = false after cancel")
	}
	// fig14 at quick scale needs 15 runs (3 benchmarks × (baseline + 4
	// enhancement levels)); the cancel must have stopped well short.
	const total = 15
	if rA.Runs() < 2 || rA.Runs() >= total {
		t.Fatalf("interrupted pass performed %d runs", rA.Runs())
	}
	if h := rA.Health().Snapshot(); h.Canceled == 0 {
		t.Errorf("health = %+v, want canceled runs recorded", h)
	}

	// Resume: everything the interrupted pass completed comes from disk;
	// only the remainder is computed — and no run identity repeats.
	rB, err := NewRunnerWith(Quick(), Options{Jobs: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	computedB := map[string]bool{}
	rB.OnRun = func(key, name string, runs int) { computedB[key+"/"+name] = true }
	repB, err := ByIDWith(rB, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if repB.Failed != "" {
		t.Fatalf("resumed sweep failed: %s", repB.Failed)
	}
	for id := range computedB {
		if computedA[id] {
			t.Errorf("resume recomputed %s despite a cached result", id)
		}
	}
	if rB.DiskHits() != rA.Runs() {
		t.Errorf("resume DiskHits = %d, want %d (everything the interrupted pass completed)",
			rB.DiskHits(), rA.Runs())
	}
	if rB.Runs()+rB.DiskHits() != total {
		t.Errorf("resume Runs+DiskHits = %d+%d, want %d", rB.Runs(), rB.DiskHits(), total)
	}

	// The resumed report is byte-identical to a never-interrupted sweep.
	repC, err := ByIDWith(NewRunner(Quick()), "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if repB.String() != repC.String() {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- fresh ---\n%s", repB, repC)
	}
}
