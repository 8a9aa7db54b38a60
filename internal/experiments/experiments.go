// Package experiments regenerates every table and figure of the paper's
// evaluation. Each FigN/TableN function runs the simulations it needs and
// returns a Report containing the rows/series the paper plots plus headline
// summary numbers.
//
// Simulations are scheduled through a parallel experiment engine
// (internal/experiments/runner): every run is identified by a canonical run
// key — the fully-resolved machine configuration plus workload, trace seed
// and trace length — deduplicated across experiments, executed on a bounded
// worker pool, and optionally persisted to an on-disk cache so interrupted
// or overlapping sweeps resume instead of recomputing. Reports are
// byte-identical regardless of the job count (each simulation is itself
// deterministic and single-threaded; concurrency only changes *when* a run
// executes, never its result).
//
// Execution is fault tolerant: every simulation runs under the sweep's
// context with an optional per-run deadline, transient failures are retried
// with capped exponential backoff, and a run that still fails — including a
// panicking simulation — degrades only the experiments that need it. Those
// experiments complete as FAILED(reason) reports carrying the failed run's
// label and benchmark, while the rest of the sweep proceeds; completed
// results stay in the disk cache, so a canceled or partially-failed sweep
// resumes instead of recomputing.
//
// Figures 9, 11 and 13 are policy/state diagrams with no measured data;
// their semantics are unit-tested in internal/repl and internal/cache.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"atcsim/internal/experiments/runner"
	"atcsim/internal/faultinject"
	"atcsim/internal/metrics"
	"atcsim/internal/stats"
	"atcsim/internal/system"
	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
	"atcsim/internal/workloads"
)

// Scale controls how much simulation each experiment performs. The paper
// simulates 10B-instruction regions; this simulator reproduces shapes at
// 10^5–10^6 instructions per run.
type Scale struct {
	// TraceLen is the synthesized trace length per benchmark.
	TraceLen int
	// Instructions and Warmup are per-core simulation lengths.
	Instructions int
	Warmup       int
	// Workloads restricts the benchmark list (default: all nine).
	Workloads []string
	// Seed feeds workload synthesis. ExtraSeeds, when non-empty, makes
	// SeededSpeedups average headline speedups over multiple trace seeds.
	Seed       int64
	ExtraSeeds []int64
	// Timing selects the hierarchy timing engine for every run ("" or
	// "analytic" = the default analytic model, "queued" = bounded deques;
	// see system.TimingModels). "analytic" is normalized to "" so those
	// sweeps share run keys and disk-cache entries with legacy sweeps.
	Timing string
}

// Full is the default experiment scale: every benchmark, 300K measured
// instructions after 100K warmup.
func Full() Scale {
	return Scale{
		TraceLen:     500_000,
		Instructions: 300_000,
		Warmup:       100_000,
		Workloads:    workloads.Names(),
		Seed:         1,
	}
}

// Quick is a reduced scale for benchmarks and smoke tests: three
// representative benchmarks (one per STLB-MPKI category), short runs.
func Quick() Scale {
	return Scale{
		TraceLen:     150_000,
		Instructions: 80_000,
		Warmup:       30_000,
		Workloads:    []string{"xalancbmk", "mcf", "pr"},
		Seed:         1,
	}
}

func (sc Scale) workloads() []string {
	if len(sc.Workloads) == 0 {
		return workloads.Names()
	}
	return sc.Workloads
}

// Report is one experiment's regenerated data.
type Report struct {
	ID    string
	Title string
	Table *stats.Table
	Notes []string
	// Summary holds headline aggregates (keys documented per experiment),
	// used by tests and EXPERIMENTS.md.
	Summary map[string]float64
	// Failed, when non-empty, is the reason this experiment produced no
	// data: a required simulation permanently failed (or the sweep was
	// canceled) and the failure was contained here instead of aborting the
	// sweep. Failed reports carry no Table/Summary.
	Failed string
}

// String renders the report as text. Failed experiments render a stable
// FAILED(reason) marker instead of data.
func (r *Report) String() string {
	var b strings.Builder
	if r.Failed != "" {
		fmt.Fprintf(&b, "== %s: FAILED ==\nFAILED(%s)\n", r.ID, r.Failed)
		return b.String()
	}
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "summary %s = %.4f\n", k, r.Summary[k])
		}
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// RunError identifies one simulation's permanent failure: which experiment
// label and benchmark requested it, how many attempts were made, and the
// final error. When the failure was a crash, Panic holds the recovered
// panic value (also wrapped inside Err as a *runner.PanicError).
type RunError struct {
	Label    string
	Name     string
	Attempts int
	Panic    any
	Err      error
}

// Error renders a stable, schedule-independent message so FAILED markers
// derived from it are byte-identical across job counts.
func (e *RunError) Error() string {
	return fmt.Sprintf("run %s/%s failed (attempts=%d): %v", e.Label, e.Name, e.Attempts, e.Err)
}

// Unwrap exposes the underlying failure for errors.Is/As chains.
func (e *RunError) Unwrap() error { return e.Err }

// abortExperiment is the controlled panic an experiment body raises (via
// must) when a governed run permanently fails. It is caught at the
// experiment boundary (runExperiment) and converted into a FAILED report;
// any other panic is a genuine bug and still propagates.
type abortExperiment struct{ err error }

// must unwraps a governed run inside an experiment body: table builders
// stay straight-line code, and a failed run aborts only the enclosing
// experiment, never the sweep.
func must[V any](v V, err error) V {
	if err != nil {
		panic(&abortExperiment{err: err})
	}
	return v
}

// runExperiment executes one catalog entry with containment: an
// abortExperiment panic (a permanently-failed run) becomes a FAILED report
// carrying the failure reason.
func runExperiment(r *Runner, id string, fn func(*Runner) *Report) (rep *Report) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ab, ok := p.(*abortExperiment)
		if !ok {
			panic(p)
		}
		rep = &Report{ID: id, Title: "FAILED", Failed: ab.err.Error()}
	}()
	return fn(r)
}

// Options configures the experiment engine behind a Runner.
type Options struct {
	// Jobs bounds how many simulations execute concurrently. Zero or
	// negative selects runtime.NumCPU(). Report output is byte-identical for
	// any value.
	Jobs int
	// CacheDir, when non-empty, enables the on-disk result cache: every
	// finished simulation is written there (JSON, keyed by run-key hash with
	// format-version and checksum fields) and later runners with the same
	// directory load it back instead of re-simulating. The directory is
	// created if missing.
	CacheDir string
	// Context, when non-nil, is the sweep's base context: canceling it
	// (SIGINT handling, tests) makes every not-yet-started run fail fast
	// with a canceled RunError while in-flight runs finish and completed
	// results stay cached — the sweep still renders, with FAILED markers.
	Context context.Context
	// RunTimeout, when positive, bounds each simulation attempt. An attempt
	// that exceeds it is abandoned and the run fails with a deadline error
	// (the simulator has no preemption points, so the abandoned attempt
	// finishes in the background and is discarded).
	RunTimeout time.Duration
	// SweepBudget, when positive, bounds the whole sweep: once spent, every
	// remaining run fails fast with a deadline error.
	SweepBudget time.Duration
	// Retry bounds the retry loop around transiently-failing runs. The
	// zero value selects runner defaults (3 attempts, capped exponential
	// backoff with jitter).
	Retry runner.RetryPolicy
	// Faults, when non-nil, injects deterministic faults at the engine's
	// hook points (chaos testing). See internal/faultinject.
	Faults *faultinject.Plan
	// Health, when non-nil, receives the sweep's retry/failure counters;
	// when nil the runner allocates its own (see Runner.Health).
	Health *telemetry.Health
	// Metrics, when non-nil, is the registry the engine exposes itself on:
	// health counters, the live per-run-key state table and every
	// simulation counter family (folded in as runs complete — see
	// system.MetricsSink). Registration happens eagerly, so a /metrics
	// scrape shows the full series set before the first run finishes.
	Metrics *metrics.Registry
	// Recorder, when non-nil, receives structured flight-recorder events
	// (run started/retried/done/failed, panics, fault injections,
	// quarantines) and is dumped to its sink on every permanent run
	// failure. See metrics.FlightRecorder.
	Recorder *metrics.FlightRecorder
}

// Runner schedules and caches the simulations experiments request. Traces
// and results are memoized by canonical run key, so experiments sharing a
// configuration (e.g. the baseline) pay for it once — even when they execute
// concurrently. All methods are safe for concurrent use.
type Runner struct {
	sc         Scale
	pool       *runner.Pool
	traces     *runner.Cache[*trace.Trace]
	results    *runner.Cache[*system.Result]
	disk       *runner.Disk
	ctx        context.Context
	cancel     context.CancelFunc
	runTimeout time.Duration
	retry      runner.RetryPolicy
	faults     *faultinject.Plan
	health     *telemetry.Health
	runsTable  *metrics.RunTable
	recorder   *metrics.FlightRecorder
	sink       *system.MetricsSink

	mu       sync.Mutex
	runs     int
	diskHits int
	cacheErr error

	// OnRun, when non-nil, is invoked after every simulation the runner
	// actually performs (memoization and disk-cache hits are silent) with
	// the experiment's run label, the benchmark name and the number of
	// simulations so far — the live-progress hook for long sweeps
	// (cmd/figures -progress). Calls are serialized under the runner's
	// internal lock, so the callback needs no locking of its own; under a
	// parallel sweep the invocation order is nondeterministic. Set it before
	// the first Run.
	OnRun func(key, name string, runs int)
}

// NewRunner creates a sequential runner at the given scale (one simulation
// at a time, no on-disk cache) — the right default for tests and library
// use. Use NewRunnerWith to run simulations in parallel, persist results,
// or govern runs with deadlines and retries.
func NewRunner(sc Scale) *Runner {
	r, err := NewRunnerWith(sc, Options{Jobs: 1})
	if err != nil {
		// Options{Jobs: 1} cannot fail: no cache directory is opened.
		panic(err)
	}
	return r
}

// NewRunnerWith creates a runner with an explicit job count and optional
// on-disk result cache, sweep context/budget, per-run deadline, retry
// policy and fault plan. It fails only when the cache directory cannot be
// created.
func NewRunnerWith(sc Scale, opts Options) (*Runner, error) {
	r := &Runner{
		sc:         sc,
		pool:       runner.NewPool(opts.Jobs),
		traces:     runner.NewCache[*trace.Trace](),
		results:    runner.NewCache[*system.Result](),
		runTimeout: opts.RunTimeout,
		retry:      opts.Retry,
		faults:     opts.Faults,
		health:     opts.Health,
		runsTable:  metrics.NewRunTable(),
		recorder:   opts.Recorder,
	}
	if r.health == nil {
		r.health = new(telemetry.Health)
	}
	if opts.Metrics != nil {
		r.health.RegisterMetrics(opts.Metrics)
		r.runsTable.Register(opts.Metrics)
		r.sink = system.NewMetricsSink(opts.Metrics)
		if r.recorder != nil {
			r.recorder.Register(opts.Metrics)
		}
	}
	if r.recorder != nil {
		// Fault firings become flight-recorder events: ev.ID is the stable
		// run/cache identity the plan matched, ev.Hit the per-identity
		// consultation count, so the recorded set is schedule-independent.
		rec := r.recorder
		opts.Faults.SetObserver(func(ev faultinject.Event) {
			rec.Recordf(metrics.EventFault, ev.ID, ev.Hit, "%s at %s", ev.Kind, ev.Site)
		})
	}
	base := opts.Context
	if base == nil {
		base = context.Background()
	}
	if opts.SweepBudget > 0 {
		r.ctx, r.cancel = context.WithTimeout(base, opts.SweepBudget)
	} else {
		r.ctx, r.cancel = context.WithCancel(base)
	}
	if opts.CacheDir != "" {
		disk, err := runner.NewDisk(opts.CacheDir)
		if err != nil {
			r.cancel()
			return nil, err
		}
		disk.SetFaults(opts.Faults)
		disk.OnQuarantine(func(path string) {
			r.health.Quarantined.Add(1)
			// filepath.Base keeps the event detail free of the (run-specific)
			// cache directory, preserving dump determinism.
			r.recorder.Recordf(metrics.EventQuarantine, "", 0, "%s", filepath.Base(path))
		})
		r.disk = disk
	}
	return r, nil
}

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.sc }

// Jobs returns the runner's simulation concurrency bound.
func (r *Runner) Jobs() int { return r.pool.Jobs() }

// Health returns the sweep's retry/failure counters (never nil).
func (r *Runner) Health() *telemetry.Health { return r.health }

// RunsTable returns the live per-run-key state table (never nil) — the
// backing store of a metrics server's /runs endpoint.
func (r *Runner) RunsTable() *metrics.RunTable { return r.runsTable }

// Recorder returns the flight recorder passed in Options (possibly nil).
func (r *Runner) Recorder() *metrics.FlightRecorder { return r.recorder }

// Cancel cancels the sweep: in-flight simulations finish (and their results
// are cached), every not-yet-started run fails fast with a canceled error,
// and the sweep completes with FAILED markers instead of aborting. Safe to
// call from a signal handler goroutine; idempotent.
func (r *Runner) Cancel() { r.cancel() }

// Interrupted reports whether the sweep's context has been canceled or its
// budget spent.
func (r *Runner) Interrupted() bool { return r.ctx.Err() != nil }

// Quarantined returns how many corrupt disk-cache entries were quarantined
// to ".bad" siblings (and recomputed) during this runner's lifetime.
func (r *Runner) Quarantined() int64 { return r.disk.Quarantined() }

// Runs returns the number of simulations actually performed so far
// (memoization and disk-cache hits excluded).
func (r *Runner) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// DiskHits returns how many results were served from the on-disk cache
// instead of being simulated.
func (r *Runner) DiskHits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.diskHits
}

// CacheErr returns the first on-disk cache read/write failure observed, if
// any. Cache failures never fail a sweep — the result is recomputed or kept
// in memory only — but callers may want to surface them.
func (r *Runner) CacheErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheErr
}

func (r *Runner) ran(key, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	if r.OnRun != nil {
		r.OnRun(key, name, r.runs)
	}
}

func (r *Runner) noteDiskHit() {
	r.mu.Lock()
	r.diskHits++
	r.mu.Unlock()
	r.health.DiskHits.Add(1)
}

func (r *Runner) noteCacheErr(err error) {
	r.mu.Lock()
	if r.cacheErr == nil {
		r.cacheErr = err
	}
	r.mu.Unlock()
	r.health.DiskErrors.Add(1)
}

// noteOutcome folds one governed run's outcome into the health counters.
func (r *Runner) noteOutcome(rr runner.RunResult) {
	h := r.health
	if rr.Attempts > 1 {
		h.Retries.Add(int64(rr.Attempts - 1))
	}
	if rr.Err == nil {
		h.Runs.Add(1)
		return
	}
	h.Failures.Add(1)
	if rr.Panic != nil {
		h.Panics.Add(1)
	}
	switch {
	case errors.Is(rr.Err, context.DeadlineExceeded):
		h.Timeouts.Add(1)
	case errors.Is(rr.Err, context.Canceled):
		h.Canceled.Add(1)
	}
}

// Trace returns the (cached) synthesized trace for a benchmark at the
// scale's primary seed, aborting the enclosing experiment on failure.
func (r *Runner) Trace(name string) *trace.Trace {
	return r.TraceSeeded(name, r.sc.Seed)
}

// TraceSeeded returns the (cached) trace for a benchmark and seed, aborting
// the enclosing experiment on failure (e.g. an unregistered name).
func (r *Runner) TraceSeeded(name string, seed int64) *trace.Trace {
	return must(r.TryTraceSeeded(name, seed))
}

// TryTraceSeeded returns the (cached) trace for a benchmark and seed. Trace
// synthesis is single-flight: concurrent requests for the same trace share
// one build. An unregistered benchmark name is a permanent error carrying
// the trace identity.
func (r *Runner) TryTraceSeeded(name string, seed int64) (*trace.Trace, error) {
	key := fmt.Sprintf("%s@%d", name, seed)
	t, _, err := r.traces.Do(key, func() (*trace.Trace, error) {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace %s: %w", key, err)
		}
		return s.Build(r.sc.TraceLen, seed), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RunSource classifies where a governed run's result came from, so service
// callers can count real computes apart from deduplicated requests.
type RunSource string

// Result provenance values returned by RunOne (and internally by cached).
const (
	// SourceComputed: this request performed the simulation.
	SourceComputed RunSource = "computed"
	// SourceDisk: this request loaded the result from the on-disk store.
	SourceDisk RunSource = "disk"
	// SourceShared: this request coalesced onto another in-flight or
	// already-memoized execution in this process (single-flight dedup).
	SourceShared RunSource = "shared"
)

// cached is the engine core every simulation goes through: it derives the
// canonical run key, consults the in-memory single-flight cache and the
// optional disk cache, and otherwise executes sim on the worker pool under
// ctx — with the given per-run deadline, the configured retry policy and
// fault plan — persisting the fresh result. Sweep-driven callers pass the
// sweep context and runner-wide deadline; service callers thread a
// per-request context/deadline through instead. A permanent failure
// (including a captured panic) is returned as a *RunError carrying the
// label/name run identity; the failed cache entry re-arms, so a later
// request for the same key retries instead of inheriting the failure.
func (r *Runner) cached(ctx context.Context, timeout time.Duration,
	label, name, kind string, names []string, seeds []int64,
	cfg system.Config, sim func() (*system.Result, error)) (*system.Result, RunSource, error) {
	key, err := runner.NewKey(kind, names, seeds, r.sc.TraceLen, cfg)
	if err != nil {
		return nil, SourceComputed, &RunError{Label: label, Name: name, Attempts: 1,
			Err: fmt.Errorf("derive run key: %w", err)}
	}
	id := label + "/" + name
	src := SourceShared // overwritten when this call's compute closure runs
	res, _, err := r.results.Do(key.Hash(), func() (*system.Result, error) {
		r.runsTable.Queued(id, key.Hash())
		fromDisk := new(system.Result)
		if ok, lerr := r.disk.Load(key, fromDisk); lerr != nil {
			r.noteCacheErr(lerr) // unreadable/undecodable entry: recompute below
			r.recorder.Recordf(metrics.EventDiskError, id, 0, "load: %v", lerr)
		} else if ok {
			r.noteDiskHit()
			r.runsTable.Cached(id)
			src = SourceDisk
			return fromDisk, nil
		}
		src = SourceComputed
		var out *system.Result
		attempt := 0
		rr := runner.Execute(ctx, r.retry, func(ctx context.Context) error {
			attempt++
			r.runsTable.Running(id, attempt)
			if attempt == 1 {
				r.recorder.Record(metrics.Event{Kind: metrics.EventRunStarted, Run: id, Attempt: 1})
			} else {
				r.recorder.Record(metrics.Event{Kind: metrics.EventRunRetried, Run: id, Attempt: attempt})
			}
			if ferr := r.faults.Check(faultinject.SiteRun, id); ferr != nil {
				return ferr
			}
			var res *system.Result
			var serr error
			r.pool.Run(func() {
				res, serr = runner.Bounded(ctx, timeout, sim)
			})
			if serr != nil {
				return serr
			}
			out = res
			return nil
		})
		r.noteOutcome(rr)
		if rr.Err != nil {
			r.runsTable.Failed(id, rr.Attempts, rr.Err.Error())
			if rr.Panic != nil {
				r.recorder.Recordf(metrics.EventPanic, id, rr.Attempts, "%v", rr.Panic)
			}
			r.recorder.Recordf(metrics.EventRunFailed, id, rr.Attempts, "%v", rr.Err)
			// A permanent failure dumps the post-mortem; an unwritable sink
			// must not turn diagnostics into a second failure.
			_ = r.recorder.DumpToSink()
			return nil, &RunError{Label: label, Name: name,
				Attempts: rr.Attempts, Panic: rr.Panic, Err: rr.Err}
		}
		r.runsTable.Done(id, rr.Attempts)
		if cfg.CheckInvariants {
			r.recorder.Recordf(metrics.EventAudit, id, rr.Attempts, "ok")
		}
		r.recorder.Record(metrics.Event{Kind: metrics.EventRunDone, Run: id, Attempt: rr.Attempts})
		r.ran(label, name)
		r.sink.Record(out)
		if serr := r.disk.Store(key, out); serr != nil {
			r.noteCacheErr(serr)
			r.recorder.Recordf(metrics.EventDiskError, id, 0, "store: %v", serr)
		}
		return out, nil
	})
	if err != nil {
		return nil, src, err
	}
	return res, src, nil
}

// baseConfig is the scale-adjusted Table I configuration.
func (r *Runner) baseConfig() system.Config {
	cfg := system.DefaultConfig()
	cfg.Instructions = r.sc.Instructions
	cfg.Warmup = r.sc.Warmup
	if r.sc.Timing != "" && r.sc.Timing != system.TimingAnalytic {
		cfg.Timing = r.sc.Timing
	}
	return cfg
}

// Run simulates benchmark name under a modified configuration. key labels
// the modification in progress output; deduplication uses the canonical run
// key (the fully-resolved configuration plus workload, seed and trace
// length), so two experiments requesting identical machines share one
// simulation even under different labels. A permanent failure aborts the
// enclosing experiment (see TryRun for the error-returning form).
func (r *Runner) Run(key, name string, mod func(*system.Config)) *system.Result {
	return must(r.TryRun(key, name, mod))
}

// TryRun is Run returning the failure as a *RunError instead of aborting
// the enclosing experiment — the entry point for callers that handle
// per-run failures themselves.
func (r *Runner) TryRun(label, name string, mod func(*system.Config)) (*system.Result, error) {
	return r.trySeeded(label, name, r.sc.Seed, mod)
}

// runSeeded is Run against the trace synthesized with an explicit seed.
func (r *Runner) runSeeded(label, name string, seed int64, mod func(*system.Config)) *system.Result {
	return must(r.trySeeded(label, name, seed, mod))
}

// trySeeded is the error-returning core of Run/runSeeded.
func (r *Runner) trySeeded(label, name string, seed int64, mod func(*system.Config)) (*system.Result, error) {
	res, _, err := r.runOne(r.ctx, r.runTimeout, label, name, seed, mod)
	return res, err
}

// KeyFor derives the canonical run key a single-core run request maps to —
// the content-addressed identity a sweep service exposes as its API
// contract — without executing anything. mod receives the scale-adjusted
// base configuration exactly as Run would apply it.
func (r *Runner) KeyFor(name string, seed int64, mod func(*system.Config)) (runner.Key, error) {
	cfg := r.baseConfig()
	if mod != nil {
		mod(&cfg)
	}
	return runner.NewKey(runner.KindSingle, []string{name}, []int64{seed}, r.sc.TraceLen, cfg)
}

// RunOne executes (or fetches) one governed single-core simulation on
// behalf of a service request. ctx bounds the computation — pass the
// service's lifetime context, not a per-client one, because single-flight
// waiters share the computing call's context; a nil ctx selects the
// runner's sweep context. timeout, when positive, overrides the
// runner-wide per-run deadline for this request and is propagated through
// context into runner.Bounded. The returned RunSource reports whether this
// request computed the result, loaded it from disk, or coalesced onto a
// shared execution. Failures come back as a *RunError; nothing aborts.
func (r *Runner) RunOne(ctx context.Context, label, name string, seed int64,
	timeout time.Duration, mod func(*system.Config)) (*system.Result, RunSource, error) {
	if ctx == nil {
		ctx = r.ctx
	}
	if timeout <= 0 {
		timeout = r.runTimeout
	}
	return r.runOne(ctx, timeout, label, name, seed, mod)
}

// runOne is the shared single-core core behind trySeeded and RunOne.
func (r *Runner) runOne(ctx context.Context, timeout time.Duration,
	label, name string, seed int64, mod func(*system.Config)) (*system.Result, RunSource, error) {
	cfg := r.baseConfig()
	if mod != nil {
		mod(&cfg)
	}
	return r.cached(ctx, timeout, label, name, runner.KindSingle, []string{name}, []int64{seed}, cfg,
		func() (*system.Result, error) {
			tr, err := r.TryTraceSeeded(name, seed)
			if err != nil {
				return nil, err
			}
			return system.Run(cfg, tr)
		})
}

// Baseline runs the paper's baseline (DRRIP + SHiP) for a benchmark.
func (r *Runner) Baseline(name string) *system.Result {
	return r.Run("baseline", name, nil)
}

// Enhanced runs the given cumulative enhancement level.
func (r *Runner) Enhanced(name string, e system.Enhancement) *system.Result {
	return r.Run("enh:"+e.String(), name, func(c *system.Config) { c.Apply(e) })
}

// SeededSpeedups measures the full-stack speedup of one benchmark across
// the primary seed and every extra seed, returning the individual values in
// seed order. It quantifies how sensitive the headline result is to the
// synthetic trace instance.
func (r *Runner) SeededSpeedups(name string) []float64 {
	return r.SeededSpeedupsAt(name, append([]int64{r.sc.Seed}, r.sc.ExtraSeeds...))
}

// SeededSpeedupsAt is SeededSpeedups over an explicit seed list. Seeds are
// evaluated concurrently (bounded by the runner's job count) and results
// returned in seed order.
func (r *Runner) SeededSpeedupsAt(name string, seeds []int64) []float64 {
	out := make([]float64, len(seeds))
	forEachIndex(len(seeds), func(i int) {
		seed := seeds[i]
		base := r.runSeeded(fmt.Sprintf("baseline@%d", seed), name, seed, nil)
		enh := r.runSeeded(fmt.Sprintf("tempo@%d", seed), name, seed,
			func(c *system.Config) { c.Apply(system.TEMPO) })
		out[i] = enh.SpeedupOver(base)
	})
	return out
}

// catalogEntry pairs an experiment identifier with its generator function.
type catalogEntry struct {
	id string
	fn func(*Runner) *Report
}

// catalog lists every experiment in paper order; IDs, All and ByID all
// derive from it, so an experiment registered here is automatically listed,
// runnable and covered by the documentation-coverage test.
var catalog = []catalogEntry{
	{"fig1", Fig1}, {"fig2", Fig2}, {"fig3", Fig3}, {"fig4", Fig4},
	{"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8},
	{"fig10", Fig10}, {"fig12", Fig12}, {"fig14", Fig14}, {"fig15", Fig15},
	{"fig16", Fig16}, {"fig17", Fig17}, {"fig18", Fig18}, {"fig19", Fig19},
	{"fig20", Fig20}, {"fig21", Fig21}, {"table1", TableI}, {"table2", TableII},
	{"multicore", MultiCore},
	{"ablation-decompose", AblationDecompose},
	{"ablation-walkers", AblationWalkers},
	{"ablation-replaydelay", AblationReplayDelay},
	{"ablation-scatter", AblationScatter},
	{"ablation-t-hawkeye", AblationTHawkeye},
	{"ablation-hugepages", AblationHugePages},
	{"comparison", Comparison},
	{"robustness", Robustness},
	{"mechanisms", Mechanisms},
	{"queues", Queues},
}

// All returns every experiment report at the given scale, in paper order.
func All(sc Scale) []*Report { return AllWith(NewRunner(sc)) }

// AllWith is All on a caller-provided runner, so long sweeps can install a
// progress hook (Runner.OnRun), share memoized results, or run in parallel
// (NewRunnerWith). Experiments execute concurrently — the runner's job count
// bounds how many simulations are in flight — and reports are assembled in
// paper order, so the output is identical to a sequential sweep. A
// permanently-failed run yields FAILED reports for the experiments that
// needed it; the rest of the sweep completes normally.
func AllWith(r *Runner) []*Report {
	reports := make([]*Report, len(catalog))
	forEachIndex(len(catalog), func(i int) {
		reports[i] = runExperiment(r, catalog[i].id, catalog[i].fn)
	})
	return reports
}

// ByID returns a single experiment by its identifier ("fig1".."fig21",
// "table1", "table2", "multicore", "ablation-*", "comparison",
// "robustness").
func ByID(sc Scale, id string) (*Report, error) { return ByIDWith(NewRunner(sc), id) }

// ByIDWith is ByID on a caller-provided runner. Like AllWith, a
// permanently-failed run is contained as a FAILED report, not an error:
// the error return is reserved for unknown identifiers.
func ByIDWith(r *Runner, id string) (*Report, error) {
	want := strings.ToLower(id)
	for _, e := range catalog {
		if e.id == want {
			return runExperiment(r, e.id, e.fn), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists every experiment identifier in paper order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.id
	}
	return out
}
