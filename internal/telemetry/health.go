package telemetry

import "sync/atomic"

// Health aggregates sweep-level fault-tolerance counters: how many runs
// completed, how many were retried, and how every failure was classified.
// It complements the per-run heartbeat stream with whole-campaign liveness —
// a long sweep that is silently burning its retry budget shows up here long
// before it fails. All fields are atomic, so the experiment engine updates
// them from any worker goroutine without locking; readers take a Snapshot.
type Health struct {
	// Runs counts simulations that completed successfully.
	Runs atomic.Int64
	// Retries counts extra attempts spent on transient failures (a run
	// that succeeds on attempt 3 adds 2).
	Retries atomic.Int64
	// Failures counts runs that permanently failed (after any retries).
	Failures atomic.Int64
	// Panics counts failed runs whose final failure was a captured panic.
	Panics atomic.Int64
	// Timeouts counts failed runs abandoned at their per-run deadline.
	Timeouts atomic.Int64
	// Canceled counts runs refused or abandoned because the sweep's
	// context was canceled (SIGINT, sweep budget).
	Canceled atomic.Int64
	// DiskHits counts results served from the on-disk cache.
	DiskHits atomic.Int64
	// DiskErrors counts on-disk cache read/write failures (never fatal —
	// the result is recomputed or kept in memory only).
	DiskErrors atomic.Int64
	// Quarantined counts corrupt cache entries moved to ".bad" siblings.
	Quarantined atomic.Int64
}

// HealthSnapshot is a point-in-time copy of every Health counter.
type HealthSnapshot struct {
	Runs        int64 `json:"runs"`
	Retries     int64 `json:"retries"`
	Failures    int64 `json:"failures"`
	Panics      int64 `json:"panics"`
	Timeouts    int64 `json:"timeouts"`
	Canceled    int64 `json:"canceled"`
	DiskHits    int64 `json:"disk_hits"`
	DiskErrors  int64 `json:"disk_errors"`
	Quarantined int64 `json:"quarantined"`
}

// Snapshot copies the counters. Nil-safe (a nil Health reads as all zeros).
func (h *Health) Snapshot() HealthSnapshot {
	if h == nil {
		return HealthSnapshot{}
	}
	return HealthSnapshot{
		Runs:        h.Runs.Load(),
		Retries:     h.Retries.Load(),
		Failures:    h.Failures.Load(),
		Panics:      h.Panics.Load(),
		Timeouts:    h.Timeouts.Load(),
		Canceled:    h.Canceled.Load(),
		DiskHits:    h.DiskHits.Load(),
		DiskErrors:  h.DiskErrors.Load(),
		Quarantined: h.Quarantined.Load(),
	}
}
