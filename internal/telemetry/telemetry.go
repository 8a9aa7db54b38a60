// Package telemetry is the simulator's observability layer: a sampled
// request-lifecycle tracer that emits Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing), and an interval heartbeat that streams
// time-series statistics as JSON Lines and feeds the live sim_* gauges.
//
// Every entry point is nil-safe: components hold a possibly-nil *Tracer and
// guard each hook site with Active() (one inlinable nil-and-bool check), so
// the telemetry-disabled hot path stays allocation-free and within benchmark
// noise of an uninstrumented build. Telemetry is strictly an observer — it
// never changes simulated timing, so enabling it is bit-identical to running
// without it.
package telemetry

// Hub bundles the observability facilities a run can carry. A nil Hub (the
// default) disables everything; each field may also individually be nil.
type Hub struct {
	// Tracer records sampled request lifecycles.
	Tracer *Tracer
	// Heartbeat streams interval statistics and, when built with a
	// registry, keeps the live sim_* gauges current.
	Heartbeat *Heartbeat
}

// TracerOrNil returns the hub's tracer, tolerating a nil hub.
func (h *Hub) TracerOrNil() *Tracer {
	if h == nil {
		return nil
	}
	return h.Tracer
}

// HeartbeatOrNil returns the hub's heartbeat engine, tolerating a nil hub.
func (h *Hub) HeartbeatOrNil() *Heartbeat {
	if h == nil {
		return nil
	}
	return h.Heartbeat
}
