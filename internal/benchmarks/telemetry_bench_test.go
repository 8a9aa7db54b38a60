package benchmarks

import (
	"io"
	"testing"

	"atcsim/internal/mem"
	"atcsim/internal/metrics"
	"atcsim/internal/system"
	"atcsim/internal/telemetry"
	"atcsim/internal/workloads"
)

// benchSim runs the full simulator with an optional telemetry hub. The
// off/on pair guards the hot path: with hub == nil every hook must reduce to
// a nil check, so the "Off" variant must stay at the seed's throughput and
// allocation profile.
func benchSim(b *testing.B, hub func() *telemetry.Hub) {
	b.Helper()
	s, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	tr := s.Build(60_000, 1)
	cfg := system.DefaultConfig()
	cfg.Instructions = 50_000
	cfg.Warmup = 10_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hub != nil {
			cfg.Telemetry = hub()
		}
		if _, err := system.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions), "insts/op")
}

// BenchmarkSimTelemetryOff is the guarded baseline: telemetry compiled in
// but not attached.
func BenchmarkSimTelemetryOff(b *testing.B) { benchSim(b, nil) }

// BenchmarkSimTelemetryOn measures the cost of the full observability stack
// (tracer at the default sampling rate, heartbeat streaming JSONL and
// setting registry gauges).
func BenchmarkSimTelemetryOn(b *testing.B) {
	benchSim(b, func() *telemetry.Hub {
		return &telemetry.Hub{
			Tracer:    telemetry.NewTracer(telemetry.DefaultBufferEvents, telemetry.DefaultSampleEvery),
			Heartbeat: telemetry.NewHeartbeat(io.Discard, 10_000, metrics.New()),
		}
	})
}

// BenchmarkCacheAccessHitTracerNil measures the per-access cost of the
// telemetry guard itself on the hottest path (an L1 hit) with no tracer
// attached — this is the branch every access pays forever.
func BenchmarkCacheAccessHitTracerNil(b *testing.B) {
	l1 := buildHierarchy(b, "ship")
	l1.SetTracer(nil)
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	l1.Access(req, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Access(req, int64(i)*10+100)
	}
}

// BenchmarkCacheAccessHitTracerIdle attaches a tracer that never has an
// active sample window: the guard is a pointer load plus a bool check.
func BenchmarkCacheAccessHitTracerIdle(b *testing.B) {
	l1 := buildHierarchy(b, "ship")
	l1.SetTracer(telemetry.NewTracer(1<<10, 1<<30))
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	l1.Access(req, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Access(req, int64(i)*10+100)
	}
}
