package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"atcsim/internal/metrics"
	"atcsim/internal/telemetry"
	"atcsim/internal/trace"
)

// Telemetry must be a pure observer: on every machine shape, timing engine,
// translation mechanism and prefetcher setting, attaching the full hub
// (tracer, plus a heartbeat streaming JSONL and setting registry gauges)
// must leave the Result JSON byte-identical to the bare run. The multi-core rows are the ones an
// observer-dependent scheduler or frame layout would break.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	traces := map[string]*trace.Trace{}
	tr := func(name string) *trace.Trace {
		if traces[name] == nil {
			traces[name] = buildTrace(t, name, 20_000)
		}
		return traces[name]
	}
	machines := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"single", func(cfg Config) (*Result, error) { return Run(cfg, tr("mcf")) }},
		{"smt", func(cfg Config) (*Result, error) { return RunSMT(cfg, tr("pr"), tr("xalancbmk")) }},
		{"4core", func(cfg Config) (*Result, error) {
			return RunMulti(cfg, []*trace.Trace{tr("pr"), tr("canneal"), tr("mcf"), tr("xalancbmk")})
		}},
	}
	prefetchers := []struct{ name, l1d, l2 string }{
		{"nopf", "none", "none"},
		{"ipcp+spp", "ipcp", "spp"},
	}
	for _, m := range machines {
		for _, timing := range []string{TimingAnalytic, TimingQueued} {
			for _, mech := range []string{"atp", "victima", "revelator"} {
				for _, pf := range prefetchers {
					name := m.name + "/" + timing + "/" + mech + "/" + pf.name
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.Instructions = 6_000
						cfg.Warmup = 3_000
						cfg.Apply(TEMPO)
						cfg.Timing = timing
						cfg.Mechanism = mech
						cfg.L1DPrefetcher, cfg.L2Prefetcher = pf.l1d, pf.l2
						checkObserverNeutral(t, cfg, m.run)
					})
				}
			}
		}
	}
}

// checkObserverNeutral runs cfg bare and with every observer attached and
// compares the two Results as atcsim.MarshalResult encodes them.
func checkObserverNeutral(t *testing.T, cfg Config, run func(Config) (*Result, error)) {
	t.Helper()
	marshal := func(cfg Config) []byte {
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bare := marshal(cfg)

	var stream bytes.Buffer
	reg := metrics.New()
	hub := &telemetry.Hub{
		Tracer:    telemetry.NewTracer(1<<12, 8),
		Heartbeat: telemetry.NewHeartbeat(&stream, 1_000, reg),
	}
	cfg.Telemetry = hub
	observed := marshal(cfg)

	if !bytes.Equal(bare, observed) {
		t.Errorf("Result JSON differs with telemetry attached:\n--- bare ---\n%s\n--- observed ---\n%s",
			firstDiffContext(bare, observed), firstDiffContext(observed, bare))
	}

	// The observers actually observed something.
	if hub.Tracer.Sampled() == 0 || len(hub.Tracer.Events()) == 0 {
		t.Error("tracer recorded nothing")
	}
	rows := hub.Heartbeat.Rows()
	if len(rows) == 0 {
		t.Fatal("heartbeat never ticked")
	}
	if err := hub.Heartbeat.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(stream.Bytes(), []byte("\n")); lines != len(rows) {
		t.Errorf("heartbeat streamed %d JSONL lines for %d rows", lines, len(rows))
	}
	var counted uint64
	for _, r := range rows {
		counted += r.Instructions
	}
	gauge := -1.0
	for _, s := range reg.Gather() {
		if s.Name == "sim_instructions" {
			gauge = s.Value
		}
	}
	if gauge != float64(counted) {
		t.Errorf("sim_instructions gauge = %v, heartbeat counted %d instructions", gauge, counted)
	}
}

// firstDiffContext returns the lines of a around its first byte that
// differs from b, to keep failure output readable.
func firstDiffContext(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-300, i+300
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// Heartbeat rows must partition the measured phase: instruction, stall,
// DRAM-read and STLB-access counts sum to the final result's and end cycles
// match it.
func TestHeartbeatReconcilesWithResult(t *testing.T) {
	cfg := quickCfg() // 60_000 measured instructions
	hb := telemetry.NewHeartbeat(nil, 10_000, nil)
	cfg.Telemetry = &telemetry.Hub{Heartbeat: hb}
	res, err := Run(cfg, buildTrace(t, "pr", 90_000))
	if err != nil {
		t.Fatal(err)
	}

	rows := hb.Rows()
	if want := cfg.Instructions / hb.Every(); len(rows) != want {
		t.Fatalf("got %d heartbeat rows, want %d", len(rows), want)
	}
	var insts, stalls, dramReads, stlbAccesses uint64
	for i, r := range rows {
		if r.Index != i {
			t.Errorf("row %d has index %d", i, r.Index)
		}
		if r.Cycles <= 0 || r.IPC <= 0 {
			t.Errorf("row %d empty: %+v", i, r)
		}
		insts += r.Instructions
		stalls += r.StallTranslation + r.StallReplay + r.StallNonReplay + r.StallOther
		dramReads += r.DRAMReads
		stlbAccesses += r.STLBAccesses
	}
	if insts != uint64(cfg.Instructions) {
		t.Errorf("heartbeat instructions sum to %d, want %d", insts, cfg.Instructions)
	}
	last := rows[len(rows)-1]
	if last.EndCycle != res.Cores[0].Cycles {
		t.Errorf("last row ends at cycle %d, result has %d cycles", last.EndCycle, res.Cores[0].Cycles)
	}
	var wantStalls uint64
	for _, s := range res.Cores[0].CPU.StallCycles {
		wantStalls += s
	}
	if stalls != wantStalls {
		t.Errorf("heartbeat stall cycles sum to %d, result has %d", stalls, wantStalls)
	}
	if dramReads == 0 || dramReads != res.DRAM.Reads {
		t.Errorf("heartbeat DRAM reads sum to %d, result has %d", dramReads, res.DRAM.Reads)
	}
	if want := res.Cores[0].MMU.STLBAccesses; stlbAccesses == 0 || stlbAccesses != want {
		t.Errorf("heartbeat STLB accesses sum to %d, result has %d", stlbAccesses, want)
	}
	// pr thrashes the STLB: the derived rates must reflect that.
	if last.STLBMPKI <= 1 {
		t.Errorf("pr STLB MPKI %.2f suspiciously low in heartbeat", last.STLBMPKI)
	}
}

// A trace produced by a real run must be valid Chrome trace-event JSON with
// events on every lane the pr workload exercises.
func TestRunProducesLoadableChromeTrace(t *testing.T) {
	cfg := quickCfg()
	tr := telemetry.NewTracer(1<<14, 16)
	cfg.Telemetry = &telemetry.Hub{Tracer: tr}
	if _, err := Run(cfg, buildTrace(t, "pr", 90_000)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("run trace is not valid JSON: %v", err)
	}
	lanes := map[int]int{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "M" {
			lanes[ev.Tid]++
		}
	}
	for lane := telemetry.LaneRequest; lane <= telemetry.LaneStall; lane++ {
		if lanes[int(lane)] == 0 {
			t.Errorf("no events on lane %v", lane)
		}
	}
}
