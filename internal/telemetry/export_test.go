package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

// TestHeartbeatJSONLFieldPresence decodes raw JSONL heartbeat lines and
// asserts every documented field is actually present (a Row-struct decode
// would silently zero-fill missing keys) and that interval indices increase
// monotonically from zero.
func TestHeartbeatJSONLFieldPresence(t *testing.T) {
	var buf bytes.Buffer
	hb := NewHeartbeat(&buf, 1000, nil)
	hb.Begin(Snapshot{})
	for i := 1; i <= 4; i++ {
		hb.Tick(Snapshot{
			Cycle:        int64(i) * 2000,
			Instructions: uint64(i) * 1000,
			STLBAccesses: uint64(i) * 300,
			STLBMisses:   uint64(i) * 30,
			DRAMReads:    uint64(i) * 50,
			DRAMRowHits:  uint64(i) * 20,
		})
	}
	if err := hb.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"interval", "end_cycle", "cycles", "instructions", "ipc",
		"l1d_mpki", "l2_mpki", "llc_mpki", "llc_replay_mpki", "llc_leaf_mpki",
		"stlb_accesses", "stlb_miss_rate", "stlb_mpki",
		"leaf_pte_reads", "leaf_pte_dram", "trans_hit_rate",
		"stall_translation", "stall_replay", "stall_nonreplay", "stall_other",
		"dram_reads", "dram_row_hits", "dram_row_hit_rate",
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		for _, k := range want {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing field %q: %s", i, k, ln)
			}
		}
		if idx, ok := m["interval"].(float64); !ok || int(idx) != i {
			t.Errorf("line %d interval = %v, want %d (monotonic from 0)", i, m["interval"], i)
		}
	}
}

// TestHealthRegisterMetrics checks the registry view reads the same atomics
// the engine bumps — no second copy, no drift.
func TestHealthRegisterMetrics(t *testing.T) {
	h := new(Health)
	reg := metrics.New()
	h.RegisterMetrics(reg)
	h.Runs.Add(7)
	h.Failures.Add(2)
	h.Retries.Add(3)
	h.Quarantined.Add(1)

	got := map[string]float64{}
	for _, s := range reg.Gather() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		`runner_runs_total{outcome="ok"}`:     7,
		`runner_runs_total{outcome="failed"}`: 2,
		"runner_retries_total":                3,
		"runner_quarantined_total":            1,
		"runner_panics_total":                 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	h.Runs.Add(1)
	for _, s := range reg.Gather() {
		if s.Name == `runner_runs_total{outcome="ok"}` && s.Value != 8 {
			t.Errorf("registry did not track live counter: %v", s.Value)
		}
	}
}

// TestSnapshotGauges ticks a heartbeat built with a registry and reads the
// cumulative snapshot back from the sim_* gauges.
func TestSnapshotGauges(t *testing.T) {
	reg := metrics.New()
	hb := NewHeartbeat(nil, 1000, reg)
	gauge := func(name string) float64 {
		for _, s := range reg.Gather() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("series %s not registered", name)
		return 0
	}
	if got := gauge("sim_instructions"); got != 0 {
		t.Fatalf("sim_instructions = %v before the first tick", got)
	}
	var sn Snapshot
	sn.Cycle = 5000
	sn.Instructions = 12_345
	sn.L1DMisses[mem.ClassNonReplay] = 40
	sn.L1DMisses[mem.ClassReplay] = 2
	sn.L1DMisses[mem.ClassPrefetch] = 99 // not a demand class: excluded
	sn.STLBMisses = 17
	sn.Stalls[0] = 100
	sn.DRAMReads = 9
	hb.Begin(Snapshot{})
	hb.Tick(sn)

	for name, want := range map[string]float64{
		"sim_instructions":                      12_345,
		"sim_cycle":                             5000,
		`sim_cache_demand_misses{level="l1d"}`:  42,
		"sim_stlb_misses":                       17,
		`sim_stall_cycles{class="translation"}`: 100,
		"sim_dram_reads":                        9,
	} {
		if got := gauge(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// A second tick overwrites with the newer cumulative values.
	sn.Instructions = 20_000
	hb.Tick(sn)
	if got := gauge("sim_instructions"); got != 20_000 {
		t.Errorf("sim_instructions = %v after the second tick, want 20000", got)
	}

	NewHeartbeat(nil, 1000, nil).Tick(sn) // no registry: no gauges to set
}

// TestHubOnTick checks the nil-safe heartbeat accessor and that ticks driven
// through a hub reach both the interval rows and the live gauges.
func TestHubOnTick(t *testing.T) {
	var nilHub *Hub
	if r := nilHub.HeartbeatOrNil().Tick(Snapshot{Instructions: 7}); r != (Row{}) {
		t.Fatalf("nil hub's heartbeat produced %+v", r)
	}
	if (&Hub{}).HeartbeatOrNil() != nil {
		t.Fatal("hub without a heartbeat returned one")
	}
	reg := metrics.New()
	hub := &Hub{Heartbeat: NewHeartbeat(nil, 1, reg)}
	hb := hub.HeartbeatOrNil()
	if hb != hub.Heartbeat {
		t.Fatal("HeartbeatOrNil did not return the hub's heartbeat")
	}
	hb.Begin(Snapshot{})
	for i := uint64(1); i <= 3; i++ {
		hb.Tick(Snapshot{Cycle: 10 * int64(i), Instructions: i})
	}
	rows := hb.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		if r.Index != i || r.Instructions != 1 || r.Cycles != 10 {
			t.Fatalf("row %d = %+v", i, r)
		}
	}
	found := false
	for _, s := range reg.Gather() {
		if s.Name == "sim_instructions" {
			found = true
			if s.Value != 3 {
				t.Fatalf("sim_instructions = %v after three ticks, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("sim_instructions not registered")
	}
}
