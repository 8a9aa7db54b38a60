package telemetry

import (
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

// RegisterMetrics exposes the Health counters on a metrics registry as
// runner_* counter series. The registry reads the same atomics the engine
// bumps — there is no second copy of the counters, so Health and /metrics
// can never disagree.
func (h *Health) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("runner_runs_total", "Simulations by final outcome.",
		func() float64 { return float64(h.Runs.Load()) }, metrics.L("outcome", "ok"))
	reg.CounterFunc("runner_runs_total", "Simulations by final outcome.",
		func() float64 { return float64(h.Failures.Load()) }, metrics.L("outcome", "failed"))
	reg.CounterFunc("runner_retries_total", "Extra attempts spent on transient failures.",
		func() float64 { return float64(h.Retries.Load()) })
	reg.CounterFunc("runner_panics_total", "Failed runs whose final failure was a captured panic.",
		func() float64 { return float64(h.Panics.Load()) })
	reg.CounterFunc("runner_timeouts_total", "Failed runs abandoned at their per-run deadline.",
		func() float64 { return float64(h.Timeouts.Load()) })
	reg.CounterFunc("runner_canceled_total", "Runs refused or abandoned on sweep cancellation.",
		func() float64 { return float64(h.Canceled.Load()) })
	reg.CounterFunc("runner_disk_hits_total", "Results served from the on-disk cache.",
		func() float64 { return float64(h.DiskHits.Load()) })
	reg.CounterFunc("runner_disk_errors_total", "Disk-cache read/write failures (never fatal).",
		func() float64 { return float64(h.DiskErrors.Load()) })
	reg.CounterFunc("runner_quarantined_total", "Corrupt cache entries moved to .bad siblings.",
		func() float64 { return float64(h.Quarantined.Load()) })
}

// simGauges are the sim_* gauges of a live simulation. A heartbeat built
// with a registry sets them from every cumulative snapshot it ingests, on
// the simulator goroutine, so scraping never touches the per-request path.
type simGauges struct {
	instructions metrics.Gauge
	cycle        metrics.Gauge
	l1dMisses    metrics.Gauge
	l2Misses     metrics.Gauge
	llcMisses    metrics.Gauge
	stlbAccesses metrics.Gauge
	stlbMisses   metrics.Gauge
	leafReads    metrics.Gauge
	leafDRAM     metrics.Gauge
	stalls       [NumStallKinds]metrics.Gauge
	dramReads    metrics.Gauge
	dramRowHits  metrics.Gauge
}

// stallKindNames label the sim_stall_cycles gauge; mirrors internal/cpu's
// StallClass order (asserted in sync by the system layer's tests).
var stallKindNames = [NumStallKinds]string{"translation", "replay", "non-replay", "other"}

// newSimGauges registers the sim_* gauge set on a registry.
func newSimGauges(reg *metrics.Registry) *simGauges {
	g := &simGauges{
		instructions: reg.Gauge("sim_instructions", "Measured instructions stepped so far (live run)."),
		cycle:        reg.Gauge("sim_cycle", "Max core cycle since measurement start (live run)."),
		l1dMisses:    reg.Gauge("sim_cache_demand_misses", "Demand misses so far (live run).", metrics.L("level", "l1d")),
		l2Misses:     reg.Gauge("sim_cache_demand_misses", "Demand misses so far (live run).", metrics.L("level", "l2")),
		llcMisses:    reg.Gauge("sim_cache_demand_misses", "Demand misses so far (live run).", metrics.L("level", "llc")),
		stlbAccesses: reg.Gauge("sim_stlb_accesses", "STLB accesses so far (live run)."),
		stlbMisses:   reg.Gauge("sim_stlb_misses", "STLB misses so far (live run)."),
		leafReads:    reg.Gauge("sim_leaf_pte_reads", "Leaf PTE reads so far (live run)."),
		leafDRAM:     reg.Gauge("sim_leaf_pte_dram", "Leaf PTE reads serviced by DRAM (live run)."),
		dramReads:    reg.Gauge("sim_dram_reads", "DRAM reads so far (live run)."),
		dramRowHits:  reg.Gauge("sim_dram_row_hits", "DRAM row-buffer hits so far (live run)."),
	}
	for k := 0; k < NumStallKinds; k++ {
		g.stalls[k] = reg.Gauge("sim_stall_cycles",
			"ROB-head stall cycles by class (live run).", metrics.L("class", stallKindNames[k]))
	}
	return g
}

// set folds one cumulative snapshot into the gauges.
func (g *simGauges) set(sn Snapshot) {
	demand := func(m [mem.NumClasses]uint64) uint64 {
		return m[mem.ClassNonReplay] + m[mem.ClassReplay]
	}
	g.instructions.SetUint(sn.Instructions)
	g.cycle.Set(float64(sn.Cycle))
	g.l1dMisses.SetUint(demand(sn.L1DMisses))
	g.l2Misses.SetUint(demand(sn.L2Misses))
	g.llcMisses.SetUint(demand(sn.LLCMisses))
	g.stlbAccesses.SetUint(sn.STLBAccesses)
	g.stlbMisses.SetUint(sn.STLBMisses)
	g.leafReads.SetUint(sn.LeafReads)
	g.leafDRAM.SetUint(sn.LeafDRAM)
	for k := 0; k < NumStallKinds; k++ {
		g.stalls[k].SetUint(sn.Stalls[k])
	}
	g.dramReads.SetUint(sn.DRAMReads)
	g.dramRowHits.SetUint(sn.DRAMRowHits)
}
