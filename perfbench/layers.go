package main

import (
	"fmt"
	"sort"
	"strings"
)

// perLayer lists every metric the traced run prints, with its unit, in the
// order BENCHMARK.json declares them. Host times and shares come from the
// traced half of the run; simulated figures are exact counts over every
// distinct simulation of the workload.
var perLayer = []struct{ name, unit string }{
	{"workloads.synth_ms", "ms"},
	{"workloads.synth_ns_per_inst", "ns/inst"},
	{"workloads.graph_ms", "ms"},
	{"workloads.self_pct", "%"},
	{"system.run_ms", "ms"},
	{"system.ns_per_inst", "ns/inst"},
	{"system.build_ms", "ms"},
	{"system.allocs_per_kinst", "allocs/kinst"},
	{"system.self_pct", "%"},
	{"cpu.self_pct", "%"},
	{"cpu.ns_per_inst", "ns/inst"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.cpi_trans", "cycle/inst"},
	{"cpu.cpi_replay", "cycle/inst"},
	{"cpu.cpi_nonreplay", "cycle/inst"},
	{"cpu.cpi_other", "cycle/inst"},
	{"tlb.self_pct", "%"},
	{"tlb.ns_per_lookup", "ns"},
	{"tlb.stlb_mpki", "1/kinst"},
	{"tlb.psc_hit_rate", "fraction"},
	{"ptw.self_pct", "%"},
	{"ptw.ns_per_walk", "ns"},
	{"ptw.walks_pki", "1/kinst"},
	{"ptw.leaf_onchip_frac", "fraction"},
	{"vm.self_pct", "%"},
	{"xlat.self_pct", "%"},
	{"xlat.walks_per_request", "ratio"},
	{"cache.self_pct", "%"},
	{"cache.ns_per_access", "ns"},
	{"cache.l1d_mpki", "1/kinst"},
	{"cache.l2_mpki_trans", "1/kinst"},
	{"cache.l2_mpki_replay", "1/kinst"},
	{"cache.llc_mpki_trans", "1/kinst"},
	{"cache.llc_mpki_replay", "1/kinst"},
	{"cache.llc_dead_replay_frac", "fraction"},
	{"cache.rq_full_pki", "1/kinst"},
	{"cache.wq_forward_pki", "1/kinst"},
	{"cache.pq_full_pki", "1/kinst"},
	{"cache.mshr_full_pki", "1/kinst"},
	{"repl.self_pct", "%"},
	{"prefetch.self_pct", "%"},
	{"prefetch.useful_frac", "fraction"},
	{"prefetch.late_frac", "fraction"},
	{"dram.tempo_pki", "1/kinst"},
	{"dram.self_pct", "%"},
	{"dram.ns_per_read", "ns"},
	{"dram.reads_pki", "1/kinst"},
	{"dram.row_hit_rate", "fraction"},
	{"dram.read_lat_avg", "cycles"},
	{"dram.bus_busy_frac", "fraction"},
	{"experiments.sweep_ms", "ms"},
	{"experiments.computes", "count"},
	{"experiments.sim_frac", "fraction"},
	{"experiments.self_pct", "%"},
	{"simserver.hit_ms_p50", "ms"},
	{"simserver.compute_ms_p50", "ms"},
	{"simserver.resp_kb", "KiB"},
	{"simserver.shed", "count"},
	{"simserver.self_pct", "%"},
	{"json.self_pct", "%"},
	{"http.self_pct", "%"},
	{"runtime.gc_pct", "%"},
	{"runtime.heap_peak_mb", "MiB"},
	{"runtime.self_pct", "%"},
	{"perfbench.self_pct", "%"},
	{"profile.model_layers_pct", "%"},
	{"model.tempo_gm", "ratio"},
	{"model.tempo_err_pp", "pp"},
	{"sim_digest", "hash"},
	{"trace_overhead_pct", "%"},
	{"fail_frac", "fraction"},
}

// layerMetrics collects the traced run's per-layer values.
type layerMetrics map[string]float64

// set records a value; names must be declared in perLayer.
func (m layerMetrics) set(name string, v float64) {
	for _, p := range perLayer {
		if p.name == name {
			m[name] = v
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// out renders every declared metric. One the workload does not exercise,
// or whose counters are missing from the results, is printed as 0 and
// named by printAbsent.
func (m layerMetrics) out() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		out[p.name] = metric{m[p.name], p.unit}
	}
	return out
}

func (m layerMetrics) printAbsent() {
	var absent []string
	for _, p := range perLayer {
		if _, ok := m[p.name]; !ok {
			absent = append(absent, p.name)
		}
	}
	sort.Strings(absent)
	fmt.Printf("absent (printed as 0): %s\n", strings.Join(absent, " "))
}

// profiledLayers are the layers whose self_pct the profile gives.
var profiledLayers = []string{"workloads", "system", "cpu", "tlb", "ptw", "vm", "xlat", "cache",
	"repl", "prefetch", "dram", "experiments", "simserver", "json", "http", "runtime", "perfbench"}

// host sets the host-time metrics of the traced half: span times, profile
// shares, and profile time per simulated event.
func (m layerMetrics) host(b *bench, st phaseStats, attr attribution) {
	if d := b.spans.durations("NewTrace"); len(d) > 0 && b.synthInstr > 0 {
		m.set("workloads.synth_ms", sum(d))
		m.set("workloads.synth_ns_per_inst", sum(d)*1e6/b.synthInstr)
	}
	if d := b.spans.durations("graph"); len(d) > 0 {
		m.set("workloads.graph_ms", d[0])
	}
	runs := append(b.spans.durations("Run"), b.spans.durations("RunMulti")...)
	if len(runs) > 0 {
		m.set("system.run_ms", median(runs))
		m.set("system.ns_per_inst", sum(runs)*1e6/st.instr)
	}
	if d := b.spans.durations("build"); len(d) > 0 {
		m.set("system.build_ms", median(d))
	}
	if d := b.spans.durations("AllWith"); len(d) > 0 {
		m.set("experiments.sweep_ms", median(d))
		m.set("experiments.sim_frac", ratio(float64(attr.simNS), float64(attr.totalNS)))
	}
	for _, l := range profiledLayers {
		m.set(l+".self_pct", attr.pct(l))
	}
	if attr.simNS > 0 {
		m.set("profile.model_layers_pct", 100*ratio(float64(attr.simLayer), float64(attr.simNS)))
	}
}

// sim sets the exact simulated metrics over every distinct simulation, and
// divides the profile's layer times by the events the traced half
// simulated.
func (m layerMetrics) sim(b *bench, recs []opRecord, attr attribution) {
	if !b.results {
		return
	}
	per := make([]counts, len(b.distinct))
	all := counts{}
	for j, raw := range b.distinct {
		c, err := resultCounts(raw)
		if err != nil {
			return
		}
		per[j] = c
		all.add(c)
	}
	for _, sm := range simMetrics {
		if v, ok := sm.eval(all); ok {
			m.set(sm.name, v)
		}
	}
	// Results count events of the measured window only; scale each by the
	// operation's warm-up + measured instructions to cover the whole run.
	traced := counts{}
	for _, r := range recs {
		if r.distinct < 0 || r.distinct >= len(per) || per[r.distinct]["instr"] == 0 {
			continue
		}
		c := per[r.distinct]
		f := r.instr / c["instr"]
		for k, v := range c {
			traced[k] += v * f
		}
	}
	perEvent := func(name, layer string, events ...string) {
		var n float64
		for _, e := range events {
			n += traced[e]
		}
		if n > 0 {
			m.set(name, float64(attr.layerNS[layer])/n)
		}
	}
	perEvent("cpu.ns_per_inst", "cpu", "instr")
	perEvent("tlb.ns_per_lookup", "tlb", "dtlb_access", "stlb_access")
	perEvent("ptw.ns_per_walk", "ptw", "walks")
	perEvent("cache.ns_per_access", "cache", "l1d_access", "l2_access", "llc_access")
	perEvent("dram.ns_per_read", "dram", "dram_reads")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
