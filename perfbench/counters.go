package main

import (
	"encoding/json"
	"fmt"

	"atcsim"
	"atcsim/internal/cpu"
	"atcsim/internal/mem"
)

// Simulated statistics are read from the JSON that atcsim.MarshalResult
// writes, by field name, so the benchmark keeps building when Result's Go
// types change. A field that is gone reads as absent: the metric built from
// it is reported as absent instead of failing the run.

// lookup walks a decoded JSON value along path and sums the numbers it
// reaches. An array on the way is summed over every element, unless the
// next path element is an index ("#3"). ok is false when no number is
// reached.
func lookup(v any, path ...string) (sum float64, ok bool) {
	if len(path) == 0 {
		switch x := v.(type) {
		case float64:
			return x, true
		case []any:
			for _, e := range x {
				if s, k := lookup(e); k {
					sum, ok = sum+s, true
				}
			}
		}
		return sum, ok
	}
	switch x := v.(type) {
	case map[string]any:
		return lookup(x[path[0]], path[1:]...)
	case []any:
		var i int
		if _, err := fmt.Sscanf(path[0], "#%d", &i); err == nil {
			if i < 0 || i >= len(x) {
				return 0, false
			}
			return lookup(x[i], path[1:]...)
		}
		for _, e := range x {
			if s, k := lookup(e, path...); k {
				sum, ok = sum+s, true
			}
		}
	}
	return sum, ok
}

// idx renders an array index path element.
func idx[T ~int | ~uint8](i T) string { return fmt.Sprintf("#%d", int(i)) }

// counts holds summed counters over a set of results; a missing name was
// absent from every result.
type counts map[string]float64

// counterPaths names the counters the per-layer simulated metrics are
// built from; a counter sums every path listed for it.
var counterPaths = map[string][][]string{
	"instr":         {{"Cores", "Instructions"}},
	"cycles":        {{"Cores", "Cycles"}},
	"stall_trans":   {{"Cores", "CPU", "StallCycles", idx(cpu.StallTranslation)}},
	"stall_replay":  {{"Cores", "CPU", "StallCycles", idx(cpu.StallReplay)}},
	"stall_nonrep":  {{"Cores", "CPU", "StallCycles", idx(cpu.StallNonReplay)}},
	"stall_other":   {{"Cores", "CPU", "StallCycles", idx(cpu.StallOther)}},
	"dtlb_access":   {{"Cores", "MMU", "DTLBAccesses"}},
	"stlb_access":   {{"Cores", "MMU", "STLBAccesses"}},
	"stlb_miss":     {{"Cores", "MMU", "STLBMisses"}},
	"psc_lookups":   {{"Cores", "PSC", "Lookups"}},
	"psc_hits_pd":   {{"Cores", "PSC", "Hits", "#2"}},
	"walks":         {{"Cores", "Walker", "Walks"}},
	"leaf_total":    {{"Cores", "Walker", "LeafService", "Count"}},
	"leaf_dram":     {{"Cores", "Walker", "LeafService", "Count", idx(mem.LvlDRAM)}},
	"xlat_requests": {{"Cores", "Xlat", "Requests"}},
	"xlat_walks":    {{"Cores", "Xlat", "Walks"}},
	"l1d_access":    {{"L1D", "Access"}},
	"l2_access":     {{"L2", "Access"}},
	"llc_access":    {{"LLC", "Access"}},
	"l1d_miss":      {{"L1D", "Miss"}},
	"l2_miss_trans": {{"L2", "Miss", idx(atcsim.ClassTransLeaf)}},
	"l2_miss_rep":   {{"L2", "Miss", idx(atcsim.ClassReplay)}},
	"llc_miss_tr":   {{"LLC", "Miss", idx(atcsim.ClassTransLeaf)}},
	"llc_miss_rep":  {{"LLC", "Miss", idx(atcsim.ClassReplay)}},
	"llc_evict_rep": {{"LLC", "Evictions", idx(atcsim.ClassReplay)}},
	"llc_dead_rep":  {{"LLC", "DeadEvictions", idx(atcsim.ClassReplay)}},
	"pref_issued":   {{"L2", "PrefIssued"}, {"LLC", "PrefIssued"}},
	"pref_useful":   {{"L2", "PrefUseful"}, {"LLC", "PrefUseful"}},
	"pref_late":     {{"L2", "PrefLate"}, {"LLC", "PrefLate"}},
	"dram_reads":    {{"DRAM", "Reads"}},
	"dram_lat_sum":  {{"DRAM", "ReadLatencySum"}},
	"dram_row_hits": {{"DRAM", "RowHits"}},
	"dram_row_cl":   {{"DRAM", "RowClosed"}},
	"dram_row_miss": {{"DRAM", "RowMisses"}},
	"dram_tempo":    {{"DRAM", "TEMPOIssued"}},
	"dram_busy":     {{"DRAM", "BusyCycles"}},
	"q_rq_full":     {{"Queues", "Q", "RQFull"}},
	"q_wq_forward":  {{"Queues", "Q", "WQForward"}},
	"q_pq_full":     {{"Queues", "Q", "PQFull"}},
	"q_mshr_full":   {{"Queues", "Q", "MSHRFull"}},
}

// resultCounts sums the named counters of one marshaled Result.
func resultCounts(raw []byte) (counts, error) {
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	c := counts{}
	for name, paths := range counterPaths {
		for _, path := range paths {
			if x, ok := lookup(v, path...); ok {
				c[name] += x
			}
		}
	}
	// The DRAM bus is shared, so its busy share is over the longest core.
	if x, ok := maxOver(v, "Cores", "Cycles"); ok {
		c["max_cycles"] = x
	}
	return c, nil
}

// maxOver returns the largest number at path under an array field.
func maxOver(v any, array, field string) (float64, bool) {
	m, _ := v.(map[string]any)
	xs, _ := m[array].([]any)
	var best float64
	ok := false
	for _, e := range xs {
		if x, k := lookup(e, field); k && (!ok || x > best) {
			best, ok = x, true
		}
	}
	return best, ok
}

// add sums o into c.
func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// simMetric is one per-layer metric derived from simulated counters.
type simMetric struct {
	name, unit string
	num, den   []string // counter names summed for the numerator and denominator
	scale      float64  // multiplies num/den
	minus      []string // subtracted from the numerator
}

// simMetrics are the exact simulated per-layer metrics. They repeat exactly
// for a seed, so a change that should not alter the model is checked by
// equality, not by a bound.
var simMetrics = []simMetric{
	{name: "cpu.ipc", unit: "inst/cycle", num: []string{"instr"}, den: []string{"cycles"}, scale: 1},
	{name: "cpu.cpi_trans", unit: "cycle/inst", num: []string{"stall_trans"}, den: []string{"instr"}, scale: 1},
	{name: "cpu.cpi_replay", unit: "cycle/inst", num: []string{"stall_replay"}, den: []string{"instr"}, scale: 1},
	{name: "cpu.cpi_nonreplay", unit: "cycle/inst", num: []string{"stall_nonrep"}, den: []string{"instr"}, scale: 1},
	{name: "cpu.cpi_other", unit: "cycle/inst", num: []string{"stall_other"}, den: []string{"instr"}, scale: 1},
	{name: "tlb.stlb_mpki", unit: "1/kinst", num: []string{"stlb_miss"}, den: []string{"instr"}, scale: 1000},
	{name: "tlb.psc_hit_rate", unit: "fraction", num: []string{"psc_hits_pd"}, den: []string{"psc_lookups"}, scale: 1},
	{name: "ptw.walks_pki", unit: "1/kinst", num: []string{"walks"}, den: []string{"instr"}, scale: 1000},
	{name: "ptw.leaf_onchip_frac", unit: "fraction", num: []string{"leaf_total"}, minus: []string{"leaf_dram"}, den: []string{"leaf_total"}, scale: 1},
	{name: "xlat.walks_per_request", unit: "ratio", num: []string{"xlat_walks"}, den: []string{"xlat_requests"}, scale: 1},
	{name: "cache.l1d_mpki", unit: "1/kinst", num: []string{"l1d_miss"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.l2_mpki_trans", unit: "1/kinst", num: []string{"l2_miss_trans"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.l2_mpki_replay", unit: "1/kinst", num: []string{"l2_miss_rep"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.llc_mpki_trans", unit: "1/kinst", num: []string{"llc_miss_tr"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.llc_mpki_replay", unit: "1/kinst", num: []string{"llc_miss_rep"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.llc_dead_replay_frac", unit: "fraction", num: []string{"llc_dead_rep"}, den: []string{"llc_evict_rep"}, scale: 1},
	{name: "cache.rq_full_pki", unit: "1/kinst", num: []string{"q_rq_full"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.wq_forward_pki", unit: "1/kinst", num: []string{"q_wq_forward"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.pq_full_pki", unit: "1/kinst", num: []string{"q_pq_full"}, den: []string{"instr"}, scale: 1000},
	{name: "cache.mshr_full_pki", unit: "1/kinst", num: []string{"q_mshr_full"}, den: []string{"instr"}, scale: 1000},
	{name: "prefetch.useful_frac", unit: "fraction", num: []string{"pref_useful"}, den: []string{"pref_issued"}, scale: 1},
	{name: "prefetch.late_frac", unit: "fraction", num: []string{"pref_late"}, den: []string{"pref_issued"}, scale: 1},
	{name: "dram.tempo_pki", unit: "1/kinst", num: []string{"dram_tempo"}, den: []string{"instr"}, scale: 1000},
	{name: "dram.reads_pki", unit: "1/kinst", num: []string{"dram_reads"}, den: []string{"instr"}, scale: 1000},
	{name: "dram.row_hit_rate", unit: "fraction", num: []string{"dram_row_hits"}, den: []string{"dram_row_hits", "dram_row_cl", "dram_row_miss"}, scale: 1},
	{name: "dram.read_lat_avg", unit: "cycles", num: []string{"dram_lat_sum"}, den: []string{"dram_reads"}, scale: 1},
	{name: "dram.bus_busy_frac", unit: "fraction", num: []string{"dram_busy"}, den: []string{"max_cycles"}, scale: 1},
}

// eval computes m over c; ok is false when any counter it needs is absent.
func (m simMetric) eval(c counts) (float64, bool) {
	sum := func(names []string) (float64, bool) {
		var s float64
		for _, n := range names {
			v, ok := c[n]
			if !ok {
				return 0, false
			}
			s += v
		}
		return s, true
	}
	num, ok1 := sum(m.num)
	minus, ok2 := sum(m.minus)
	den, ok3 := sum(m.den)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	return m.scale * ratio(num-minus, den), true
}
