package system

import (
	"strconv"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

// MetricsSink maps completed simulation Results onto a metrics registry.
//
// The simulator's components keep their own plain uint64 Stats structs on
// the hot path; the sink never touches per-access code. Instead the
// experiment runner calls Record once per *completed* run, folding the
// run's totals into shared counters with a handful of atomic adds. All
// families register eagerly at construction, so a /metrics scrape sees the
// full series set (at zero) before the first run completes.
type MetricsSink struct {
	runs metrics.Counter

	// Cache hierarchy, indexed [level][class] with levels l1d/l2/llc.
	cacheAccess    [3][mem.NumClasses]metrics.Counter
	cacheMiss      [3][mem.NumClasses]metrics.Counter
	cacheEvict     [3]metrics.Counter
	cacheDeadEvict [3]metrics.Counter
	writebacks     [3]metrics.Counter
	merges         [3]metrics.Counter
	bypasses       [3]metrics.Counter
	prefIssued     [3]metrics.Counter
	prefUseful     [3]metrics.Counter
	prefLate       [3]metrics.Counter
	prefDropped    [3]metrics.Counter

	// Queued-timing deque backpressure (zero under analytic timing).
	qRQFull    [3]metrics.Counter
	qRQMerged  [3]metrics.Counter
	qWQFull    [3]metrics.Counter
	qWQForward [3]metrics.Counter
	qPQFull    [3]metrics.Counter
	qPQMerged  [3]metrics.Counter
	qVAPQFull  [3]metrics.Counter
	qMSHRFull  [3]metrics.Counter

	// Translation: first-level TLBs + STLB, paging-structure caches, walker.
	tlbAccess   [3]metrics.Counter // dtlb, itlb, stlb
	tlbMiss     [3]metrics.Counter
	stlbEvict   metrics.Counter
	pscLookups  metrics.Counter
	pscHits     [mem.PTLevels + 1]metrics.Counter // index by level 2..5
	walks       metrics.Counter
	pteReads    [mem.PTLevels + 1]metrics.Counter // index by level 1..5
	leafService [mem.NumLevels]metrics.Counter

	// DRAM channel.
	dramReads, dramWrites metrics.Counter
	rowHits, rowClosed    metrics.Counter
	rowMisses             metrics.Counter
	tempoIssued           metrics.Counter
	busyCycles            metrics.Counter

	// Cores.
	instructions, cycles metrics.Counter
	stalls               [cpu.NumStallClasses]metrics.Counter
	branches, mispreds   metrics.Counter

	// Translation mechanisms (internal/xlat).
	xlatRequests  metrics.Counter
	xlatWalks     metrics.Counter
	xlatCacheHits metrics.Counter
	xlatInserts   metrics.Counter
	xlatSpecs     metrics.Counter
	xlatMisspecs  metrics.Counter
}

// cacheLevelNames label the three cache levels the sink aggregates over
// (instances of the same level are summed).
var cacheLevelNames = [3]string{"l1d", "l2", "llc"}

// tlbKindNames label the MMU's TLB structures.
var tlbKindNames = [3]string{"dtlb", "itlb", "stlb"}

// NewMetricsSink registers every simulation family on reg and returns the
// sink. Registration is idempotent per registry (the registry hands back
// existing series), so a second sink on the same registry shares counters.
func NewMetricsSink(reg *metrics.Registry) *MetricsSink {
	m := &MetricsSink{
		runs: reg.Counter("sim_results_recorded_total",
			"Completed simulations folded into these counters."),
		stlbEvict: reg.Counter("tlb_evictions_total",
			"STLB entries evicted.", metrics.L("kind", "stlb")),
		pscLookups: reg.Counter("psc_lookups_total",
			"Paging-structure-cache lookups (all levels probed in parallel)."),
		walks: reg.Counter("ptw_walks_total", "Page-table walks started."),
		dramReads: reg.Counter("dram_reads_total",
			"DRAM read requests serviced."),
		dramWrites: reg.Counter("dram_writes_total",
			"DRAM write requests serviced."),
		rowHits: reg.Counter("dram_row_hits_total",
			"DRAM reads hitting an open row buffer."),
		rowClosed: reg.Counter("dram_row_closed_total",
			"DRAM reads to a closed (precharged) bank."),
		rowMisses: reg.Counter("dram_row_misses_total",
			"DRAM reads conflicting with a different open row."),
		tempoIssued: reg.Counter("dram_tempo_prefetches_total",
			"TEMPO translation-triggered prefetches issued."),
		busyCycles: reg.Counter("dram_busy_cycles_total",
			"DRAM data-bus cycles booked."),
		instructions: reg.Counter("cpu_instructions_total",
			"Measured instructions retired across cores."),
		cycles: reg.Counter("cpu_cycles_total",
			"Measured core cycles summed across cores."),
		branches: reg.Counter("cpu_branches_total", "Branches executed."),
		mispreds: reg.Counter("cpu_mispredicts_total",
			"Branches mispredicted."),
		xlatRequests: reg.Counter("xlat_requests_total",
			"STLB-missing translations handled by the configured mechanism."),
		xlatWalks: reg.Counter("xlat_walks_total",
			"Hardware page walks the mechanism issued (fallback or verification)."),
		xlatCacheHits: reg.Counter("xlat_cache_hits_total",
			"Translations serviced by cache-resident TLB blocks (victima)."),
		xlatInserts: reg.Counter("xlat_tlb_block_inserts_total",
			"STLB-evicted entries parked into L2C/LLC (victima)."),
		xlatSpecs: reg.Counter("xlat_speculations_total",
			"Speculative translation fetches issued (revelator)."),
		xlatMisspecs: reg.Counter("xlat_misspeculations_total",
			"Speculations squashed by the verification walk (revelator)."),
	}
	for li, level := range cacheLevelNames {
		lv := metrics.L("level", level)
		for c := mem.Class(0); c < mem.NumClasses; c++ {
			cl := metrics.L("class", c.String())
			m.cacheAccess[li][c] = reg.Counter("cache_accesses_total",
				"Cache lookups by level and access class.", lv, cl)
			m.cacheMiss[li][c] = reg.Counter("cache_misses_total",
				"Cache misses by level and access class.", lv, cl)
		}
		m.cacheEvict[li] = reg.Counter("cache_evictions_total",
			"Blocks evicted.", lv)
		m.cacheDeadEvict[li] = reg.Counter("cache_dead_evictions_total",
			"Blocks evicted without reuse after fill.", lv)
		m.writebacks[li] = reg.Counter("cache_writebacks_total",
			"Dirty blocks written back.", lv)
		m.merges[li] = reg.Counter("cache_mshr_merges_total",
			"Accesses merged with an in-flight miss.", lv)
		m.bypasses[li] = reg.Counter("cache_bypasses_total",
			"Fills skipped by a dead-block-bypassing policy.", lv)
		m.prefIssued[li] = reg.Counter("prefetch_issued_total",
			"Prefetches that allocated a fill.", lv)
		m.prefUseful[li] = reg.Counter("prefetch_useful_total",
			"Demand hits on prefetched blocks.", lv)
		m.prefLate[li] = reg.Counter("prefetch_late_total",
			"Demand accesses merged with an in-flight prefetch.", lv)
		m.prefDropped[li] = reg.Counter("prefetch_dropped_total",
			"Prefetches dropped on saturated MSHRs.", lv)
		m.qRQFull[li] = reg.Counter("cache_queue_rq_full_total",
			"Cycles a demand read stalled on a full read queue (queued timing).", lv)
		m.qRQMerged[li] = reg.Counter("cache_queue_rq_merged_total",
			"Demand reads that matched an in-flight read-queue entry (queued timing).", lv)
		m.qWQFull[li] = reg.Counter("cache_queue_wq_full_total",
			"Cycles a writeback stalled on a full write queue (queued timing).", lv)
		m.qWQForward[li] = reg.Counter("cache_queue_wq_forward_total",
			"Demand reads serviced by forwarding from a queued writeback (queued timing).", lv)
		m.qPQFull[li] = reg.Counter("cache_queue_pq_full_total",
			"Prefetches dropped on a full prefetch queue (queued timing).", lv)
		m.qPQMerged[li] = reg.Counter("cache_queue_pq_merged_total",
			"Prefetches merged with an already-queued prefetch (queued timing).", lv)
		m.qVAPQFull[li] = reg.Counter("cache_queue_vapq_full_total",
			"Distant prefetches dropped on a full virtual-address prefetch queue (queued timing).", lv)
		m.qMSHRFull[li] = reg.Counter("cache_queue_mshr_full_total",
			"Cycles the read-queue head stalled on saturated MSHRs (queued timing).", lv)
	}
	for ki, kind := range tlbKindNames {
		kv := metrics.L("kind", kind)
		m.tlbAccess[ki] = reg.Counter("tlb_accesses_total",
			"TLB lookups by structure.", kv)
		m.tlbMiss[ki] = reg.Counter("tlb_misses_total",
			"TLB misses by structure.", kv)
	}
	for lvl := 2; lvl <= mem.PTLevels; lvl++ {
		m.pscHits[lvl] = reg.Counter("psc_hits_total",
			"Paging-structure-cache hits by page-table level.",
			metrics.L("level", strconv.Itoa(lvl)))
	}
	for lvl := 1; lvl <= mem.PTLevels; lvl++ {
		m.pteReads[lvl] = reg.Counter("ptw_pte_reads_total",
			"PTE reads issued by the walker, by page-table level.",
			metrics.L("level", strconv.Itoa(lvl)))
	}
	for l := mem.Level(0); l < mem.NumLevels; l++ {
		m.leafService[l] = reg.Counter("ptw_leaf_service_total",
			"Leaf PTE reads by the hierarchy level that serviced them.",
			metrics.L("src", levelLabel(l)))
	}
	for c := cpu.StallClass(0); c < cpu.NumStallClasses; c++ {
		m.stalls[c] = reg.Counter("cpu_stall_cycles_total",
			"ROB-head stall cycles by class.", metrics.L("class", c.String()))
	}
	return m
}

// levelLabel lowercases mem.Level names for label values ("l1d".."dram").
func levelLabel(l mem.Level) string {
	switch l {
	case mem.LvlL1D:
		return "l1d"
	case mem.LvlL2:
		return "l2c"
	case mem.LvlLLC:
		return "llc"
	case mem.LvlDRAM:
		return "dram"
	}
	return "unknown"
}

// Record folds one completed run's totals into the registry. Nil-safe on
// both receiver and result; safe for concurrent use (every counter is one
// atomic word).
func (m *MetricsSink) Record(res *Result) {
	if m == nil || res == nil {
		return
	}
	m.runs.Inc()
	for _, st := range res.L1D {
		m.foldCache(0, st)
	}
	for _, st := range res.L2 {
		m.foldCache(1, st)
	}
	m.foldCache(2, res.LLC)
	for _, ql := range res.Queues {
		m.foldQueue(ql)
	}

	for i := range res.Cores {
		c := &res.Cores[i]
		m.tlbAccess[0].Add(c.MMU.DTLBAccesses)
		m.tlbMiss[0].Add(c.MMU.DTLBMisses)
		m.tlbAccess[1].Add(c.MMU.ITLBAccesses)
		m.tlbMiss[1].Add(c.MMU.ITLBMisses)
		m.tlbAccess[2].Add(c.MMU.STLBAccesses)
		m.tlbMiss[2].Add(c.MMU.STLBMisses)
		m.stlbEvict.Add(c.STLB.Evictions)
		m.pscLookups.Add(c.PSC.Lookups)
		for lvl := 2; lvl <= mem.PTLevels; lvl++ {
			m.pscHits[lvl].Add(c.PSC.Hits[lvl])
		}
		m.walks.Add(c.Walker.Walks)
		for lvl := 1; lvl <= mem.PTLevels; lvl++ {
			m.pteReads[lvl].Add(c.Walker.StepsPerLevel[lvl])
		}
		for l := mem.Level(0); l < mem.NumLevels; l++ {
			m.leafService[l].Add(c.Walker.LeafService.Count[l])
		}
		m.instructions.Add(c.Instructions)
		if c.Cycles > 0 {
			m.cycles.Add(uint64(c.Cycles))
		}
		for sc := cpu.StallClass(0); sc < cpu.NumStallClasses; sc++ {
			m.stalls[sc].Add(c.CPU.StallCycles[sc])
		}
		m.branches.Add(c.CPU.Branches)
		m.mispreds.Add(c.CPU.Mispredicts)
		m.xlatRequests.Add(c.Xlat.Requests)
		m.xlatWalks.Add(c.Xlat.Walks)
		m.xlatCacheHits.Add(c.Xlat.CacheHitsL2 + c.Xlat.CacheHitsLLC)
		m.xlatInserts.Add(c.Xlat.TLBBlockInserts)
		m.xlatSpecs.Add(c.Xlat.Speculations)
		m.xlatMisspecs.Add(c.Xlat.SpecWrong)
	}

	d := &res.DRAM
	m.dramReads.Add(d.Reads)
	m.dramWrites.Add(d.Writes)
	m.rowHits.Add(d.RowHits)
	m.rowClosed.Add(d.RowClosed)
	m.rowMisses.Add(d.RowMisses)
	m.tempoIssued.Add(d.TEMPOIssued)
	m.busyCycles.Add(d.BusyCycles)
}

// foldCache adds one cache instance's stats into level li's counters.
func (m *MetricsSink) foldCache(li int, st cache.Stats) {
	for c := mem.Class(0); c < mem.NumClasses; c++ {
		m.cacheAccess[li][c].Add(st.Access[c])
		m.cacheMiss[li][c].Add(st.Miss[c])
		m.cacheEvict[li].Add(st.Evictions[c])
		m.cacheDeadEvict[li].Add(st.DeadEvictions[c])
	}
	m.writebacks[li].Add(st.Writebacks)
	m.merges[li].Add(st.Merges)
	m.bypasses[li].Add(st.Bypasses)
	m.prefIssued[li].Add(st.PrefIssued)
	m.prefUseful[li].Add(st.PrefUseful)
	m.prefLate[li].Add(st.PrefLate)
	m.prefDropped[li].Add(st.PrefDropped)
}

// foldQueue adds one queued-timing level's deque counters. The L1I wrapper
// shares mem.LvlL1D and so folds into the l1d series alongside the L1D one.
func (m *MetricsSink) foldQueue(ql QueueLevel) {
	var li int
	switch ql.Level {
	case mem.LvlL1D:
		li = 0
	case mem.LvlL2:
		li = 1
	case mem.LvlLLC:
		li = 2
	default:
		return
	}
	m.qRQFull[li].Add(ql.Q.RQFull)
	m.qRQMerged[li].Add(ql.Q.RQMerged)
	m.qWQFull[li].Add(ql.Q.WQFull)
	m.qWQForward[li].Add(ql.Q.WQForward)
	m.qPQFull[li].Add(ql.Q.PQFull)
	m.qPQMerged[li].Add(ql.Q.PQMerged)
	m.qVAPQFull[li].Add(ql.Q.VAPQFull)
	m.qMSHRFull[li].Add(ql.Q.MSHRFull)
}
