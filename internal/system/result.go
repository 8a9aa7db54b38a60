package system

import (
	"sort"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/ptw"
	"atcsim/internal/stats"
	"atcsim/internal/tlb"
	"atcsim/internal/xlat"
)

// CoreResult captures one hardware thread's measured-phase statistics.
type CoreResult struct {
	Workload     string
	Instructions uint64
	Cycles       int64
	IPC          float64

	CPU    cpu.Stats
	MMU    ptw.MMUStats
	Walker ptw.WalkerStats
	// PSC counts paging-structure-cache lookups and per-level hits.
	PSC tlb.PSCStats
	// ReplayService records which hierarchy level serviced replay loads
	// (the "R" series of Fig. 3).
	ReplayService stats.ServiceDist
	STLB          tlb.Stats
	// STLBRecall is the Fig. 18 recall distribution (empty unless
	// TrackRecall).
	STLBRecall Recall
	// Mechanism names the translation mechanism that serviced this core's
	// STLB misses; Xlat holds its counters (see xlat.Stats).
	Mechanism string
	Xlat      xlat.Stats
}

// Recall pairs a recall-distance histogram with the eviction count that is
// its denominator: evicted blocks that were never recalled have infinite
// recall distance, so fractions must be computed against Evictions, not
// against the histogram's sample count.
type Recall struct {
	Hist      *stats.Histogram
	Evictions uint64
}

// Within returns the fraction of evicted blocks recalled within the given
// distance.
func (r Recall) Within(bound uint64) float64 {
	if r.Hist == nil || r.Evictions == 0 {
		return 0
	}
	recalled := float64(r.Hist.FractionAtMost(bound)) * float64(r.Hist.Total())
	return recalled / float64(r.Evictions)
}

// Valid reports whether any recall data was collected.
func (r Recall) Valid() bool { return r.Hist != nil && r.Evictions > 0 }

// STLBMPKI is the paper's headline pressure metric.
func (c *CoreResult) STLBMPKI() float64 {
	return stats.MPKI(c.MMU.STLBMisses, c.Instructions)
}

// Result is the outcome of one simulation run.
type Result struct {
	Cfg   Config
	Cores []CoreResult

	// L1D and L2 hold stats for each distinct cache instance (one for SMT,
	// one per core otherwise).
	L1D []cache.Stats
	L2  []cache.Stats
	LLC cache.Stats

	DRAM dram.Stats

	// Queues holds per-level deque statistics from the queued timing engine,
	// aggregated over cache instances with the same name and ordered by
	// level then name. Empty (and omitted from JSON, keeping analytic
	// results byte-identical) under analytic timing.
	Queues []QueueLevel `json:",omitempty"`

	// Recall-distance distributions (empty unless TrackRecall). L2 data
	// comes from the first L2 instance.
	L2RecallTrans   Recall
	L2RecallReplay  Recall
	LLCRecallTrans  Recall
	LLCRecallReplay Recall
}

// QueueLevel aggregates one cache level's queued-engine deque statistics
// (per-core instances with the same name — e.g. private L2Cs — are summed).
type QueueLevel struct {
	Name  string
	Level mem.Level
	Q     cache.QueueStats
}

// addQueueStats folds one wrapper's counters into an aggregate row.
func addQueueStats(dst *cache.QueueStats, st cache.QueueStats) {
	dst.RQFull += st.RQFull
	dst.RQMerged += st.RQMerged
	dst.WQFull += st.WQFull
	dst.WQForward += st.WQForward
	dst.PQFull += st.PQFull
	dst.PQMerged += st.PQMerged
	dst.VAPQFull += st.VAPQFull
	dst.MSHRFull += st.MSHRFull
	dst.Enqueued += st.Enqueued
	dst.Drained += st.Drained
}

// collect snapshots all component statistics into a Result. Per-core rows
// are placed by canonical core index, not iteration order, so the Result is
// identical however the scheduler ordered the cores.
func (s *sim) collect() *Result {
	r := &Result{Cfg: s.cfg, LLC: s.llc.Stats(), DRAM: s.channel.Stats()}
	r.Cores = make([]CoreResult, len(s.cores))
	for _, c := range s.cores {
		cycles := c.doneCycle - c.baseCycle
		if cycles <= 0 {
			cycles = 1
		}
		cr := CoreResult{
			Workload:      c.tr.Name,
			Instructions:  uint64(s.cfg.Instructions),
			Cycles:        cycles,
			IPC:           cpu.IPC(uint64(s.cfg.Instructions), cycles),
			CPU:           c.core.Stats(),
			MMU:           c.mmu.Stats(),
			Walker:        c.mmu.W.Stats(),
			PSC:           c.mmu.W.PSCStats(),
			ReplayService: c.replayService,
			STLB:          c.stlb.Stats(),
			STLBRecall:    Recall{Hist: c.stlb.RecallHistogram(), Evictions: c.stlb.RecallEvictions()},
			Mechanism:     c.mmu.Mechanism().Name(),
			Xlat:          c.mmu.Mechanism().Stats(),
		}
		r.Cores[c.id] = cr
	}
	for _, l1d := range s.l1ds {
		r.L1D = append(r.L1D, l1d.Stats())
	}
	for _, l2 := range s.l2s {
		r.L2 = append(r.L2, l2.Stats())
	}
	if len(s.l2s) > 0 {
		l2 := s.l2s[0]
		r.L2RecallTrans = Recall{Hist: l2.RecallHistogram(mem.ClassTransLeaf), Evictions: l2.RecallEvictions(mem.ClassTransLeaf)}
		r.L2RecallReplay = Recall{Hist: l2.RecallHistogram(mem.ClassReplay), Evictions: l2.RecallEvictions(mem.ClassReplay)}
	}
	r.LLCRecallTrans = Recall{Hist: s.llc.RecallHistogram(mem.ClassTransLeaf), Evictions: s.llc.RecallEvictions(mem.ClassTransLeaf)}
	r.LLCRecallReplay = Recall{Hist: s.llc.RecallHistogram(mem.ClassReplay), Evictions: s.llc.RecallEvictions(mem.ClassReplay)}
	if len(s.queued) > 0 {
		idx := map[string]int{}
		for _, q := range s.queued {
			if i, ok := idx[q.Name()]; ok {
				addQueueStats(&r.Queues[i].Q, q.Stats())
			} else {
				idx[q.Name()] = len(r.Queues)
				r.Queues = append(r.Queues, QueueLevel{Name: q.Name(), Level: q.Level(), Q: q.Stats()})
			}
		}
		sort.Slice(r.Queues, func(i, j int) bool {
			if r.Queues[i].Level != r.Queues[j].Level {
				return r.Queues[i].Level < r.Queues[j].Level
			}
			return r.Queues[i].Name < r.Queues[j].Name
		})
	}
	return r
}

// TotalInstructions sums the measured instructions over all cores.
func (r *Result) TotalInstructions() uint64 {
	var t uint64
	for i := range r.Cores {
		t += r.Cores[i].Instructions
	}
	return t
}

// IPC returns core 0's IPC — the single-core headline number.
func (r *Result) IPC() float64 {
	if len(r.Cores) == 0 {
		return 0
	}
	return r.Cores[0].IPC
}

// SpeedupOver returns this run's IPC relative to a baseline run
// (single-core normalized performance).
func (r *Result) SpeedupOver(base *Result) float64 {
	if base == nil || base.IPC() == 0 {
		return 0
	}
	return r.IPC() / base.IPC()
}

// HarmonicSpeedupOver computes the paper's SMT metric: the harmonic mean of
// per-thread speedups against a baseline run of the same mix.
func (r *Result) HarmonicSpeedupOver(base *Result) float64 {
	if base == nil || len(base.Cores) != len(r.Cores) {
		return 0
	}
	sp := make([]float64, len(r.Cores))
	for i := range r.Cores {
		if base.Cores[i].IPC == 0 {
			return 0
		}
		sp[i] = r.Cores[i].IPC / base.Cores[i].IPC
	}
	return stats.HarmonicMean(sp)
}

// LLCMPKI returns the LLC miss MPKI for one access class, normalized to the
// total measured instructions.
func (r *Result) LLCMPKI(class mem.Class) float64 {
	return stats.MPKI(r.LLC.Miss[class], r.TotalInstructions())
}

// L2MPKI aggregates L2 misses of a class across all L2 instances.
func (r *Result) L2MPKI(class mem.Class) float64 {
	var m uint64
	for i := range r.L2 {
		m += r.L2[i].Miss[class]
	}
	return stats.MPKI(m, r.TotalInstructions())
}

// L1DMPKI aggregates L1D misses of a class.
func (r *Result) L1DMPKI(class mem.Class) float64 {
	var m uint64
	for i := range r.L1D {
		m += r.L1D[i].Miss[class]
	}
	return stats.MPKI(m, r.TotalInstructions())
}

// STLBMPKI aggregates STLB misses across cores.
func (r *Result) STLBMPKI() float64 {
	var m uint64
	for i := range r.Cores {
		m += r.Cores[i].MMU.STLBMisses
	}
	return stats.MPKI(m, r.TotalInstructions())
}

// StallCycles sums a stall class over all cores.
func (r *Result) StallCycles(class cpu.StallClass) uint64 {
	var t uint64
	for i := range r.Cores {
		t += r.Cores[i].CPU.StallCycles[class]
	}
	return t
}

// TranslationHitRate is the fraction of leaf-level PTE reads serviced
// on-chip (not by DRAM) — the paper's "99% of translations hit on-chip"
// claim for the enhanced hierarchy.
func (r *Result) TranslationHitRate() float64 {
	var onchip, total uint64
	for i := range r.Cores {
		d := &r.Cores[i].Walker.LeafService
		total += d.Total()
		onchip += d.Total() - d.Count[mem.LvlDRAM]
	}
	return stats.Ratio(onchip, total)
}
