package atcsim

import (
	"fmt"
	"io"

	"atcsim/internal/cpu"
	"atcsim/internal/mem"
)

// WriteReport writes the human-readable headline report for a run: per-core
// IPC, TLB MPKI, stall attribution and service-level breakdowns, then the
// cache MPKI line, on-chip translation hit rate and DRAM summary. It is the
// report the atcsim command prints, exported so tests can golden-snapshot
// it and library users can render results uniformly. The output is fully
// deterministic for a deterministic Result.
func WriteReport(w io.Writer, res *Result) {
	for i := range res.Cores {
		c := &res.Cores[i]
		fmt.Fprintf(w, "core %d (%s): IPC %.4f over %d cycles\n", i, c.Workload, c.IPC, c.Cycles)
		fmt.Fprintf(w, "  STLB MPKI %.2f (misses %d), DTLB MPKI %.2f\n",
			c.STLBMPKI(), c.MMU.STLBMisses,
			1000*float64(c.MMU.DTLBMisses)/float64(c.Instructions))
		fmt.Fprintf(w, "  ROB head stalls: translation %d, replay %d, non-replay %d cycles\n",
			c.CPU.StallCycles[cpu.StallTranslation],
			c.CPU.StallCycles[cpu.StallReplay],
			c.CPU.StallCycles[cpu.StallNonReplay])
		ls := &c.Walker.LeafService
		fmt.Fprintf(w, "  leaf translations serviced: L1D %.1f%%  L2C %.1f%%  LLC %.1f%%  DRAM %.1f%%\n",
			100*ls.Fraction(mem.LvlL1D), 100*ls.Fraction(mem.LvlL2),
			100*ls.Fraction(mem.LvlLLC), 100*ls.Fraction(mem.LvlDRAM))
		rs := &c.ReplayService
		if rs.Total() > 0 {
			fmt.Fprintf(w, "  replay loads serviced:      L1D %.1f%%  L2C %.1f%%  LLC %.1f%%  DRAM %.1f%%\n",
				100*rs.Fraction(mem.LvlL1D), 100*rs.Fraction(mem.LvlL2),
				100*rs.Fraction(mem.LvlLLC), 100*rs.Fraction(mem.LvlDRAM))
		}
		// Non-default translation mechanisms get their own stats line; the
		// default atp path prints nothing here, keeping legacy reports (and
		// their goldens) byte-identical.
		switch x := &c.Xlat; c.Mechanism {
		case "victima":
			fmt.Fprintf(w, "  victima: cache-TLB hits L2C %d LLC %d of %d STLB misses, blocks parked %d (rejected %d)\n",
				x.CacheHitsL2, x.CacheHitsLLC, x.Requests, x.TLBBlockInserts, x.TLBBlockRejects)
		case "revelator":
			fmt.Fprintf(w, "  revelator: %d speculations of %d STLB misses (%d correct, %d squashed), %d table fills\n",
				x.Speculations, x.Requests, x.SpecCorrect, x.SpecWrong, x.Trainings)
		}
	}
	fmt.Fprintf(w, "caches (MPKI): L1D %.2f | L2 %.2f | LLC %.2f (replay %.2f, leaf-PTE %.2f)\n",
		res.L1DMPKI(mem.ClassNonReplay)+res.L1DMPKI(mem.ClassReplay),
		res.L2MPKI(mem.ClassNonReplay)+res.L2MPKI(mem.ClassReplay),
		res.LLCMPKI(mem.ClassNonReplay)+res.LLCMPKI(mem.ClassReplay),
		res.LLCMPKI(mem.ClassReplay), res.LLCMPKI(mem.ClassTransLeaf))
	fmt.Fprintf(w, "on-chip translation hit rate: %.2f%%\n", 100*res.TranslationHitRate())
	fmt.Fprintf(w, "DRAM: %d reads, %d writes, avg read latency %.0f cycles, TEMPO prefetches %d\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.AvgReadLatency(), res.DRAM.TEMPOIssued)
	// The queued timing engine gets per-level backpressure lines; analytic
	// runs have no Queues rows and print nothing here, keeping legacy
	// reports (and their goldens) byte-identical.
	for i := range res.Queues {
		q := &res.Queues[i]
		fmt.Fprintf(w, "queues %s: rq_full %d, rq_merged %d, wq_full %d, wq_forward %d, pq_full %d, pq_merged %d, vapq_full %d, mshr_full %d\n",
			q.Name, q.Q.RQFull, q.Q.RQMerged, q.Q.WQFull, q.Q.WQForward,
			q.Q.PQFull, q.Q.PQMerged, q.Q.VAPQFull, q.Q.MSHRFull)
	}
}
