package atcsim

// The benchmark harness: one testing.B benchmark per paper table/figure.
// Each benchmark regenerates its experiment at the Quick scale (one
// benchmark per STLB-MPKI category, reduced instruction counts) and reports
// the experiment's headline summary values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises and summarizes the whole reproduction. Run cmd/figures
// for the full-scale tables.

import (
	"testing"

	"atcsim/internal/experiments"
)

// benchExperiment runs one experiment per iteration and publishes its
// summary as benchmark metrics.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.ByID(experiments.Quick(), id)
		if err != nil {
			b.Fatal(err)
		}
	}
	for k, v := range rep.Summary {
		b.ReportMetric(v, k)
	}
}

func BenchmarkFig01_ROBStalls(b *testing.B)            { benchExperiment(b, "fig1") }
func BenchmarkFig02_IdealCaches(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkFig03_ServiceLevels(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig04_TranslationMPKI(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig05_TranslationRecall(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig06_ReplayMPKI(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig07_ReplayRecall(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig08_PrefetcherReplayMPKI(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig10_Replay0Misconfig(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig12_NewSignatures(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig14_EnhancementLadder(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15_WithPrefetchers(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16_StallReduction(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17_SMT(b *testing.B)                  { benchExperiment(b, "fig17") }
func BenchmarkFig18_STLBRecall(b *testing.B)           { benchExperiment(b, "fig18") }
func BenchmarkFig19_STLBSensitivity(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkFig20_L2Sensitivity(b *testing.B)        { benchExperiment(b, "fig20") }
func BenchmarkFig21_LLCSensitivity(b *testing.B)       { benchExperiment(b, "fig21") }
func BenchmarkTableI_Parameters(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkTableII_Characterization(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkMultiCore_Mixes(b *testing.B)            { benchExperiment(b, "multicore") }

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions/second) on the baseline machine — the number that matters
// when sizing full-scale experiment runs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := NewTrace("mcf", 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Instructions = 100_000
	cfg.Warmup = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions), "insts/op")
}

// BenchmarkMultiCoreRun measures one 4-core TEMPO simulation end to end:
// private L1/L2/TLBs per core, the shared LLC and DRAM channel, and the
// serial interleaved scheduler stepping the least-advanced core.
func BenchmarkMultiCoreRun(b *testing.B) {
	var traces []*Trace
	for i, name := range []string{"pr", "mcf", "cc", "xalancbmk"} {
		tr, err := NewTrace(name, 100_000, int64(1+i))
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	cfg := DefaultConfig()
	cfg.Instructions = 50_000
	cfg.Warmup = 10_000
	cfg.Apply(TEMPO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMulti(cfg, traces...); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks — the design-choice studies DESIGN.md calls out.

func BenchmarkAblationDecompose(b *testing.B) { benchExperiment(b, "ablation-decompose") }
func BenchmarkAblationWalkers(b *testing.B)   { benchExperiment(b, "ablation-walkers") }
func BenchmarkAblationReplayDly(b *testing.B) { benchExperiment(b, "ablation-replaydelay") }
func BenchmarkAblationScatter(b *testing.B)   { benchExperiment(b, "ablation-scatter") }
func BenchmarkAblationTHawkeye(b *testing.B)  { benchExperiment(b, "ablation-t-hawkeye") }
func BenchmarkAblationHugePages(b *testing.B) { benchExperiment(b, "ablation-hugepages") }

// BenchmarkComparison runs the §V-B prior-work comparison (CbPred, CSALT).
func BenchmarkComparison(b *testing.B) { benchExperiment(b, "comparison") }

// BenchmarkRobustness measures the headline speedup across trace seeds.
func BenchmarkRobustness(b *testing.B) { benchExperiment(b, "robustness") }
