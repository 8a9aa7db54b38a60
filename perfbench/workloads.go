package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"atcsim"
)

// The benchmark's workloads. Each stresses different layers (see why):
//
//   - ladder: the paper's Fig. 14 ladder (baseline, t-drrip, t-ship, atp,
//     tempo) on all nine kernels at full scale, single core, analytic
//     timing. One operation is one atcsim.Run. Why: it is the headline
//     experiment and the simulator's hot loop; the core, TLB, walker, page
//     table, caches, replacement, prefetchers and DRAM do nearly all the
//     work, while synthesis, queues and orchestration do none.
//   - mix4-queued: four cores running pr, canneal, mcf and xalancbmk (high,
//     medium, medium and low STLB MPKI) at +TEMPO under queued timing. One
//     operation is one atcsim.RunMulti. Why: the only workload where the
//     queued deques, the multi-core schedule and shared LLC/DRAM contention
//     dominate.
//   - sweep-quick: the whole experiment catalog at quick scale on a fresh
//     runner with two jobs, as `figures -scale quick -jobs 2` runs it. Why:
//     trace synthesis, machine build on short runs and run orchestration do
//     most of their work here.
//   - serve: an in-process sweep service on loopback at quick scale, one
//     closed-loop client. Why: the only workload that exercises the
//     service, result encoding and the runner's dedup and disk store.

// workloadOrder lists the workloads in the order BENCHMARK.json declares
// them.
var workloadOrder = []struct {
	name string
	make func() workload
}{
	{"ladder", func() workload { return &ladder{} }},
	{"mix4-queued", func() workload { return &mix4{} }},
	{"sweep-quick", func() workload { return &sweep{} }},
	{"serve", func() workload { return &serve{} }},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadOrder {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (func() workload, bool) {
	for _, w := range workloadOrder {
		if w.name == name {
			return w.make, true
		}
	}
	return nil, false
}

// graphKernel is synthesized first in every set-up: its first trace builds
// the graph all Ligra kernels share, which workloads.graph_ms times.
const graphKernel = "pr"

// buildGraph synthesizes a tiny graphKernel trace under the "graph" span.
func buildGraph(b *bench, seed int64) error {
	id := b.spans.begin("graph", -1, -1)
	_, err := atcsim.NewTrace(graphKernel, 1000, seed)
	b.spans.end(id)
	return err
}

// synth synthesizes one trace per kernel, each from its own seed derived
// from the benchmark seed, under "NewTrace" spans.
func synth(b *bench, kernels []string, n int, seed int64) ([]*atcsim.Trace, error) {
	out := make([]*atcsim.Trace, len(kernels))
	for i, k := range kernels {
		id := b.spans.begin("NewTrace", -1, -1)
		tr, err := atcsim.NewTrace(k, n, inputSeed(seed, i))
		b.spans.end(id)
		if err != nil {
			return nil, err
		}
		if id >= 0 {
			b.synthInstr += float64(n)
		}
		out[i] = tr
	}
	return out, nil
}

// checkResult checks one simulation's output: every core ran the
// configured instruction count in a positive number of cycles at a
// positive IPC. It returns the marshaled Result.
func checkResult(b *bench, op int, parent int, r *atcsim.Result, cores, instructions int) ([]byte, error) {
	id := b.spans.begin("MarshalResult", op, parent)
	raw, err := atcsim.MarshalResult(r)
	b.spans.end(id)
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	return raw, checkResultJSON(raw, cores, instructions)
}

// checkResultJSON is checkResult on a Result already encoded as JSON.
func checkResultJSON(raw []byte, cores, instructions int) error {
	var r struct {
		Cores []struct {
			Instructions uint64
			Cycles       int64
			IPC          float64
		}
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%w: decode result: %v", errCheck, err)
	}
	if len(r.Cores) != cores {
		return fmt.Errorf("%w: %d cores, want %d", errCheck, len(r.Cores), cores)
	}
	for i, c := range r.Cores {
		if c.Instructions != uint64(instructions) || c.Cycles <= 0 || !(c.IPC > 0) || math.IsInf(c.IPC, 0) {
			return fmt.Errorf("%w: core %d ran %d instructions in %d cycles at IPC %v, want %d instructions",
				errCheck, i, c.Instructions, c.Cycles, c.IPC, instructions)
		}
	}
	return nil
}

// ladder is the Fig. 14 ladder at full scale.
type ladder struct {
	traces []*atcsim.Trace
	cfgs   []atcsim.Config
}

var (
	ladderLevels       = []atcsim.Enhancement{atcsim.Baseline, atcsim.TDRRIP, atcsim.TSHiP, atcsim.ATP, atcsim.TEMPO}
	ladderWarmup       = 100_000
	ladderInstructions = 300_000
	// ladderTraceLen matches the experiments' full scale, which leaves
	// slack beyond warm-up + measured instructions.
	ladderTraceLen = 500_000
	// paperTEMPOGain is the paper's Fig. 14 geomean speedup of the full
	// stack (+5.1%), the only reference result the model is compared with.
	paperTEMPOGain = 1.051
)

func (w *ladder) setup(b *bench, seed int64) error {
	b.results = true
	if err := buildGraph(b, seed); err != nil {
		return err
	}
	var err error
	if w.traces, err = synth(b, atcsim.Benchmarks(), ladderTraceLen, seed); err != nil {
		return err
	}
	for _, e := range ladderLevels {
		cfg := atcsim.DefaultConfig()
		cfg.Warmup, cfg.Instructions = ladderWarmup, ladderInstructions
		cfg.Apply(e)
		w.cfgs = append(w.cfgs, cfg)
	}
	return nil
}

func (w *ladder) clients() int { return 1 }

// distinctOps is the number of different simulations: every level on
// every kernel. Operation i runs level i/9 on kernel i%9 (modulo a full
// ladder), so any stretch of operations covers the kernels evenly.
func (w *ladder) distinctOps() int { return len(w.cfgs) * len(w.traces) }

func (w *ladder) op(b *bench, i int) opRecord {
	j := i % w.distinctOps()
	cfg, tr := w.cfgs[j/len(w.traces)], w.traces[j%len(w.traces)]
	rec := opRecord{distinct: j, instr: float64(ladderWarmup + ladderInstructions)}
	opSpan := b.spans.begin("op", i, -1)
	defer b.spans.end(opSpan)
	id := b.spans.begin("Run", i, opSpan)
	start := time.Now()
	r, err := atcsim.Run(cfg, tr)
	rec.dur = time.Since(start)
	b.spans.end(id)
	if err != nil {
		rec.err = fmt.Errorf("ladder op %d: %w", i, err)
		return rec
	}
	raw, err := checkResult(b, i, opSpan, r, 1, ladderInstructions)
	if err == nil {
		err = b.record(j, raw)
	}
	if err != nil {
		rec.err = fmt.Errorf("ladder op %d: %w", i, err)
	}
	return rec
}

func (w *ladder) finish(b *bench) (int, error) {
	for j := 0; j < w.distinctOps(); j++ {
		if !b.have(j) {
			if r := w.op(b, j); r.err != nil {
				return 0, r.err
			}
		}
	}
	if gm := w.tempoGeomean(b); !(gm >= 1) {
		fmt.Printf("check failed: TEMPO geomean speedup %.4f < 1\n", gm)
		return len(w.traces), nil
	}
	return 0, nil
}

// tempoGeomean is the geomean over kernels of the full stack's IPC over
// the baseline's.
func (w *ladder) tempoGeomean(b *bench) float64 {
	ipc := func(j int) float64 {
		var r struct{ Cores []struct{ IPC float64 } }
		b.mu.Lock()
		raw := b.distinct[j]
		b.mu.Unlock()
		if json.Unmarshal(raw, &r) != nil || len(r.Cores) == 0 {
			return 0
		}
		return r.Cores[0].IPC
	}
	n := len(w.traces)
	tempo := (len(ladderLevels) - 1) * n
	var sp []float64
	for k := 0; k < n; k++ {
		sp = append(sp, ratio(ipc(tempo+k), ipc(k)))
	}
	return geomean(sp)
}

// extras prints the model's one comparison with the paper.
func (w *ladder) extras(b *bench, recs []opRecord, m layerMetrics) {
	gm := w.tempoGeomean(b)
	m.set("model.tempo_gm", gm)
	m.set("model.tempo_err_pp", 100*(gm-paperTEMPOGain))
	fmt.Printf("model: TEMPO geomean speedup %+.2f%% against the paper's %+.1f%% (error %+.2f pp); "+
		"the model is otherwise unvalidated against hardware\n",
		100*(gm-1), 100*(paperTEMPOGain-1), 100*(gm-paperTEMPOGain))
}

func (w *ladder) probe(b *bench) error {
	return probeBuild(b, func(cfg atcsim.Config) error {
		_, err := atcsim.Run(cfg, w.traces[0])
		return err
	}, w.cfgs[0])
}

// probeBuild times a 1-instruction run with no warm-up, which is almost
// all machine build, under "build" spans.
func probeBuild(b *bench, run func(atcsim.Config) error, cfg atcsim.Config) error {
	cfg.Warmup, cfg.Instructions = 0, 1
	for i := 0; i < 5; i++ {
		id := b.spans.begin("build", -1, -1)
		err := run(cfg)
		b.spans.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *ladder) close() {}

// mix4 is four cores under queued timing with TEMPO.
type mix4 struct {
	traces []*atcsim.Trace
	cfg    atcsim.Config
}

var (
	mix4Kernels      = []string{"pr", "canneal", "mcf", "xalancbmk"}
	mix4Warmup       = 15_000
	mix4Instructions = 30_000
)

func (w *mix4) setup(b *bench, seed int64) error {
	b.results = true
	if err := buildGraph(b, seed); err != nil {
		return err
	}
	var err error
	if w.traces, err = synth(b, mix4Kernels, mix4TraceLen(), seed); err != nil {
		return err
	}
	w.cfg = atcsim.DefaultConfig()
	w.cfg.Warmup, w.cfg.Instructions = mix4Warmup, mix4Instructions
	w.cfg.Apply(atcsim.TEMPO)
	w.cfg.Timing = atcsim.TimingQueued
	return nil
}

// mix4TraceLen leaves the same slack as the ladder's traces.
func mix4TraceLen() int { return (mix4Warmup + mix4Instructions) * 5 / 4 }

func (w *mix4) clients() int { return 1 }

func (w *mix4) op(b *bench, i int) opRecord {
	rec := opRecord{distinct: 0, instr: float64(len(w.traces) * (mix4Warmup + mix4Instructions))}
	opSpan := b.spans.begin("op", i, -1)
	defer b.spans.end(opSpan)
	id := b.spans.begin("RunMulti", i, opSpan)
	start := time.Now()
	r, err := atcsim.RunMulti(w.cfg, w.traces...)
	rec.dur = time.Since(start)
	b.spans.end(id)
	if err != nil {
		rec.err = fmt.Errorf("mix4 op %d: %w", i, err)
		return rec
	}
	raw, err := checkResult(b, i, opSpan, r, len(w.traces), mix4Instructions)
	if err == nil {
		err = checkQueuesDrained(raw)
	}
	if err == nil {
		err = b.record(0, raw)
	}
	if err != nil {
		rec.err = fmt.Errorf("mix4 op %d: %w", i, err)
	}
	return rec
}

// checkQueuesDrained checks that every queue level of a queued-timing
// result drained everything it enqueued. A result without queue levels
// fails: mix4 runs the queued engine.
func checkQueuesDrained(raw []byte) error {
	var r struct {
		Queues []struct {
			Name string
			Q    struct{ Enqueued, Drained *uint64 }
		}
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%w: decode queues: %v", errCheck, err)
	}
	if len(r.Queues) == 0 {
		return fmt.Errorf("%w: no queue levels in a queued-timing result", errCheck)
	}
	for _, q := range r.Queues {
		if q.Q.Enqueued == nil || q.Q.Drained == nil {
			continue // counters absent from this version of Result
		}
		if *q.Q.Enqueued != *q.Q.Drained {
			return fmt.Errorf("%w: queue %s enqueued %d but drained %d", errCheck, q.Name, *q.Q.Enqueued, *q.Q.Drained)
		}
	}
	return nil
}

func (w *mix4) finish(b *bench) (int, error) {
	if !b.have(0) {
		if r := w.op(b, 0); r.err != nil {
			return 0, r.err
		}
	}
	return 0, nil
}

func (w *mix4) probe(b *bench) error {
	return probeBuild(b, func(cfg atcsim.Config) error {
		_, err := atcsim.RunMulti(cfg, w.traces...)
		return err
	}, w.cfg)
}

func (w *mix4) close() {}
