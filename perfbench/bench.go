package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of inputs the benchmark runs. Operations are
// numbered from 0; operation i of a seed always has the same inputs.
type workload interface {
	// setup builds the workload's inputs from seed. It is what setup_s
	// times.
	setup(b *bench, seed int64) error
	// clients is how many closed-loop callers issue operations at once.
	clients() int
	// op runs and checks operation i.
	op(b *bench, i int) opRecord
	// finish runs, off the clock, whatever the whole-run checks need that
	// the timed operations did not reach, then makes those checks. It
	// returns how many operations they fail.
	finish(b *bench) (failed int, err error)
	// probe makes the untimed measurements of the traced run under spans:
	// it builds the workload's machine and, where set-up synthesized no
	// traces of the benchmark's own, synthesizes some.
	probe(b *bench) error
	close()
}

// opRecord is the outcome of one operation.
type opRecord struct {
	dur      time.Duration
	instr    float64 // simulated instructions, warm-up + measured, all cores
	distinct int     // which distinct simulation the op ran, -1 for none
	source   string  // serve: where the response came from
	bytes    int     // serve: response body size
	err      error
	// index and end are set by phase: the operation's number and when it
	// ended, from the start of the phase.
	index int
	end   time.Duration
}

// bench is the state one benchmark run shares with its workload.
type bench struct {
	name    string
	seed    int64
	seconds float64
	spans   *spans // nil unless --trace 1
	next    atomic.Int64
	// round counts measured phases. Every phase runs the same operations
	// from 0, so the traced and untraced halves of a traced run compare
	// like with like.
	round int

	// results is set by workloads whose distinct outputs are marshaled
	// Results, from which the simulated per-layer metrics are read.
	results bool
	// synthInstr is how many instructions were synthesized under
	// "NewTrace" spans.
	synthInstr float64

	mu       sync.Mutex
	distinct [][]byte // output of each distinct simulation, by index
}

// extraMetrics is implemented by workloads with per-layer metrics of their
// own, set from the traced half's records.
type extraMetrics interface {
	extras(b *bench, recs []opRecord, m layerMetrics)
}

// record stores the output of distinct simulation j, or checks it against
// the stored output when j ran before: a deterministic simulator must
// repeat it byte for byte.
func (b *bench) record(j int, out []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.distinct) <= j {
		b.distinct = append(b.distinct, nil)
	}
	if b.distinct[j] == nil {
		b.distinct[j] = out
		return nil
	}
	if !bytes.Equal(b.distinct[j], out) {
		return fmt.Errorf("%w: simulation %d repeated with a different output", errCheck, j)
	}
	return nil
}

// have reports whether distinct simulation j has run.
func (b *bench) have(j int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return j < len(b.distinct) && b.distinct[j] != nil
}

// digest is the SHA-256 over the outputs of every distinct simulation, in
// order: it changes exactly when a simulated result changes.
func (b *bench) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := sha256.New()
	for _, d := range b.distinct {
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// phase runs the workload's closed-loop callers for d and returns every
// operation's record and the host speed the reference kernel saw in
// between.
func (b *bench) phase(w workload, d time.Duration) ([]opRecord, *hostClock) {
	b.round++
	b.next.Store(0)
	clock := newHostClock()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var recs []opRecord
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				clock.tick()
				i := int(b.next.Add(1) - 1)
				r := w.op(b, i)
				r.index, r.end = i, time.Since(start)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, clock
}

// cycler is implemented by workloads whose operations cycle through a
// fixed list of different simulations of different lengths.
type cycler interface{ distinctOps() int }

// wholeCycles returns the records of the operations that make up whole
// cycles, so that every run's figures come from the same mix of
// simulations however many fit in the time. With less than one cycle, or
// for a workload that does not cycle, it returns every record.
func wholeCycles(w workload, recs []opRecord) []opRecord {
	c, ok := w.(cycler)
	if !ok || len(recs) < c.distinctOps() {
		return recs
	}
	keep := len(recs) / c.distinctOps() * c.distinctOps()
	var out []opRecord
	for _, r := range recs {
		if r.index < keep {
			out = append(out, r)
		}
	}
	return out
}

// phaseStats are the end-to-end figures of one measured phase, as
// measured; scaled gives them at the nominal host speed.
type phaseStats struct {
	n            int
	p50, tail    float64
	tailPct      float64
	tailBeyond   int
	mips, perSec float64
	instr        float64
	// factor is the phase's host factor (see hostclock.go).
	factor float64
}

// scaled returns the figures at the nominal host speed: times divided by
// the host factor, rates multiplied by it.
func (st phaseStats) scaled() phaseStats {
	f := st.factor
	st.p50, st.tail = st.p50/f, st.tail/f
	st.mips, st.perSec = st.mips*f, st.perSec*f
	return st
}

// rateChunks is how many consecutive stretches of operations req_per_s
// takes the median throughput of, for a workload that does not cycle.
const rateChunks = 10

// summarize derives a phase's figures. All but op_ms_tail are medians, so
// a few seconds in which a shared host stalls the benchmark do not move
// them.
//
//   - op_ms_p50 is the median of the mean operation times of groups (see
//     groups): single operations, or whole cycles for a workload that
//     cycles.
//   - sim_mips is the median, over passes through the workload's different
//     simulations (see simPass), of the simulated instructions per second
//     of simulating. On serve, where most requests are answered from
//     cache, it is the speed of the requests that paid for a simulation.
//   - req_per_s is the median throughput of consecutive stretches of
//     operations: the groups of a workload that cycles, else rateChunks
//     stretches.
func summarize(w workload, recs []opRecord, clock *hostClock) phaseStats {
	var st phaseStats
	st.factor, _ = clock.factor()
	ms := make([]float64, 0, len(recs))
	for _, r := range recs {
		ms = append(ms, float64(r.dur.Nanoseconds())/1e6)
		st.instr += r.instr
	}
	var p50s, mips []float64
	gs := groups(w, recs)
	for _, g := range gs {
		var sec float64
		for _, r := range g {
			sec += r.dur.Seconds()
		}
		p50s = append(p50s, 1000*sec/float64(len(g)))
	}
	for _, pass := range simPasses(w, recs) {
		var simSec, instr float64
		for _, r := range pass {
			instr += r.instr
			simSec += r.dur.Seconds()
		}
		mips = append(mips, instr/simSec/1e6)
	}
	st.n = len(recs)
	st.p50 = median(p50s)
	st.tail, st.tailPct, st.tailBeyond = tail(ms)
	st.mips = median(mips)
	chunks := min(rateChunks, len(recs))
	if _, ok := w.(cycler); ok {
		chunks = len(gs)
	}
	st.perSec = chunkRate(recs, chunks)
	return st
}

// groups returns recs in operation order, split into the groups op_ms_p50
// and req_per_s take the median over: whole cycles for a workload that
// cycles, single operations otherwise. The ladder's simulations differ in
// length threefold and overlap, so the median of its single operations
// jumps between the lengths of two of them from run to run; the mean over
// a cycle, which runs each once, does not.
func groups(w workload, recs []opRecord) [][]opRecord {
	size := 1
	if c, ok := w.(cycler); ok {
		size = c.distinctOps()
	}
	return split(recs, size)
}

// simPasser is implemented by workloads whose simulating operations pass
// through a fixed set of different simulations without being a cycler:
// simPass is how many simulating operations make one pass.
type simPasser interface{ simPass() int }

// simPasses returns the simulating operations of recs, in operation order,
// split into passes through the workload's different simulations: a cycle
// for a cycler, simPass operations for a simPasser, one operation
// otherwise.
func simPasses(w workload, recs []opRecord) [][]opRecord {
	var sims []opRecord
	for _, r := range recs {
		if r.instr > 0 && r.dur > 0 {
			sims = append(sims, r)
		}
	}
	size := 1
	if c, ok := w.(cycler); ok {
		size = c.distinctOps()
	} else if p, ok := w.(simPasser); ok {
		size = p.simPass()
	}
	return split(sims, size)
}

// split sorts recs by operation and splits them into consecutive runs of
// size. A remainder short of size is dropped, unless there is no whole
// run, when all of recs make one.
func split(recs []opRecord, size int) [][]opRecord {
	sorted := append([]opRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].index < sorted[j].index })
	size = min(size, len(sorted))
	var out [][]opRecord
	for i := 0; size > 0 && i+size <= len(sorted); i += size {
		out = append(out, sorted[i:i+size])
	}
	return out
}

// chunkRate splits recs, in operation order, into the given number of
// consecutive stretches and returns the median of their throughputs: the
// operations in a stretch over the time from the end of the stretch before
// (or the start of the phase) to the end of its last operation.
func chunkRate(recs []opRecord, chunks int) float64 {
	if chunks == 0 {
		return 0
	}
	byIndex := append([]opRecord(nil), recs...)
	sort.Slice(byIndex, func(i, j int) bool { return byIndex[i].index < byIndex[j].index })
	var rates []float64
	var from time.Duration
	for k := 0; k < chunks; k++ {
		part := byIndex[k*len(byIndex)/chunks : (k+1)*len(byIndex)/chunks]
		var to time.Duration
		for _, r := range part {
			to = max(to, r.end)
		}
		rates = append(rates, ratio(float64(len(part)), (to-from).Seconds()))
		from = to
	}
	return median(rates)
}

// countFailed prints the error of every failed operation and counts them.
func countFailed(recs []opRecord) int {
	failed := 0
	for _, r := range recs {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.err)
		}
	}
	return failed
}

// measureUntraced is the --trace 0 run: end-to-end metrics only.
func (b *bench) measureUntraced(w workload, setupS float64) (result, error) {
	recs, clock := b.phase(w, b.duration(1))
	st := summarize(w, wholeCycles(w, recs), clock)
	finFailed, err := w.finish(b)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("op_ms_tail is p%.2f: %d of %d operations lie beyond it; %d of %d operations counted\n",
		st.tailPct, st.tailBeyond, st.n, st.n, len(recs))
	fmt.Println(clock.describe())
	fmt.Printf("as measured: op_ms_p50 %.4f ms, op_ms_tail %.4f ms, sim_mips %.4f Minst/s, req_per_s %.4f 1/s\n",
		st.p50, st.tail, st.mips, st.perSec)
	fmt.Printf("sim_digest %s\n", b.digest())
	failed := countFailed(recs) + finFailed
	return result{Correct: failed == 0, Attempted: len(recs), Failed: failed, Metrics: endToEnd(st.scaled(), setupS)}, nil
}

// endToEnd names the end-to-end metrics, all host-side and measured with
// tracing off; the times and rates are scaled to the nominal host speed.
func endToEnd(st phaseStats, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"op_ms_p50":   {st.p50, "ms"},
		"op_ms_tail":  {st.tail, "ms"},
		"sim_mips":    {st.mips, "Minst/s"},
		"req_per_s":   {st.perSec, "1/s"},
		"peak_rss_mb": {peakRSSMiB(), "MiB"},
	}
}

// duration is the given share of the run's measuring time.
func (b *bench) duration(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// runtimeSample reads cumulative runtime counters.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// heapPeak samples the live heap every few milliseconds until stop is
// closed, then sends the largest value seen on the returned channel.
func heapPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = math.Max(peak, float64(s[0].Value.Uint64()))
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// measureTraced is the --trace 1 run. The first half of the measuring time
// runs untraced, for the tracing overhead; the second half records spans, a
// CPU profile and runtime counters, from which the per-layer metrics come.
func (b *bench) measureTraced(w workload) (result, error) {
	plainRecs, plainClock := b.phase(w, b.duration(0.5))
	plain := summarize(w, wholeCycles(w, plainRecs), plainClock).scaled()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("start profile: %w", err)
	}
	before := readRuntime()
	stop := make(chan struct{})
	peak := heapPeak(stop)
	b.spans.setOn(true)
	recs, clock := b.phase(w, b.duration(0.5))
	b.spans.setOn(false)
	close(stop)
	heap := <-peak
	after := readRuntime()
	pprof.StopCPUProfile()
	// The per-layer figures divide by every traced operation's work; the
	// overhead compares like with like.
	traced := summarize(w, recs, clock)
	overhead := ratio(summarize(w, wholeCycles(w, recs), clock).scaled().p50, plain.p50) - 1

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	attr := attribute(samples)

	b.spans.setOn(true)
	err = w.probe(b)
	b.spans.setOn(false)
	if err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}
	finFailed, err := w.finish(b)
	if err != nil {
		return result{}, err
	}
	if err := b.spans.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", b.name, b.seed))); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	failed := countFailed(plainRecs) + countFailed(recs) + finFailed
	attempted := len(plainRecs) + len(recs)
	m := layerMetrics{}
	m.host(b, traced, attr)
	m.sim(b, recs, attr)
	m.set("trace_overhead_pct", 100*overhead)
	m.set("fail_frac", ratio(float64(failed), float64(attempted)))
	m.set("runtime.gc_pct", 100*ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
	m.set("runtime.heap_peak_mb", heap/(1<<20))
	m.set("system.allocs_per_kinst", ratio(after.allocs-before.allocs, traced.instr/1000))
	if x, ok := w.(extraMetrics); ok {
		x.extras(b, recs, m)
	}
	dig := b.digest()
	// The first 13 hex digits (52 bits) are exact in a JSON number.
	d, _ := strconv.ParseUint(dig[:13], 16, 64)
	m.set("sim_digest", float64(d))
	fmt.Printf("sim_digest %s\n", dig)
	fmt.Printf("profile: %d samples, %.1f%% of the time under a simulation is in the model's layers\n",
		len(samples), 100*ratio(float64(attr.simLayer), float64(attr.simNS)))
	m.printAbsent()
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.out()}, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
