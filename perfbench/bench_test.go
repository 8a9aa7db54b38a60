package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"atcsim"
	"atcsim/internal/experiments"
)

func TestSeededInputsRepeat(t *testing.T) {
	seq := func(seed int64) []int64 {
		var out []int64
		for i := 0; i < 64; i++ {
			out = append(out, inputSeed(seed, i))
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 input %d: %d then %d", i, a[i], b[i])
		}
		if a[i] < 0 {
			t.Fatalf("input seed %d is negative", a[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 give the same inputs")
	}

	mix := func(seed int64, round int) []string {
		var w serve
		w.initMix(seed)
		var out []string
		for i := 0; i < 2000; i++ {
			req, _ := w.request(round, i)
			b, _ := json.Marshal(req)
			out = append(out, string(b))
		}
		return out
	}
	m1, m2, m3 := mix(7, 1), mix(7, 1), mix(8, 1)
	if strings.Join(m1, "\n") != strings.Join(m2, "\n") {
		t.Fatal("seed 7 gives two different request sequences")
	}
	if strings.Join(m1, "\n") == strings.Join(m3, "\n") {
		t.Fatal("seeds 7 and 8 give the same request sequence")
	}
}

func TestServeMixFreshSeeds(t *testing.T) {
	var w serve
	w.initMix(3)
	seen := map[int64]bool{}
	kinds := map[string]int{}
	fresh := 0
	for round := 1; round <= 2; round++ {
		for i := 0; i < 5*w.freshEnd; i++ {
			req, k := w.request(round, i)
			if k >= 0 {
				if req != w.hot[k] {
					t.Fatalf("request %d names hot key %d but is %+v", i, k, req)
				}
				continue
			}
			if i >= w.freshEnd || req.Seed == w.sc.Seed || seen[req.Seed] {
				t.Fatalf("round %d request %d: fresh seed %d not new, or past the fresh window", round, i, req.Seed)
			}
			seen[req.Seed] = true
			kinds[req.Workload+"/"+req.Enhancement]++
			fresh++
		}
	}
	// Each round asks serveFreshPerKey times for every kernel at every
	// level.
	for kind, n := range kinds {
		if n != 2*serveFreshPerKey {
			t.Errorf("%s asked for %d times in two rounds, want %d", kind, n, 2*serveFreshPerKey)
		}
	}
	if fresh != 2*serveFreshPerKey*len(w.hot) || len(kinds) != len(w.hot) {
		t.Fatalf("%d fresh requests over %d kinds in two rounds, want %d over %d",
			fresh, len(kinds), 2*serveFreshPerKey*len(w.hot), len(w.hot))
	}
	if len(w.hot) != 45 {
		t.Fatalf("hot set has %d keys, want 45", len(w.hot))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, n := range []int{1, 5, 10, 11, 12, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		v, pct, beyond := tail(xs)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Errorf("n=%d: %d samples beyond %v, reported %d", n, above, v, beyond)
		}
		if n > tailSamples {
			if beyond != tailSamples {
				t.Errorf("n=%d: %d beyond, want exactly %d", n, beyond, tailSamples)
			}
			// Any higher percentile would leave fewer than tailSamples beyond.
			if want := 100 * float64(n-tailSamples) / float64(n); pct != want {
				t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
			}
		} else if v != float64(n-1) || beyond != 0 {
			t.Errorf("n=%d: got %v with %d beyond, want the maximum %d", n, v, beyond, n-1)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsDeclared(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var declared []string
	for _, m := range bj.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	var printed []string
	for n, m := range endToEnd(phaseStats{}, 1) {
		printed = append(printed, n+" "+m.Unit)
		if !name.MatchString(n) {
			t.Errorf("end-to-end metric name %q", n)
		}
	}
	sort.Strings(declared)
	sort.Strings(printed)
	if strings.Join(declared, ",") != strings.Join(printed, ",") {
		t.Errorf("end-to-end metrics printed %v, declared %v", printed, declared)
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics printed, %d declared", len(perLayer), len(bj.PerLayer))
	}
	for i, p := range perLayer {
		if !name.MatchString(p.name) {
			t.Errorf("per-layer metric name %q", p.name)
		}
		if d := bj.PerLayer[i]; d.Name != p.name || d.Unit != p.unit {
			t.Errorf("per-layer metric %d printed as %s %s, declared %s %s", i, p.name, p.unit, d.Name, d.Unit)
		}
	}
	if got := (layerMetrics{}).out(); len(got) != len(perLayer) {
		t.Errorf("traced run prints %d metrics, %d declared", len(got), len(perLayer))
	}

	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, declared %v", workloadNames(), wl)
	}
}

// smallResult runs a short single-core simulation and marshals it.
func smallResult(t *testing.T, timing string) []byte {
	t.Helper()
	tr, err := atcsim.NewTrace("mcf", 6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := atcsim.DefaultConfig()
	cfg.Warmup, cfg.Instructions = 1000, 4000
	cfg.Timing = timing
	r, err := atcsim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := atcsim.MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// perturb decodes a Result, edits it and encodes it again.
func perturb(t *testing.T, raw []byte, edit func(map[string]any)) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	edit(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func core0(v map[string]any) map[string]any {
	return v["Cores"].([]any)[0].(map[string]any)
}

func TestChecksRejectPerturbedResults(t *testing.T) {
	raw := smallResult(t, atcsim.TimingQueued)
	if err := checkResultJSON(raw, 1, 4000); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	if err := checkQueuesDrained(raw); err != nil {
		t.Fatalf("unperturbed queues rejected: %v", err)
	}
	for name, edit := range map[string]func(map[string]any){
		"instructions": func(v map[string]any) { core0(v)["Instructions"] = 3999.0 },
		"cycles":       func(v map[string]any) { core0(v)["Cycles"] = 0.0 },
		"ipc":          func(v map[string]any) { core0(v)["IPC"] = 0.0 },
		"cores":        func(v map[string]any) { v["Cores"] = []any{} },
	} {
		if err := checkResultJSON(perturb(t, raw, edit), 1, 4000); !errors.Is(err, errCheck) {
			t.Errorf("%s perturbed: got %v, want a failed check", name, err)
		}
	}
	undrained := perturb(t, raw, func(v map[string]any) {
		q := v["Queues"].([]any)[0].(map[string]any)["Q"].(map[string]any)
		q["Drained"] = q["Enqueued"].(float64) + 1
	})
	if err := checkQueuesDrained(undrained); !errors.Is(err, errCheck) {
		t.Errorf("undrained queue: got %v, want a failed check", err)
	}
	if err := checkQueuesDrained(smallResult(t, "")); !errors.Is(err, errCheck) {
		t.Errorf("result without queues: got %v, want a failed check", err)
	}

	var b bench
	if err := b.record(0, raw); err != nil {
		t.Fatal(err)
	}
	if err := b.record(0, append([]byte(nil), raw...)); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	if err := b.record(0, perturb(t, raw, func(v map[string]any) { core0(v)["Cycles"] = 1.0 })); !errors.Is(err, errCheck) {
		t.Errorf("changed repeat: got %v, want a failed check", err)
	}

	if _, err := checkReports([]*experiments.Report{{ID: "fig14", Failed: "boom"}}); !errors.Is(err, errCheck) {
		t.Errorf("failed report: got %v, want a failed check", err)
	}
}

func TestCountersByFieldName(t *testing.T) {
	raw := smallResult(t, atcsim.TimingQueued)
	c, err := resultCounts(raw)
	if err != nil {
		t.Fatal(err)
	}
	if c["instr"] != 4000 || c["cycles"] <= 0 || c["l1d_access"] <= 0 {
		t.Fatalf("counters %v", c)
	}
	if _, ok := c["q_rq_full"]; !ok {
		t.Error("queue counters missing from a queued-timing result")
	}
	// A field a later Result drops reads as absent, and so do the metrics
	// built from it; nothing fails.
	c, err = resultCounts(perturb(t, raw, func(v map[string]any) { delete(v, "DRAM") }))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range simMetrics {
		_, ok := m.eval(c)
		if strings.HasPrefix(m.name, "dram.") && ok {
			t.Errorf("%s evaluated without DRAM counters", m.name)
		}
		if m.name == "cpu.ipc" && !ok {
			t.Error("cpu.ipc absent though its counters are present")
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"atcsim/internal/cache.(*Cache).Access":                                       "atcsim/internal/cache",
		"atcsim/internal/experiments.forEachIndex.func1":                              "atcsim/internal/experiments",
		"atcsim/internal/experiments/runner.(*Cache[go.shape.*atcsim/internal/x]).Do": "atcsim/internal/experiments/runner",
		"encoding/json.(*decodeState).object":                                         "encoding/json",
		"runtime.mallocgc":                                                            "runtime",
		"main.main":                                                                   "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

func busyLoop(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += float64(i) * 1.0001
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiling unavailable: %v", err)
	}
	busyLoop(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.ns <= 0 {
			t.Fatalf("sample with %d ns", s.ns)
		}
		for _, fn := range s.frames {
			if strings.HasSuffix(fn, ".busyLoop") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample of busyLoop among %d samples", len(samples))
	}
	a := attribute(samples)
	if a.totalNS <= 0 {
		t.Fatal("no CPU time attributed")
	}
}

// cycling is a workload stub whose operations cycle through k simulations.
type cycling struct {
	workload
	k int
}

func (c cycling) distinctOps() int { return c.k }

func records(n int) []opRecord {
	recs := make([]opRecord, n)
	for i := range recs {
		// Completion order differs from operation order, as with two clients.
		j := n - 1 - i
		recs[i] = opRecord{index: j, dur: time.Millisecond, end: time.Duration(j+1) * time.Second}
	}
	return recs
}

func TestWholeCycles(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{{100, 45, 90}, {44, 45, 44}, {45, 45, 45}, {7, 1, 7}} {
		got := wholeCycles(cycling{k: tc.k}, records(tc.n))
		if len(got) != tc.want {
			t.Errorf("%d operations in cycles of %d: kept %d, want %d", tc.n, tc.k, len(got), tc.want)
		}
		for _, r := range got {
			if r.index >= tc.want {
				t.Errorf("%d operations in cycles of %d: kept operation %d", tc.n, tc.k, r.index)
			}
		}
	}
	if got := wholeCycles(&serve{}, records(10)); len(got) != 10 {
		t.Errorf("a workload that does not cycle kept %d of 10 operations", len(got))
	}
}

func TestChunkRate(t *testing.T) {
	// One operation ends every second, except that operations 10-19 take
	// ten seconds each: the median stretch still runs at one per second.
	var recs []opRecord
	var end time.Duration
	for i := 0; i < 100; i++ {
		step := time.Second
		if i >= 10 && i < 20 {
			step = 10 * time.Second
		}
		end += step
		recs = append(recs, opRecord{index: i, end: end})
	}
	if got := chunkRate(recs, 10); got != 1 {
		t.Errorf("chunkRate = %v, want 1", got)
	}
	if got := chunkRate(nil, 0); got != 0 {
		t.Errorf("chunkRate of nothing = %v, want 0", got)
	}
}

func TestHostClock(t *testing.T) {
	h := newHostClock()
	if f, n := h.factor(); f != 1 || n != 0 {
		t.Fatalf("factor before any sample = %v over %d samples, want 1 over 0", f, n)
	}
	h.last = time.Now().Add(-time.Duration(3 * refNominalMS / refShare * float64(time.Millisecond)))
	h.tick()
	f, n := h.factor()
	if n != 3 || !(f > 0) {
		t.Fatalf("after %v ms: factor %v over %d samples, want 3 samples", 3*refNominalMS/refShare, f, n)
	}
	h.tick() // right after sampling: nothing to do
	if _, n := h.factor(); n != 3 {
		t.Errorf("tick right after sampling took %d samples in all, want 3", n)
	}
	st := phaseStats{p50: 10, tail: 20, mips: 3, perSec: 4, factor: 2}.scaled()
	if st.p50 != 5 || st.tail != 10 || st.mips != 6 || st.perSec != 8 {
		t.Errorf("scaled by host factor 2: %+v", st)
	}
}

func TestGroups(t *testing.T) {
	if got := groups(cycling{k: 45}, records(90)); len(got) != 2 || len(got[0]) != 45 || got[1][0].index != 45 {
		t.Errorf("90 operations in cycles of 45: %d groups", len(got))
	}
	// A run shorter than one cycle is one group.
	if got := groups(cycling{k: 45}, records(20)); len(got) != 1 || len(got[0]) != 20 {
		t.Errorf("20 operations in cycles of 45: %d groups", len(got))
	}
	got := groups(&serve{}, records(5))
	if len(got) != 5 {
		t.Fatalf("5 operations of a workload that does not cycle: %d groups, want 5", len(got))
	}
	for i, g := range got {
		if len(g) != 1 || g[0].index != i {
			t.Errorf("group %d is %+v, want operation %d alone", i, g, i)
		}
	}
	if got := groups(cycling{k: 45}, nil); len(got) != 0 {
		t.Errorf("no operations: %d groups", len(got))
	}
}

func TestSimPasses(t *testing.T) {
	recs := records(100)
	for i := range recs {
		if recs[i].index%2 == 0 {
			recs[i].instr = 1 // every other operation simulates
		}
	}
	w := &serve{}
	w.initMix(1)
	got := simPasses(w, recs)
	if len(got) != 1 || len(got[0]) != len(w.hot) {
		t.Fatalf("50 simulating requests: %d passes, want 1 of %d", len(got), len(w.hot))
	}
	for i, r := range got[0] {
		if r.index != 2*i {
			t.Fatalf("pass holds operation %d at %d, want %d", r.index, i, 2*i)
		}
	}
	if got := simPasses(cycling{k: 45}, recs[:20]); len(got) != 1 || len(got[0]) != 10 {
		t.Errorf("10 simulating operations of a cycle of 45: %v passes", len(got))
	}
	if got := simPasses(&mix4{}, recs[:20]); len(got) != 10 {
		t.Errorf("10 simulating operations of a workload without passes: %d passes, want 10", len(got))
	}
}
