package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"atcsim"
	"atcsim/internal/experiments"
	"atcsim/internal/metrics"
	"atcsim/internal/simserver"
)

// jobs bounds the engine's concurrent simulations at the two CPUs the
// benchmark is sized for. The service is measured with one closed-loop
// caller: with two, callers and handlers outnumber the CPUs and the figures
// measure the scheduler more than the service. Set-up pre-warms the hot set
// with jobs callers.
const (
	jobs         = 2
	serveClients = 1
)

// quickScale is the experiments' quick scale with the benchmark's trace
// seed.
func quickScale(seed int64) experiments.Scale {
	sc := experiments.Quick()
	sc.Seed = inputSeed(seed, 0)
	return sc
}

// quickConfig is the baseline machine at quick scale.
func quickConfig(sc experiments.Scale) atcsim.Config {
	cfg := atcsim.DefaultConfig()
	cfg.Warmup, cfg.Instructions = sc.Warmup, sc.Instructions
	return cfg
}

// probeQuick is the traced run's probe for the quick-scale workloads, whose
// set-up synthesizes nothing the benchmark can span: it synthesizes one
// trace per kernel the workload runs and builds a quick machine.
func probeQuick(b *bench, kernels []string, sc experiments.Scale) error {
	traces, err := synth(b, kernels, sc.TraceLen, b.seed)
	if err != nil {
		return err
	}
	return probeBuild(b, func(cfg atcsim.Config) error {
		_, err := atcsim.Run(cfg, traces[0])
		return err
	}, quickConfig(sc))
}

// sweep runs the whole experiment catalog at quick scale per operation.
type sweep struct {
	sc       experiments.Scale
	computes int
}

func (w *sweep) setup(b *bench, seed int64) error {
	w.sc = quickScale(seed)
	return buildGraph(b, seed)
}

func (w *sweep) clients() int { return 1 }

func (w *sweep) op(b *bench, i int) opRecord {
	rec := opRecord{distinct: -1}
	reg := metrics.New()
	id := b.spans.begin("AllWith", i, -1)
	start := time.Now()
	r, err := experiments.NewRunnerWith(w.sc, experiments.Options{Jobs: jobs, Metrics: reg})
	if err != nil {
		b.spans.end(id)
		rec.err = fmt.Errorf("sweep op %d: %w", i, err)
		return rec
	}
	reports := experiments.AllWith(r)
	rec.dur = time.Since(start)
	b.spans.end(id)
	r.Cancel() // releases the finished sweep's context
	w.computes = r.Runs()
	for _, s := range reg.Gather() {
		if s.Family == "cpu_instructions" {
			rec.instr += s.Value
		}
	}
	text, err := checkReports(reports)
	if err == nil {
		err = b.record(0, text)
	}
	if err != nil {
		rec.err = fmt.Errorf("sweep op %d: %w", i, err)
	}
	return rec
}

// checkReports checks that no experiment of a sweep failed and returns the
// reports' text.
func checkReports(reports []*experiments.Report) ([]byte, error) {
	var text strings.Builder
	for _, rep := range reports {
		s := rep.String()
		if rep.Failed != "" || strings.Contains(s, "FAILED") {
			return nil, fmt.Errorf("%w: %s", errCheck, strings.TrimSpace(s))
		}
		text.WriteString(s)
	}
	return []byte(text.String()), nil
}

func (w *sweep) finish(b *bench) (int, error) {
	if !b.have(0) {
		if r := w.op(b, 0); r.err != nil {
			return 0, r.err
		}
	}
	return 0, nil
}

func (w *sweep) probe(b *bench) error { return probeQuick(b, w.sc.Workloads, w.sc) }

func (w *sweep) extras(b *bench, recs []opRecord, m layerMetrics) {
	m.set("experiments.computes", float64(w.computes))
}

func (w *sweep) close() {}

// serve drives an in-process sweep service on loopback. The hot set is
// every kernel at every ladder level, computed during set-up; a seeded
// share of requests carries a seed never seen before, which pays for
// synthesis and simulation.
type serve struct {
	sc     experiments.Scale
	seed   int64
	srv    *simserver.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
	hot    []simserver.RunRequest
	// fresh maps the index of each request that carries a fresh seed to
	// the hot key whose kernel and level it asks for.
	fresh map[int]int
	// freshEnd is the first request index past the last fresh one.
	freshEnd int
}

// serveFreshPct is the share of requests, in percent, that carry a fresh
// seed, until serveFreshPerKey have been drawn for every hot key in a
// phase. Each fresh seed adds its trace (about 3.6 MB) to the runner's memo
// for good; the cap keeps the benchmark's memory small and makes the memo's
// growth, and so peak_rss_mb, the same however fast the service answers.
// Asking for every kernel and level equally often keeps the fresh work the
// same for every seed, and two per key give op_ms_tail, which falls among
// them, enough samples to be steady.
const (
	serveFreshPct    = 5
	serveFreshPerKey = 2
)

// freshBase offsets the input index of fresh seeds from the hot seed's.
const freshBase = 1 << 40

func (w *serve) setup(b *bench, seed int64) error {
	b.results = true
	w.initMix(seed)
	if err := buildGraph(b, seed); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "serve-cache-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv, err = simserver.New(simserver.Config{
		Scale: w.sc, Jobs: jobs, CacheDir: dir,
		// The token bucket must never bind at the measured rate.
		AdmitRate: 1e9, AdmitBurst: 1 << 30,
	})
	if err != nil {
		return err
	}
	w.hs = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: jobs, DisableCompression: true}}
	// Pre-warm the hot set, one caller per job.
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(w.hot); k += jobs {
				resp, _, err := w.post(w.hot[k])
				if err == nil {
					err = checkResultJSON(resp.Result, 1, w.sc.Instructions)
				}
				if err == nil {
					err = b.record(k, resp.Result)
				}
				if err != nil {
					errs[c] = fmt.Errorf("pre-warm %s/%s: %w", w.hot[k].Enhancement, w.hot[k].Workload, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// post sends one run request and returns the decoded response and the
// body's size.
func (w *serve) post(req simserver.RunRequest) (simserver.RunResponse, int, error) {
	var out simserver.RunResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	resp, err := w.client.Post(w.hs.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, len(raw), fmt.Errorf("%w: status %d: %s", errCheck, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, len(raw), fmt.Errorf("%w: decode response: %v", errCheck, err)
	}
	return out, len(raw), nil
}

// initMix derives the request mix from the seed: the hot set, and how far
// into the request sequence fresh seeds are drawn.
func (w *serve) initMix(seed int64) {
	w.seed = seed
	w.sc = quickScale(seed)
	w.hot = nil
	for _, k := range atcsim.Benchmarks() {
		for _, e := range ladderLevels {
			w.hot = append(w.hot, simserver.RunRequest{Workload: k, Seed: w.sc.Seed, Enhancement: e.String()})
		}
	}
	// Consecutive fresh requests go to different kernels.
	levels := len(ladderLevels)
	w.fresh, w.freshEnd = map[int]int{}, 0
	kernels := len(w.hot) / levels
	for n := 0; n < serveFreshPerKey*len(w.hot); w.freshEnd++ {
		if splitmix(seed, uint64(w.freshEnd))%100 < serveFreshPct {
			w.fresh[w.freshEnd] = n%kernels*levels + n/kernels%levels
			n++
		}
	}
}

func (w *serve) clients() int { return serveClients }

// simPass is how many fresh requests ask once for every hot key. Their
// simulations differ in speed by more than twice, so the median of single
// requests would jump between two kernels' speeds from run to run.
func (w *serve) simPass() int { return len(w.hot) }

// request returns request i of the seeded mix and, for a hot request, its
// index in the hot set (-1 for a fresh seed). A later round of the same
// requests draws new fresh seeds, so they are still never seen before.
func (w *serve) request(round, i int) (simserver.RunRequest, int) {
	if n, ok := w.fresh[i]; ok {
		req := w.hot[n]
		req.Seed = inputSeed(w.seed, freshBase+round<<32+i)
		return req, -1
	}
	k := int((splitmix(w.seed, uint64(i)) >> 8) % uint64(len(w.hot)))
	return w.hot[k], k
}

func (w *serve) op(b *bench, i int) opRecord {
	req, k := w.request(b.round, i)
	rec := opRecord{distinct: -1}
	id := b.spans.begin("http", i, -1)
	start := time.Now()
	resp, n, err := w.post(req)
	rec.dur = time.Since(start)
	b.spans.end(id)
	rec.bytes, rec.source = n, resp.Source
	if err == nil && k >= 0 {
		err = b.record(k, resp.Result)
	}
	if err == nil && k < 0 {
		err = checkResultJSON(resp.Result, 1, w.sc.Instructions)
		if resp.Source == string(experiments.SourceComputed) {
			rec.instr = float64(w.sc.Warmup + w.sc.Instructions)
		}
	}
	if err != nil {
		rec.err = fmt.Errorf("serve request %d: %w", i, err)
	}
	return rec
}

func (w *serve) finish(b *bench) (int, error) { return 0, nil }

func (w *serve) probe(b *bench) error { return probeQuick(b, atcsim.Benchmarks(), w.sc) }

func (w *serve) extras(b *bench, recs []opRecord, m layerMetrics) {
	var hit, compute []float64
	var kb float64
	var shed int
	for _, r := range recs {
		ms := float64(r.dur.Nanoseconds()) / 1e6
		switch r.source {
		case string(experiments.SourceComputed):
			compute = append(compute, ms)
		case string(experiments.SourceShared), string(experiments.SourceDisk):
			hit = append(hit, ms)
		}
		kb += float64(r.bytes) / 1024
		if r.err != nil && strings.Contains(r.err.Error(), "status 429") {
			shed++
		}
	}
	if len(hit) > 0 {
		m.set("simserver.hit_ms_p50", median(hit))
	}
	if len(compute) > 0 {
		m.set("simserver.compute_ms_p50", median(compute))
	}
	m.set("simserver.resp_kb", ratio(kb, float64(len(recs))))
	m.set("simserver.shed", float64(shed))
}

func (w *serve) close() {
	if w.hs != nil {
		w.client.CloseIdleConnections()
		w.hs.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.srv.Drain(ctx)
		cancel()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
