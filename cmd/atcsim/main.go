// Command atcsim runs a single simulation of one benchmark under a chosen
// configuration and prints the headline statistics.
//
// Examples:
//
//	atcsim -workload pr
//	atcsim -workload mcf -enhance tempo -instructions 500000
//	atcsim -workload cc -llc-policy hawkeye -l2-prefetcher spp
//	atcsim -workload pr -smt xalancbmk
//	atcsim -multi pr,mcf,cc,xalancbmk                    # one core per workload
//	atcsim -workload pr -mechanism victima               # see docs/TRANSLATION.md
//	atcsim -workload mcf -timing queued                  # bounded-queue timing engine
//
// Observability:
//
//	atcsim -workload pr -trace-out trace.json            # Perfetto trace
//	atcsim -workload pr -interval-stats hb.jsonl -interval 10000   # JSONL heartbeat
//	atcsim -workload pr -metrics-addr localhost:9797     # live /metrics, /healthz, /debug/pprof/
//	atcsim -workload pr -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"atcsim"
	"atcsim/internal/metrics"
	"atcsim/internal/telemetry"
	"atcsim/internal/xlat"
)

func main() {
	var (
		workload  = flag.String("workload", "pr", "benchmark name ("+strings.Join(atcsim.Benchmarks(), ", ")+")")
		smt       = flag.String("smt", "", "second benchmark for a 2-way SMT run")
		multi     = flag.String("multi", "", "comma-separated benchmarks for a multi-core run (one core each, shared LLC/DRAM; overrides -workload)")
		insts     = flag.Int("instructions", 300_000, "measured instructions per core")
		warmup    = flag.Int("warmup", 100_000, "warmup instructions per core")
		seed      = flag.Int64("seed", 1, "workload synthesis seed")
		enhance   = flag.String("enhance", "baseline", "enhancement level: baseline, t-drrip, t-ship, atp, tempo")
		mechanism = flag.String("mechanism", "", "translation mechanism for STLB misses: "+strings.Join(xlat.Names(), ", ")+" (empty = atp)")
		timing    = flag.String("timing", "", "hierarchy timing model: "+strings.Join(atcsim.TimingModels(), ", ")+" (empty = analytic)")
		l2Policy  = flag.String("l2-policy", "", "override L2 replacement policy")
		llcPolicy = flag.String("llc-policy", "", "override LLC replacement policy")
		l1dPf     = flag.String("l1d-prefetcher", "none", "L1D prefetcher (none, nextline, ipcp)")
		l2Pf      = flag.String("l2-prefetcher", "none", "L2 prefetcher (none, nextline, spp, bingo, isb)")
		stlb      = flag.Int("stlb", 2048, "STLB entries")
		recall    = flag.Bool("recall", false, "track recall distances")
		asJSON    = flag.Bool("json", false, "emit the full result as JSON")

		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file of sampled request lifecycles")
		traceSample = flag.Int("trace-sample", telemetry.DefaultSampleEvery, "trace one in N memory instructions")
		traceBuf    = flag.Int("trace-buf", telemetry.DefaultBufferEvents, "trace ring-buffer capacity in events (oldest overwritten)")
		hbOut       = flag.String("interval-stats", "", "stream interval heartbeat rows to this file as JSON Lines")
		hbEvery     = flag.Int("interval", 10_000, "heartbeat interval in measured instructions")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metrics (OpenMetrics), /healthz and /debug/pprof/ on this host:port (port 0 picks one)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		fail("unexpected positional arguments %q (all options are flags; see -h)", args)
	}
	if *insts <= 0 {
		fail("-instructions must be positive, got %d", *insts)
	}
	if *warmup < 0 {
		fail("-warmup must not be negative, got %d", *warmup)
	}
	if *stlb <= 0 {
		fail("-stlb must be positive, got %d", *stlb)
	}
	if (*hbOut != "" || *metricsAddr != "") && *hbEvery <= 0 {
		fail("-interval must be positive, got %d", *hbEvery)
	}
	if *multi != "" && *smt != "" {
		usageFail("-multi and -smt are mutually exclusive")
	}

	cfg := atcsim.DefaultConfig()
	cfg.Instructions = *insts
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.STLB.Entries = *stlb
	cfg.L1DPrefetcher = *l1dPf
	cfg.L2Prefetcher = *l2Pf
	cfg.TrackRecall = *recall
	if !xlat.Registered(*mechanism) {
		fail("unknown translation mechanism %q (have %s)", *mechanism, strings.Join(xlat.Names(), ", "))
	}
	cfg.Mechanism = *mechanism
	if !atcsim.TimingRegistered(*timing) {
		usageFail("unknown timing model %q (have %s)", *timing, strings.Join(atcsim.TimingModels(), ", "))
	}
	if *timing != atcsim.TimingAnalytic {
		// "analytic" normalizes to "" so the config JSON (and any run keys
		// derived from it) matches runs that never set the flag.
		cfg.Timing = *timing
	}

	levels := map[string]atcsim.Enhancement{
		"baseline": atcsim.Baseline, "t-drrip": atcsim.TDRRIP,
		"t-ship": atcsim.TSHiP, "atp": atcsim.ATP, "tempo": atcsim.TEMPO,
	}
	lvl, ok := levels[strings.ToLower(*enhance)]
	if !ok {
		fail("unknown enhancement %q", *enhance)
	}
	cfg.Apply(lvl)
	if *l2Policy != "" {
		cfg.L2.Policy = *l2Policy
	}
	if *llcPolicy != "" {
		cfg.LLC.Policy = *llcPolicy
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The metrics endpoint is the run's one listener. Its sim_* gauges are
	// set by the heartbeat at every interval, never from the per-access hot
	// path; the total is known up front.
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.New()
		threads := 1
		switch {
		case *multi != "":
			threads = len(strings.Split(*multi, ","))
		case *smt != "":
			threads = 2
		}
		reg.Gauge("sim_instructions_total", "Instructions this run will simulate.").
			SetUint(uint64(*insts) * uint64(threads))
	}

	// Telemetry hub: each facility only exists when requested, so the
	// default run carries a nil hub and a pristine hot path.
	hub, hbFile := buildHub(*traceOut, *traceBuf, *traceSample, *hbOut, *hbEvery, reg)
	cfg.Telemetry = hub

	if reg != nil {
		// Serve only once the heartbeat has registered its gauges, so the
		// first scrape already sees every series.
		addr, err := (&metrics.Server{Registry: reg}).Serve(*metricsAddr)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "atcsim: metrics listening on http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}

	traceLen := *insts + *warmup
	var res *atcsim.Result
	switch {
	case *multi != "":
		var traces []*atcsim.Trace
		for i, name := range strings.Split(*multi, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				usageFail("-multi has an empty benchmark name")
			}
			// Per-core seeds mirror the SMT convention: core i runs the
			// workload synthesized with seed+i.
			tr, err := atcsim.NewTrace(name, traceLen, *seed+int64(i))
			if err != nil {
				fail("%v", err)
			}
			traces = append(traces, tr)
		}
		var err error
		res, err = atcsim.RunMulti(cfg, traces...)
		if err != nil {
			fail("%v", err)
		}
	case *smt != "":
		t0, err := atcsim.NewTrace(*workload, traceLen, *seed)
		if err != nil {
			fail("%v", err)
		}
		t1, err := atcsim.NewTrace(*smt, traceLen, *seed+1)
		if err != nil {
			fail("%v", err)
		}
		res, err = atcsim.RunSMT(cfg, t0, t1)
		if err != nil {
			fail("%v", err)
		}
	default:
		t0, err := atcsim.NewTrace(*workload, traceLen, *seed)
		if err != nil {
			fail("%v", err)
		}
		res, err = atcsim.Run(cfg, t0)
		if err != nil {
			fail("%v", err)
		}
	}

	flushTelemetry(hub, hbFile, *traceOut)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("memprofile: %v", err)
		}
		f.Close()
	}

	if *asJSON {
		out, err := atcsim.MarshalResult(res)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
		return
	}
	report(res)
}

// buildHub assembles the telemetry hub from the observability flags; it
// returns nil when nothing was requested. A non-nil reg gets a heartbeat
// even without -interval-stats, since the heartbeat sets its gauges. The
// returned file is the open heartbeat stream (closed by flushTelemetry).
func buildHub(traceOut string, traceBuf, traceSample int, hbOut string, hbEvery int, reg *metrics.Registry) (*telemetry.Hub, *os.File) {
	if traceOut == "" && hbOut == "" && reg == nil {
		return nil, nil
	}
	hub := &telemetry.Hub{}
	if traceOut != "" {
		hub.Tracer = telemetry.NewTracer(traceBuf, traceSample)
	}
	var hbFile *os.File
	switch {
	case hbOut != "":
		f, err := os.Create(hbOut)
		if err != nil {
			fail("%v", err)
		}
		hbFile = f
		hub.Heartbeat = telemetry.NewHeartbeat(f, hbEvery, reg)
	case reg != nil:
		hub.Heartbeat = telemetry.NewHeartbeat(nil, hbEvery, reg)
	}
	return hub, hbFile
}

// flushTelemetry writes the trace file and closes the heartbeat stream.
func flushTelemetry(hub *telemetry.Hub, hbFile *os.File, traceOut string) {
	if hub == nil {
		return
	}
	if tr := hub.Tracer; tr != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fail("%v", err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fail("trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "atcsim: wrote %d trace events (%d sampled requests, %d dropped) to %s\n",
			len(tr.Events()), tr.Sampled(), tr.Dropped(), traceOut)
	}
	if hb := hub.Heartbeat; hb != nil && hbFile != nil {
		if err := hb.Err(); err != nil {
			fail("interval-stats: %v", err)
		}
		if err := hbFile.Close(); err != nil {
			fail("interval-stats: %v", err)
		}
		fmt.Fprintf(os.Stderr, "atcsim: wrote %d heartbeat rows to %s\n", len(hb.Rows()), hbFile.Name())
	}
}

func report(res *atcsim.Result) {
	atcsim.WriteReport(os.Stdout, res)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "atcsim: "+format+"\n", args...)
	os.Exit(1)
}

// usageFail reports a bad-input error and exits 2 (the shell convention for
// usage errors, distinct from exit 1 runtime failures).
func usageFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "atcsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "see -h for usage")
	os.Exit(2)
}
