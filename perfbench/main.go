// Command perfbench is atcsim's benchmark. It runs one named workload
// through the simulator's public entry points for a fixed number of seconds,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package into .bench_build and runs it from the root of
// a checkout. workloads.go describes the workloads, bench.go the end-to-end
// metrics, hostclock.go how their times are scaled to a nominal host speed,
// and layers.go the per-layer ones. Besides the result, the output records
// the host's CPU count, GOMAXPROCS, the Go version, the commit and the seed,
// the tail percentile op_ms_tail was taken at, the host factor with the
// figures as measured, and sim_digest.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many cold set-ups setup_s takes the median of. Each
// runs in a fresh child process, so each pays the shared graph build and
// trace synthesis a user pays on every invocation. After each, the parent
// samples the reference kernel setupSamples times, and setup_s is scaled by
// the host factor like the other times (see hostclock.go).
const (
	setupRepeats = 7
	setupSamples = 5
)

// outDir holds the benchmark's build, spans and temporary files; run.sh and
// the checkout's .gitignore agree on it.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once, print the set-up seconds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if *setupOnly {
		return setupChild(newW, *seed)
	}
	printEnv(*name, *seed, *traced)

	setups, setupClock, err := coldSetups(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	f, _ := setupClock.factor()
	setupS := median(setups) / f
	fmt.Printf("set-up %s; setup_s as measured %.4f s\n", setupClock.describe(), median(setups))
	b := &bench{name: *name, seed: *seed, seconds: *seconds}
	if *traced == 1 {
		b.spans = newSpans()
	}
	w := newW()
	defer w.close()
	b.spans.setOn(true)
	err = w.setup(b, *seed)
	b.spans.setOn(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}

	var out result
	if *traced == 1 {
		out, err = b.measureTraced(w)
	} else {
		out, err = b.measureUntraced(w, setupS)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printResult(out)
	return 0
}

// setupChild is the --setup-only mode coldSetups runs in a fresh process.
func setupChild(newW func() workload, seed int64) int {
	w := newW()
	start := time.Now()
	err := w.setup(&bench{}, seed)
	elapsed := time.Since(start).Seconds()
	w.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	fmt.Println(strconv.FormatFloat(elapsed, 'g', -1, 64))
	return 0
}

// coldSetups times setupRepeats set-ups of the workload, each in a fresh
// process running this binary in --setup-only mode, one after the other,
// and samples the reference kernel after each.
func coldSetups(name string, seed int64) ([]float64, *hostClock, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	clock := newHostClock()
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("child set-up: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("child set-up printed %q", b)
		}
		out = append(out, v)
		clock.sampleN(setupSamples)
	}
	return out, clock, nil
}

// printEnv records what the figures depend on besides the code: the host's
// CPU count, the Go runtime and the commit, plus the run's own parameters.
func printEnv(name string, seed int64, traced int) {
	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", b)
}

// commit reads the checked-out commit from .git in the working directory,
// without invoking git (which would search parent directories). It returns
// "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, r, ok := strings.Cut(line, " "); ok && r == ref {
			return hash
		}
	}
	return "unknown"
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric as a readable line, then the result as
// one JSON object on the last line.
func printResult(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 10, 64), m.Unit)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		// Only a NaN or infinite value can fail to encode; that is a bug in
		// a metric's derivation.
		panic(fmt.Sprintf("perfbench: encode result: %v", err))
	}
	os.Stdout.Write(buf.Bytes())
}

// errCheck marks an operation whose output failed a correctness check.
var errCheck = errors.New("output check failed")
