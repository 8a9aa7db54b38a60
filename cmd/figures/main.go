// Command figures regenerates the paper's tables and figures and prints
// them as text reports. Use -list to see the experiment identifiers, -id to
// run one experiment, or no arguments to run the full suite (minutes).
// Simulations run in parallel (-jobs, default: all CPUs) and can be
// persisted across invocations with -cache-dir; the report output is
// byte-identical regardless of either option.
//
// Long sweeps are governable: -run-timeout bounds each simulation,
// -sweep-budget bounds the whole invocation, and SIGINT/SIGTERM cancel the
// sweep gracefully — in-flight simulations finish and land in the cache,
// completed reports are still printed (failed points render as
// FAILED(reason) markers), and re-running with the same -cache-dir resumes
// where the interrupted sweep left off.
//
// Long sweeps are observable: -progress (with -log-level
// debug|info|warn|error) logs each simulation to stderr, -metrics-addr
// serves live /metrics, /runs, /healthz and /debug/pprof/ endpoints on one
// port, and -flight-recorder captures a structured post-mortem of permanent
// failures.
//
//	figures -list
//	figures -list-mechanisms
//	figures -id fig14
//	figures -id mechanisms -scale quick
//	figures -id fig14 -timing queued -scale quick
//	figures -scale quick -jobs 8
//	figures -cache-dir .figcache -markdown > results.md
//	figures -cache-dir .figcache -run-timeout 2m -sweep-budget 1h
//	figures -scale full -jobs 8 -progress -metrics-addr localhost:9797
package main

import (
	"fmt"
	"os"

	"atcsim/internal/figurescli"
)

func main() {
	code, err := figurescli.Main(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
	}
	os.Exit(code)
}
