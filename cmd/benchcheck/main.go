// Command benchcheck keeps the benchmark trajectory in BENCH.json and gates
// regressions against it. BENCH.json holds one labelled run per recorded
// measurement, oldest first; each run names the machine, GOMAXPROCS, go
// version and commit it was measured on.
//
// Record a run (the label must be new; the machine and GOMAXPROCS come from
// the go test output, the go version from the toolchain running benchcheck):
//
//	go test -bench . -benchmem -run xxx ./internal/benchmarks/ | benchcheck -record <label> -commit <commit>
//
// Gate a change (CI) against a recorded run:
//
//	go test -bench . -benchmem -run xxx ./internal/benchmarks/ | benchcheck -baseline <label>
//
// The gate FAILS (exit 1) on allocs/op regressions. For benchmarks whose
// baseline is 0 allocs/op the comparison is exact — the zero-allocation
// hot-path invariant never has noise, so any allocation is a regression.
// Benchmarks with residual cold-path allocations (the experiment-level
// ones) get -alloc-slack-pct of headroom before failing, since their counts
// wiggle slightly with iteration count. ns/op is timing-sensitive on shared
// runners, so slowdowns beyond -warn-pct only WARN.
//
// Compare two recorded runs by label (review aid, never fails):
//
//	benchcheck -compare <old-label> <new-label>
//
// prints where each run was measured and a per-benchmark delta table —
// ns/op, allocs/op and the percentage change of each — so a change's
// performance story is readable straight from the committed trajectory.
// An unknown label is an error that lists the recorded ones. benchcheck
// runs from the repository root, where BENCH.json lives.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Entry is one benchmark's recorded performance.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Run is one labelled measurement of the benchmark set. Commit names the
// tree that was measured; a trailing "+" means the change that adds the run
// on top of that commit. Fields a historical run did not record are empty
// (GOMAXPROCS 0).
type Run struct {
	Label      string           `json:"label"`
	Commit     string           `json:"commit"`
	Machine    string           `json:"machine"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Trajectory is the committed BENCH.json: every recorded run, oldest first.
type Trajectory struct {
	Runs []Run `json:"runs"`
}

const trajectoryFile = "BENCH.json"

func main() {
	var (
		record   = flag.String("record", "", "append the parsed results to the trajectory under this new label")
		commit   = flag.String("commit", "", "commit the recorded run measured (with -record; append + for an uncommitted change on top of it)")
		note     = flag.String("note", "", "note to store with the recorded run (with -record)")
		baseline = flag.String("baseline", "", "gate the parsed results against the run with this label")
		compares = flag.Bool("compare", false, "diff two recorded runs given as label arguments (old new) instead of reading stdin")
		warnPct  = flag.Float64("warn-pct", 15, "warn when ns/op regresses more than this percentage")
		slackPct = flag.Float64("alloc-slack-pct", 10, "allocs/op headroom for benchmarks with a nonzero baseline (zero baselines are exact)")
	)
	flag.Parse()
	modes := 0
	for _, on := range []bool{*record != "", *baseline != "", *compares} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fail(2, errors.New("exactly one of -record, -baseline or -compare is required"))
	}

	traj, err := loadTrajectory(trajectoryFile)
	if err != nil && !(*record != "" && errors.Is(err, os.ErrNotExist)) {
		fail(2, err)
	}

	if *compares {
		if flag.NArg() != 2 {
			fail(2, errors.New("-compare takes exactly two labels"))
		}
		old, err := traj.find(flag.Arg(0))
		if err != nil {
			fail(2, err)
		}
		cur, err := traj.find(flag.Arg(1))
		if err != nil {
			fail(2, err)
		}
		fmt.Printf("%s: %s\n%s: %s\n", old.Label, old.describe(), cur.Label, cur.describe())
		os.Stdout.WriteString(deltaTable(old.Label, cur.Label, old.Benchmarks, cur.Benchmarks))
		return
	}

	got, err := parse(os.Stdin)
	if err != nil {
		fail(2, err)
	}
	if len(got.Benchmarks) == 0 {
		fail(2, errors.New("no benchmark lines on stdin"))
	}

	if *record != "" {
		if *commit == "" {
			fail(2, errors.New("-record needs -commit"))
		}
		got.Label, got.Commit, got.Note, got.Go = *record, *commit, *note, runtime.Version()
		if err := traj.add(got); err != nil {
			fail(2, err)
		}
		if err := traj.write(trajectoryFile); err != nil {
			fail(2, err)
		}
		fmt.Printf("benchcheck: recorded %d benchmarks as %q in %s (%s)\n",
			len(got.Benchmarks), got.Label, trajectoryFile, got.describe())
		return
	}

	base, err := traj.find(*baseline)
	if err != nil {
		fail(2, err)
	}
	fails, warns := compare(base.Benchmarks, got.Benchmarks, *warnPct, *slackPct)
	for _, w := range warns {
		fmt.Println("WARN:", w)
	}
	for _, f := range fails {
		fmt.Println("FAIL:", f)
	}
	fmt.Printf("benchcheck: %d benchmarks compared against %q, %d failures, %d warnings\n",
		len(got.Benchmarks), base.Label, len(fails), len(warns))
	if len(fails) > 0 {
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(code)
}

// describe renders where a run was measured, naming unrecorded fields.
func (r Run) describe() string {
	or := func(s string) string {
		if s == "" {
			return "unrecorded"
		}
		return s
	}
	procs := "unrecorded"
	if r.GOMAXPROCS > 0 {
		procs = strconv.Itoa(r.GOMAXPROCS)
	}
	return fmt.Sprintf("commit %s, machine %s, GOMAXPROCS %s, go %s",
		or(r.Commit), or(r.Machine), procs, or(r.Go))
}

// loadTrajectory reads and decodes a committed trajectory file.
func loadTrajectory(path string) (Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Trajectory{}, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return Trajectory{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// find returns the run recorded under label.
func (t Trajectory) find(label string) (Run, error) {
	for _, r := range t.Runs {
		if r.Label == label {
			return r, nil
		}
	}
	labels := make([]string, len(t.Runs))
	for i, r := range t.Runs {
		labels[i] = r.Label
	}
	return Run{}, fmt.Errorf("no run labelled %q (recorded: %s)", label, strings.Join(labels, ", "))
}

// add appends r as the newest run. Labels are unique: a recorded run is
// history, so re-measuring means a new label.
func (t *Trajectory) add(r Run) error {
	if _, err := t.find(r.Label); err == nil {
		return fmt.Errorf("label %q is already recorded", r.Label)
	}
	t.Runs = append(t.Runs, r)
	return nil
}

func (t Trajectory) write(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// deltaTable renders a per-benchmark comparison of two runs: ns/op and
// allocs/op side by side with the percentage change of each, one row per
// benchmark in sorted order. Benchmarks present on only one side are listed
// as added/removed rather than silently dropped.
func deltaTable(oldName, newName string, old, cur map[string]Entry) string {
	names := make([]string, 0, len(old)+len(cur))
	for n := range old {
		names = append(names, n)
	}
	for n := range cur {
		if _, ok := old[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tns/op (%s)\tns/op (%s)\tΔ%%\tallocs/op (%s)\tallocs/op (%s)\tΔ%%\n",
		oldName, newName, oldName, newName)
	pct := func(was, is float64) string {
		if was == 0 {
			if is == 0 {
				return "0.0%"
			}
			return "new"
		}
		return fmt.Sprintf("%+.1f%%", (is/was-1)*100)
	}
	for _, n := range names {
		o, inOld := old[n]
		c, inCur := cur[n]
		switch {
		case !inOld:
			fmt.Fprintf(tw, "%s\t-\t%.4g\tadded\t-\t%v\tadded\n", n, c.NsPerOp, c.AllocsPerOp)
		case !inCur:
			fmt.Fprintf(tw, "%s\t%.4g\t-\tremoved\t%v\t-\tremoved\n", n, o.NsPerOp, o.AllocsPerOp)
		default:
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%s\t%v\t%v\t%s\n",
				n, o.NsPerOp, c.NsPerOp, pct(o.NsPerOp, c.NsPerOp),
				o.AllocsPerOp, c.AllocsPerOp, pct(o.AllocsPerOp, c.AllocsPerOp))
		}
	}
	tw.Flush()
	return b.String()
}

// parse extracts benchmark result lines from go test output, along with the
// machine (the "cpu:" header) and GOMAXPROCS (the -N name suffix, absent
// when it is 1). The suffix is stripped from the names so runs compare
// across machines.
func parse(r io.Reader) (Run, error) {
	out := Run{Benchmarks: make(map[string]Entry)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && out.Machine == "" {
			out.Machine = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name, procs := f[0], 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		out.GOMAXPROCS = max(out.GOMAXPROCS, procs)
		e := Entry{}
		// f[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		out.Benchmarks[name] = e
	}
	return out, sc.Err()
}

// compare returns failure and warning messages for got vs base. Benchmarks
// missing from either side are reported: a benchmark that silently vanishes
// from the run would otherwise make its regressions invisible.
func compare(base, got map[string]Entry, warnPct, slackPct float64) (fails, warns []string) {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := base[n]
		g, ok := got[n]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: present in baseline but not in this run", n))
			continue
		}
		limit := b.AllocsPerOp * (1 + slackPct/100)
		switch {
		case g.AllocsPerOp > limit:
			fails = append(fails, fmt.Sprintf("%s: allocs/op %v > baseline %v",
				n, g.AllocsPerOp, b.AllocsPerOp))
		case g.AllocsPerOp > b.AllocsPerOp:
			warns = append(warns, fmt.Sprintf("%s: allocs/op %v over baseline %v (within slack)",
				n, g.AllocsPerOp, b.AllocsPerOp))
		}
		if b.NsPerOp > 0 {
			pct := (g.NsPerOp/b.NsPerOp - 1) * 100
			if pct > warnPct {
				warns = append(warns, fmt.Sprintf("%s: ns/op %.4g is %.1f%% over baseline %.4g",
					n, g.NsPerOp, pct, b.NsPerOp))
			}
		}
	}
	for n := range got {
		if _, ok := base[n]; !ok {
			warns = append(warns, fmt.Sprintf("%s: not in baseline (record a new run with -record)", n))
		}
	}
	return fails, warns
}
