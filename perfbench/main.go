// Command perfbench is the repository benchmark. It compiles only inputs it
// generates from --seed, through the flow's public entry points
// (fpgaflow.Run for compiles, jobs.Service Submit/Wait for the farm),
// checks every output with an oracle of its own, and prints one JSON line
// of metrics as the last line of standard output. With --trace 1 it runs
// the per-layer traced variant instead. NOTES.md describes the workloads
// and metrics.
//
//	go build -o perfbench . && ./perfbench --workload route-minw --seed 1 --seconds 30 --trace 0
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input list to a few small designs (self-test).
	tiny bool
	// placeEffort and activityCycles raise one layer's work through the
	// flow's public options (sensitivity check); the defaults are the
	// flow's own.
	placeEffort    float64
	activityCycles int
	// workdir holds the farm's state directories.
	workdir string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&opt.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the per-layer traced variant")
	fs.Float64Var(&opt.placeEffort, "place-effort", 1, "flow PlaceEffort (sensitivity check)")
	fs.IntVar(&opt.activityCycles, "activity-cycles", 500, "flow ActivityCycles (sensitivity check)")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build/work", "scratch directory for farm state")
	setupOnly := fs.Bool("setup-only", false, "time one cold set-up and print its seconds (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *setupOnly {
		return setupOnlyMain(opt, stdout, stderr)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1
	res, err := runWorkload(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string { return []string{"route-minw", "synth-verify", "farm"} }

// runWorkload runs one workload and returns its result line.
func runWorkload(opt options, stdout, stderr io.Writer) (*result, error) {
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opt: opt, out: stdout, t: &tally{log: stderr}, metrics: map[string]metric{}}
	var err error
	switch opt.workload {
	case "route-minw", "synth-verify":
		err = b.runCompile(compileWorkloads[opt.workload])
	case "farm":
		err = b.runFarm()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	failedFrac := float64(b.t.failed) / float64(max(b.t.attempted, 1))
	b.note("failed_frac %d/%d = %g", b.t.failed, b.t.attempted, failedFrac)
	if !opt.trace {
		b.set("ok_frac", 1-failedFrac, "frac")
	}
	return &result{Correct: b.t.failed == 0, Attempted: b.t.attempted, Failed: b.t.failed, Metrics: b.metrics}, nil
}

// bench is the state of one run.
type bench struct {
	opt     options
	out     io.Writer
	t       *tally
	metrics map[string]metric
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// note prints a human-readable line; only the last line is the result.
func (b *bench) note(format string, args ...interface{}) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// summarize reports a per-pass series as its median, with quartiles and
// the pass count on a note line.
func (b *bench) summarize(name, unit string, xs []float64) {
	b.set(name, median(xs), unit)
	b.note("%-22s median %.6g  q1 %.6g  q3 %.6g  (%d passes: %.4g)", name, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs), xs)
}

// coldSetups is how many cold set-ups an untraced run times: its own and
// coldSetups-1 more, each in a fresh process of this program, so every one
// pays lazy initialisation and heap growth. setup_s is their median.
const coldSetups = 5

// reportSetup reports setup_s from the run's own set-up time and, in a full
// untraced run, coldSetups-1 set-ups in child processes.
func (b *bench) reportSetup(own float64) error {
	times := []float64{own}
	for len(times) < coldSetups && !b.opt.tiny && !b.opt.trace {
		t, err := b.childSetup()
		if err != nil {
			return fmt.Errorf("cold set-up %d: %w", len(times)+1, err)
		}
		times = append(times, t)
	}
	if !b.opt.trace {
		b.set("setup_s", median(times), "s")
	}
	b.note("setup_s %.6g  (median of %d cold set-ups: %.4g)", median(times), len(times), times)
	return nil
}

// childSetup runs this program with --setup-only, waits for it, and
// returns the set-up time it printed.
func (b *bench) childSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", b.opt.workload,
		"--seed", strconv.FormatInt(b.opt.seed, 10), "--workdir", b.opt.workdir,
		"--place-effort", strconv.FormatFloat(b.opt.placeEffort, 'g', -1, 64),
		"--activity-cycles", strconv.Itoa(b.opt.activityCycles))
	cmd.Stderr = b.t.log
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnlyMain makes one set-up of the workload, as a run does before its
// first pass, and prints its seconds.
func setupOnlyMain(opt options, stdout, stderr io.Writer) int {
	b := &bench{opt: opt, out: io.Discard, t: &tally{log: stderr}, metrics: map[string]metric{}}
	var secs float64
	var err error
	switch w, ok := compileWorkloads[opt.workload]; {
	case ok:
		_, secs, err = b.setupCompile(w)
	case opt.workload == "farm":
		var f *farm
		if err = os.MkdirAll(opt.workdir, 0o755); err == nil {
			if _, f, secs, err = b.setupFarm(); err == nil {
				err = f.close()
			}
		}
	default:
		err = fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, strconv.FormatFloat(secs, 'g', -1, 64))
	return 0
}

// minPasses is the fewest timed passes a run makes: the QoR-repeat check
// needs two.
const minPasses = 2

// minSamples is the fewest job latencies a run collects, which leaves at
// least 10 beyond p90.
const minSamples = 100

// more reports whether another pass of about `last` seconds fits in the
// run, given `elapsed` seconds already measured.
func (b *bench) more(passes int, elapsed, last float64) bool {
	return passes < minPasses || elapsed+last <= b.opt.seconds
}

// tally counts operations and correctness checks; each failure counts
// against ok_frac and makes the result incorrect.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// op records one operation or check; err == nil is success.
func (t *tally) op(err error, what string) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// check records a boolean correctness check.
func (t *tally) check(ok bool, format string, args ...interface{}) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed")
	}
	t.op(err, fmt.Sprintf(format, args...))
}

// cpus is the farm's client and worker count.
func cpus() int { return runtime.NumCPU() }
