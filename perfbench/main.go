// Command perfbench is the repository's end-to-end benchmark. It drives the
// dqm-serve and dqm-experiments binaries built from the same tree over a
// seeded, fixed-length op stream, checks their outputs against in-process
// references, and prints every metric by name and unit. With -trace 1 it
// prints the per-layer metrics instead, from /metrics scrapes of the same run
// and from an in-process replay of the op stream that times each layer's
// public calls. A traced run measures every workload, the named one first,
// so that it prints every per-layer metric whichever workload it names.
//
// Run it from the repository root through run.sh, which builds the binaries:
//
//	bash perfbench/run.sh --workload bulk-dqmv --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runCfg is what every workload needs to know about its run.
type runCfg struct {
	Bin     string // directory holding dqm-serve and dqm-experiments
	Work    string // scratch directory for this run, inside the checkout
	Seed    uint64
	Seconds int
	Trace   bool
	// Nproc is the CPU count. The client, the server and the replay run
	// with GOMAXPROCS set to it, except on monitor (see monitorProcs).
	Nproc int
}

// report is what a workload run produces.
type report struct {
	metrics []metric
	// env is the run's environment record: machine, settings, op counts
	// and the sample count behind every percentile.
	env   map[string]any
	tally tally
	// checks lists every failed output check; a run is correct when it is
	// empty and no operation failed.
	checks []string
	// notes are extra human-readable lines, such as the stage table.
	notes []string
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// runDeadline bounds one run, set-up and checks included.
const runDeadline = 170 * time.Second

// workloads maps each workload name to its runner.
var workloads = map[string]func(runCfg) (*report, error){
	"bulk-dqmv":    runBulk,
	"monitor":      runMonitor,
	"paper-replay": runReplay,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: bulk-dqmv, monitor or paper-replay")
		seed     = flag.Uint64("seed", 1, "op-stream seed")
		seconds  = flag.Int("seconds", 10, "run size: the op stream is sized to take about this long on a 2-CPU box")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built binaries")
		work     = flag.String("work", ".bench_build", "directory for run data")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (bulk-dqmv, monitor, paper-replay), -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fatal(err)
	}
	// A run must end within runDeadline; one that hangs stops its children
	// and fails instead.
	time.AfterFunc(runDeadline, func() {
		killChildren()
		os.RemoveAll(dir)
		fatal(fmt.Errorf("run exceeded %s", runDeadline))
	})
	cfg := runCfg{Bin: absBin, Work: dir, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Nproc: runtime.NumCPU()}
	if cfg.Trace {
		run = func(cfg runCfg) (*report, error) { return traceAll(cfg, *workload) }
	}
	rep, err := run(cfg)
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	rep.env["workload"] = *workload
	rep.env["seed"] = *seed
	rep.env["seconds"] = *seconds
	rep.env["trace"] = *trace
	rep.env["nproc"] = cfg.Nproc
	rep.env["go_version"] = runtime.Version()
	rep.env["data_dir"] = dir
	rep.env["data_fs"] = fsType(dir)
	emit(rep)
}

// traceOrder is the order in which a traced run measures the workloads.
var traceOrder = []string{"bulk-dqmv", "monitor", "paper-replay"}

// traceAll runs every workload's traced run, first's first, each in a data
// directory of its own, and merges their reports. Each layer is exercised by
// one workload, so this is how a traced run prints every per-layer metric
// whichever workload it names. The harness metrics cover the whole run:
// host.calib_ms is the median of the workloads' kernels,
// serve.failed_requests counts every failed operation, and
// trace.overhead_pct covers every traced replay.
func traceAll(cfg runCfg, first string) (*report, error) {
	all := &report{env: map[string]any{}}
	var calib []float64
	order := append([]string{first}, traceOrder...)
	for i, w := range order {
		if i > 0 && w == first {
			continue
		}
		c := cfg
		c.Work = filepath.Join(cfg.Work, w)
		if err := os.MkdirAll(c.Work, 0o755); err != nil {
			return nil, err
		}
		rep, err := workloads[w](c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		all.metrics = append(all.metrics, rep.metrics...)
		all.tally.add(rep.tally)
		for _, ch := range rep.checks {
			all.checks = append(all.checks, w+": "+ch)
		}
		all.notes = append(all.notes, rep.notes...)
		calib = append(calib, rep.env["host.calib_ms"].(float64))
		all.env[w] = rep.env
	}
	all.add("host.calib_ms", median(calib), "ms")
	all.add("serve.failed_requests", float64(all.tally.Failed), "count")
	all.add("trace.overhead_pct", traceOverheadPct(), "%")
	return all, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the human-readable report, the environment record, and the
// result object as the last line.
func emit(rep *report) {
	for _, m := range rep.metrics {
		fmt.Printf("%-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, c := range rep.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	if rep.tally.First != "" {
		fmt.Println("FIRST FAILURE:", rep.tally.First)
	}
	env, err := json.Marshal(rep.env)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("env %s\n", env)

	out := map[string]any{
		"correct":   len(rep.checks) == 0 && rep.tally.Failed == 0,
		"attempted": max(rep.tally.Attempted, 1),
		"failed":    rep.tally.Failed,
	}
	ms := map[string]any{}
	for _, m := range rep.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN; a metric without samples fails the run.
			out["correct"] = false
			v = 0
		}
		ms[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	out["metrics"] = ms
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// samples records a percentile's sample count in the environment record.
func samples(env map[string]any, name string, p float64, n int) {
	env["samples."+name] = fmt.Sprintf("p%g of %d", p, n)
}

// sliceSamples records the sample count behind a median taken per slice of
// the measured phases of every server process (see measuredRounds).
func sliceSamples(env map[string]any, name string, n int) {
	env["samples."+name] = fmt.Sprintf("median of %d slice p50s over %d samples", setupRepeats*measuredRounds, n)
}
