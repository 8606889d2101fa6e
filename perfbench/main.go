// Command perfbench is PatLabor's end-to-end benchmark. It generates one
// seeded workload, drives it through the entry points cmd/patlabor uses
// (engine.Engine batches and eco.Session handles), checks every output and
// prints the metrics as one JSON object on the last line of stdout.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload iccad_mix --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 a separate traced run calls each layer's public functions on
// the same inputs, reports the per-layer breakdown and writes its spans
// under .bench_build/traces. METRICS.md defines every metric and the
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workers is the engine and hierarchical-router worker count. Every
// workload runs on one routing goroutine at GOMAXPROCS=1: a second vCPU
// lets concurrent GC work slow the routing thread by a varying amount.
const workers = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 15, "timed seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	runtime.GOMAXPROCS(1)

	ctx := context.Background()
	var res *result
	var err error
	if *traced == 1 {
		res, err = traceRun(ctx, w, *seed, *seconds, stderr)
	} else {
		res, err = measure(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, w, *seed, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict, printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// digest identifies the generated inputs; failures lists the first
	// check failures. Both are printed before the verdict line.
	digest   string
	failures []string
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records one failed operation and keeps its reason for the report.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// report prints the run record (inputs digest and host), one line per
// metric and failure, and the verdict JSON as the last line.
func report(out io.Writer, w *workload, seed int64, res *result) error {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Digest   string `json:"input_digest"`
		host
	}{w.name, seed, res.digest, hostInfo()})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "record %s\n", rec)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(out, "metric %-32s %14.6g %s\n", "failed_frac", failedFrac, "1")
	for _, f := range res.failures {
		fmt.Fprintf(out, "failure %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
