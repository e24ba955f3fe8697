// Command perfbench is the repository's end-to-end benchmark of the PipeLayer
// serving tier. It drives serve.Server.Predict in-process with an open-loop
// Poisson schedule on the paper's MNIST networks, checks every response bit
// for bit against the serial reference of the weight version it reports,
// and prints one JSON result line. See README.md for the workloads, their
// frozen rates and the metrics.
//
//	perfbench --workload mlp-serve --seed 1 --seconds 60 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"pipelayer/internal/parallel"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the gated end-to-end metrics with their units: every
// untraced run of every workload reports exactly these (BENCHMARK.json names
// the same set).
var endToEnd = map[string]string{
	"setup_s":     "s",
	"p50_ms.low":  "ms",
	"max_rps_slo": "rps",
	"train_img_s": "img/s",
	"promote_ms":  "ms",
	"rss_mb":      "MB",
}

// checkMetrics confirms a run reported exactly the metric set its mode
// promises, so a workload can never silently drop a gated figure.
func checkMetrics(rep *report) error {
	want := map[string]string{}
	if rep.Traced {
		for _, n := range perLayerNames() {
			want[n] = perLayerUnit(n)
		}
	} else {
		want = endToEnd
	}
	for n, u := range want {
		if m, ok := rep.Metrics[n]; !ok || m.Unit != u {
			return fmt.Errorf("metric %s (%s) missing or mis-unitted", n, u)
		}
	}
	if len(rep.Metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(want))
	}
	return nil
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// workload runs one named workload and fills in a report.
type workload func(ctx context.Context, o options, rep *report) error

var workloads = map[string]workload{
	"mlp-serve":       mlpServe.run,
	"cnn-serve":       cnnServe.run,
	"cnn-train-serve": trainServe.run,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for inputs, weights and the arrival schedule")
	seconds := fs.Float64("seconds", 60, "measured seconds, shared among the workload's phases")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for the report and trace artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// The reference host has 2 vCPUs; never use more than the machine has.
	// Each call computes on one worker, so the CPUs go to the two replicas
	// (or to the trainer and the server) rather than to fork-join inside a
	// call: on cnn-train-serve a trainer forking over both CPUs left
	// serving queued behind it, which doubled p50 and made it follow every
	// change in the host's load, for no gain in training throughput.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	parallel.SetWorkers(1)

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep := newReport(*name, o)
	if err := w(context.Background(), o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := checkMetrics(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	path, err := rep.write()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.summarize(os.Stderr, path)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
