package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"pipelayer/internal/parallel"
)

// report collects everything one run measured. The final stdout line is
// derived from it; the whole of it is written as JSON beside the trace
// artifacts so a reader can see every phase, not only the headline
// metrics.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Workers    int               `json:"parallel_workers"`
	NumCPU     int               `json:"num_cpu"`
	GoVersion  string            `json:"go_version"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Phases     []phaseResult     `json:"phases"`
	Metrics    map[string]metric `json:"metrics"`
	Ungated    map[string]metric `json:"ungated_metrics,omitempty"`
	Notes      map[string]any    `json:"notes,omitempty"`
	Artifacts  []string          `json:"artifacts,omitempty"`
	Problems   []string          `json:"problems,omitempty"`

	out string
}

func newReport(workload string, o options) *report {
	return &report{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: parallel.Workers(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Correct: true, Metrics: map[string]metric{}, Ungated: map[string]metric{}, Notes: map[string]any{},
		out: o.out,
	}
}

// addPhase records a phase. Counted phases are the workload's fixed-rate
// load: their requests make up attempted/failed. Ladder probes are a search
// that deliberately overloads the server, so their sheds are the expected
// outcome, not failures; a wrong-bit response in any phase still fails the
// output check.
func (r *report) addPhase(p phaseResult, counted bool) {
	p.Counted = counted
	r.Phases = append(r.Phases, p)
	if counted {
		r.Attempted += p.Sent
		r.Failed += p.Failed
	}
	if p.WrongBits > 0 {
		r.problem("%s: %d responses differ from their version's serial reference", p.Name, p.WrongBits)
	}
}

// wrongBits charges one response found wrong after the run (verification
// deferred until the checkpoint store can be read) to phase i.
func (r *report) wrongBits(i int) {
	p := &r.Phases[i]
	if p.WrongBits == 0 {
		defer r.problem("%s: responses differ from their version's serial reference", p.Name)
	}
	p.WrongBits++
	p.Succeeded--
	p.Failed++
	if p.Counted {
		r.Failed++
	}
}

// problem records a failed output check; the run then reports correct=false.
func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// setUngated records a metric that is printed and kept in the report but
// not on the result line: on the 2-vCPU reference host its run-to-run
// spread is wider than any bound a gate could use (see README.md).
func (r *report) setUngated(name string, value float64, unit string) {
	r.Ungated[name] = metric{Value: value, Unit: unit}
}

func (r *report) result() result {
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return result{Correct: r.Correct, Attempted: attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *report) basename() string {
	kind := "e2e"
	if r.Traced {
		kind = "trace"
	}
	return fmt.Sprintf("%s-%s-seed%d", r.Workload, kind, r.Seed)
}

// artifact returns the path for a named artifact of this run and lists it
// in the report.
func (r *report) artifact(suffix string) string {
	p := filepath.Join(r.out, r.basename()+suffix)
	r.Artifacts = append(r.Artifacts, p)
	return p
}

func (r *report) write() (string, error) {
	path := filepath.Join(r.out, r.basename()+".json")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize prints a human-readable digest to w (stderr): one line per
// phase and per metric.
func (r *report) summarize(w io.Writer, path string) {
	fmt.Fprintf(w, "%s seed=%d traced=%v report=%s\n", r.Workload, r.Seed, r.Traced, path)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-18s rate=%7.1f sent=%6d ok=%6d failed=%4d p50=%8.3fms p99=%8.3fms late(q%.2f)=%6.3fms drain=%7.2fms valid=%v\n",
			p.Name, p.Rate, p.Sent, p.Succeeded, p.Failed, p.P50Ms, p.P99Ms, p.LateQ, p.LateMs, p.DrainMs, p.Valid)
	}
	for _, m := range []struct {
		tag string
		set map[string]metric
	}{{"", r.Metrics}, {" (ungated)", r.Ungated}} {
		names := make([]string, 0, len(m.set))
		for n := range m.set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %14.4f %s%s\n", n, m.set[n].Value, m.set[n].Unit, m.tag)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
}
