package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not runnable", w.Name)
		}
	}
	got := map[string]string{}
	for _, m := range b.EndToEnd {
		got[m.Name] = m.Unit
	}
	if len(got) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(got), len(endToEnd))
	}
	for n, u := range endToEnd {
		if got[n] != u {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", n, got[n], u)
		}
	}
	var names, want []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name+" "+m.Unit)
	}
	for _, n := range perLayerNames() {
		want = append(want, n+" "+perLayerUnit(n))
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("per-layer metric %q in BENCHMARK.json, %q in the program", names[i], want[i])
		}
	}
}
