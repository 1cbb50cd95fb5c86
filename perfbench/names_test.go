package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]metricDef{errorRateDef}, e2eDefs...), layerDefs...)
	for _, d := range all {
		if !validName(d.Name) {
			t.Errorf("invalid metric name %q", d.Name)
		}
		if !validUnit(d.Unit) {
			t.Errorf("metric %s: invalid unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, bad := range []string{"", "-lead", "has space", "µs", "a/b", "x" + string(make([]byte, 64))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// benchmark's in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, perfbench %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eDefs)
	same("per_layer", spec.PerLayer, layerDefs)
	if len(spec.Workloads) != len(gatedWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench gates %d", len(spec.Workloads), len(gatedWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, gatedWorkloads[i])
		}
	}
}
