package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step: known workloads, same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	if len(spec.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(e2eUnits))
	}
	for _, m := range spec.EndToEnd {
		if u, ok := e2eUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s [%s]: program has unit %q (present %v)", m.Name, m.Unit, u, ok)
		}
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program prints %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in program", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}

// TestMontageReplayMatchesGenerator checks the replayed DAG reads exactly
// the bytes workflow.Montage gives each task.
func TestMontageReplayMatchesGenerator(t *testing.T) {
	stages, err := montageStages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 9 {
		t.Fatalf("%d stages, want 9", len(stages))
	}
}
