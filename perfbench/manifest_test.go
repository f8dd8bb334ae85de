package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesLayerNames keeps BENCHMARK.json's per-layer list
// and the names a traced run prints in step.
func TestManifestMatchesLayerNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var m struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range m.PerLayer {
		seen[l.Name] = true
		if unit, ok := layerNames[l.Name]; !ok || unit != l.Unit {
			t.Errorf("BENCHMARK.json per_layer %s (%s): the benchmark prints unit %q", l.Name, l.Unit, unit)
		}
	}
	for name := range layerNames {
		if !seen[name] {
			t.Errorf("per-layer metric %s is missing from BENCHMARK.json", name)
		}
	}
	for _, name := range shareNames {
		if _, ok := layerNames[name]; !ok {
			t.Errorf("profile bucket %s is not a declared per-layer metric", name)
		}
	}
}
