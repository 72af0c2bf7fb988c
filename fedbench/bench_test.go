package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestTracedRunKeepsTrajectory pins that tracing observes without
// steering: on a shrunken copy of each workload, the untraced run, the
// traced run and the resume from the traced run's checkpoint end on the
// same digest, and every per-layer metric is reported.
func TestTracedRunKeepsTrajectory(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := map[string]float64{}
			if _, failures := traced(w.shrunk(), 1, out); len(failures) > 0 {
				t.Fatal(failures)
			}
			for name := range perLayer {
				if _, ok := out[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
		})
	}
}

func TestUntracedReportsEveryMetric(t *testing.T) {
	out := map[string]float64{}
	if _, failures := untraced(paperCNN.shrunk(), 1, time.Nanosecond, out); len(failures) > 0 {
		t.Fatal(failures)
	}
	for name := range endToEnd {
		if _, ok := out[name]; !ok {
			t.Errorf("end-to-end metric %s missing", name)
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics, with the units, the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, e := range b.Workloads {
		if _, err := lookup(e.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		declared []entry
		reported map[string]string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program reports %d", len(c.declared), len(c.reported))
		}
		for _, e := range c.declared {
			if u, ok := c.reported[e.Name]; !ok || u != e.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q (reported %t)", e.Name, e.Unit, u, ok)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	children := union([]span{{start: 5, end: 15}, {start: 10, end: 20}, {start: 30, end: 40}, {start: 45, end: 60}})
	if len(children) != 3 {
		t.Fatalf("union: %v", children)
	}
	windows := []span{{start: 0, end: 12}, {start: 18, end: 50}}
	// [5,12) in the first window; [18,20), [30,40), [45,50) in the second.
	if got := covered(windows, children); got != 7+2+10+5 {
		t.Errorf("covered = %d, want 24", got)
	}
}
