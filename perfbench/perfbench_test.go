package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// The self-test runs every workload at tinyScale: each run must pass its
// own checks and emit every named metric, a wrong reference digest must
// fail every operation, and the exact per-layer counts must repeat
// across two traced runs.

const testSeed = 3

// realTimeExact are the counts that repeat on the loopback workload,
// whose other counters depend on wall-clock timing.
var realTimeExact = map[string]bool{
	"splicer.segments": true,
	"player.startups":  true,
}

func tinyRun(t *testing.T, name string, traced bool, refs map[refKey]uint64) result {
	t.Helper()
	res, err := run(runConfig{workload: name, seed: testSeed, trace: traced, scale: tinyScale(), refs: refs}, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", name, traced, err)
	}
	return res
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := tinyRun(t, w.name, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEndDefs {
				mv, ok := res.Metrics[d.name]
				if !ok || mv.Unit != d.unit || !(mv.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", d.name, mv, ok, d.unit)
				}
			}
			if len(res.Metrics) != len(endToEndDefs) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(endToEndDefs))
			}

			wrong := map[refKey]uint64{{w.name, tinyScale().name, testSeed}: 0xbad}
			bad := tinyRun(t, w.name, false, wrong)
			if bad.Correct || bad.Attempted == 0 || bad.Failed != bad.Attempted {
				t.Errorf("wrong reference: correct=%v failed=%d attempted=%d, want fail_ratio 1", bad.Correct, bad.Failed, bad.Attempted)
			}

			a := tinyRun(t, w.name, true, nil)
			b := tinyRun(t, w.name, true, nil)
			for _, r := range []result{a, b} {
				if !r.Correct {
					t.Fatalf("traced run failed its checks: failed=%d attempted=%d", r.Failed, r.Attempted)
				}
				if len(r.Metrics) != len(perLayerDefs) {
					t.Errorf("traced run emitted %d metrics, want %d", len(r.Metrics), len(perLayerDefs))
				}
			}
			for _, d := range perLayerDefs {
				av, ok := a.Metrics[d.name]
				if !ok || av.Unit != d.unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", d.name, av, ok, d.unit)
					continue
				}
				exact := d.exact
				if w.name == "realstack-loopback" {
					exact = realTimeExact[d.name]
				}
				if exact && av.Value != b.Metrics[d.name].Value {
					t.Errorf("per-layer %s: %v then %v, want an exact repeat", d.name, av.Value, b.Metrics[d.name].Value)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	better := func(d metricDef) string {
		if d.lower {
			return "lower"
		}
		return "higher"
	}
	check := func(kind string, names, units, dirs []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || dirs[i] != better(d) {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
					kind, i, names[i], units[i], dirs[i], d.name, d.unit, better(d))
			}
		}
	}
	var n, u, b []string
	for _, m := range spec.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("end_to_end", n, u, b, endToEndDefs)
	n, u, b = nil, nil, nil
	for _, m := range spec.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", n, u, b, perLayerDefs)
}
