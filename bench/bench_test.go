package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Every workload, both passes, at toy sizes: each metric the registry
// defines on the workload is emitted exactly once, finite and with a unit,
// the outputs verify, and the contract line carries exactly the names
// BENCHMARK.json lists for that pass.
func TestWorkloadsQuick(t *testing.T) {
	contract := readContract(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/plain"
			if trace {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				r, err := runWorkload(runConfig{Workload: wl.Name, Seed: 7, Seconds: 1, Trace: trace, Quick: true, OutDir: dir})
				if err != nil {
					t.Fatal(err) // runWorkload ends in result.check: missing, duplicate, non-finite
				}
				if !r.correct() || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, incorrect %v", r.Attempted, r.Failed, r.Incorrect)
				}
				for _, m := range wanted(wl.Name, trace) {
					if m.Unit == "" {
						t.Errorf("%s has no unit", m.Name)
					}
				}
				for name := range r.Values {
					if d, _ := defOf(name); !d.appliesTo(wl.Name) {
						t.Errorf("%s emitted on a workload it is not defined on", name)
					}
				}
				want := contract.PerLayer
				if !trace {
					want = contract.EndToEnd
				}
				got := contractMetrics(r)
				if len(got) != len(want) {
					t.Errorf("contract line has %d metrics, BENCHMARK.json lists %d", len(got), len(want))
				}
				for _, m := range want {
					pm, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("contract line lacks %s", m.Name)
					case pm.Unit != m.Unit:
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", m.Name, pm.Unit, m.Unit)
					case math.IsNaN(pm.Value) || math.IsInf(pm.Value, 0):
						t.Errorf("%s = %v", m.Name, pm.Value)
					case !trace && pm.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				if trace {
					if _, err := os.Stat(dir + "/trace-" + wl.Name + ".json"); err != nil {
						t.Errorf("no trace flushed: %v", err)
					}
				}
				left, _ := os.ReadDir(dir)
				for _, e := range left {
					if !strings.HasPrefix(e.Name(), "trace-") {
						t.Errorf("scratch %s left behind", e.Name())
					}
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload(runConfig{Workload: "nope", Quick: true, OutDir: t.TempDir()}); err == nil {
		t.Error("unknown workload accepted")
	}
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json is the registry seen through the contract: the metrics
// defined on every workload are its end_to_end list, all others its
// per_layer list, and names, units, directions and bounds agree.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	c := readContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, registry has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q differs from the registry's %q", i, w.Name, workloads[i].Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the contract's limits (why is %d characters)", w.Name, len(w.Why))
		}
	}
	var e2e, layers []metricDef
	for _, m := range metricDefs {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q breaks the contract's limits", m.Name, m.Unit)
		}
		if m.Contract {
			e2e = append(e2e, m)
			if len(m.On) != len(workloads) {
				t.Errorf("%s is a contract end-to-end metric but not defined on every workload", m.Name)
			}
		} else {
			layers = append(layers, m)
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, registry has %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: %+v differs from registry %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded && (g.Bound != w.Bound || g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v, registry %v, contract allows (0, 0.25]", g.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			}
		}
	}
	same("end_to_end", c.EndToEnd, e2e, true)
	same("per_layer", c.PerLayer, layers, false)
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics are outside the contract's limits", len(c.EndToEnd), len(c.PerLayer))
	}
	setup, _ := defOf("setup_s")
	for _, m := range e2e {
		if m.Bound > setup.Bound {
			t.Errorf("%s is bounded wider than setup_s", m.Name)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", c.RunSeconds, c.Paths)
	}
}

// The README is the glossary: it names every metric and every workload.
func TestReadmeNamesEveryMetric(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, m := range metricDefs {
		if !strings.Contains(text, "`"+m.Name+"`") {
			t.Errorf("README.md does not explain %s", m.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(text, "`"+w.Name+"`") {
			t.Errorf("README.md does not explain workload %s", w.Name)
		}
	}
}
