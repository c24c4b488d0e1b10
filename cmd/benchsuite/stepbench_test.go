package main

import (
	"strings"
	"testing"
)

func TestStepGate(t *testing.T) {
	row := func(name string, ns float64) stepConfig { return stepConfig{Name: name, NsPerZone: ns} }
	base := &stepBenchReport{Configs: []stepConfig{row("a", 1000), row("b", 500)}}
	cases := []struct {
		name    string
		run     []stepConfig
		wantErr string // substring of the failure; empty = gate passes
	}{
		{"matching", []stepConfig{row("a", 1100), row("b", 400)}, ""},
		{"regressed", []stepConfig{row("a", 1200), row("b", 500)}, "a: 1200 ns/zone vs baseline 1000"},
		{"row missing from run", []stepConfig{row("a", 1000)}, "b: in the baseline but not measured"},
		{"nothing matched", []stepConfig{row("c", 1), row("d", 1)}, "no measured config matches"},
		{"new row without baseline", []stepConfig{row("a", 1000), row("b", 500), row("c", 9e9)}, ""},
		{"serial row allocates", []stepConfig{row("a", 1000),
			{Name: "b", NsPerZone: 500, AllocsPerStep: 2}}, "b: 2 allocs/step"},
		{"pool row may allocate", []stepConfig{row("a", 1000),
			{Name: "b", NsPerZone: 500, AllocsPerStep: 23, Workers: 2}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := stepGate(&stepBenchReport{Configs: tc.run}, base)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want failure containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate failed with %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
