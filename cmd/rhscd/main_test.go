package main

import (
	"strings"
	"testing"

	"rhsc/internal/serve"
)

func TestParseQuotas(t *testing.T) {
	good := []struct {
		in   string
		want map[string]serve.Quota
	}{
		{"", nil},
		{"alice=4:1e9", map[string]serve.Quota{"alice": {MaxActive: 4, Budget: 1e9}}},
		{"alice=4:1e9, bob=0:0", map[string]serve.Quota{
			"alice": {MaxActive: 4, Budget: 1e9},
			"bob":   {},
		}},
		{"big=1:9223372036854774784", map[string]serve.Quota{"big": {MaxActive: 1, Budget: 9223372036854774784}}},
	}
	for _, tc := range good {
		got, err := parseQuotas(tc.in)
		if err != nil {
			t.Errorf("parseQuotas(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseQuotas(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for name, q := range tc.want {
			if got[name] != q {
				t.Errorf("parseQuotas(%q)[%q] = %+v, want %+v", tc.in, name, got[name], q)
			}
		}
	}

	bad := []struct{ in, why string }{
		{"alice", "bad quota"},
		{"alice=4", "bad quota"},
		{"=4:1e9", "bad quota"},
		{" =4:1e9", "bad quota"},
		{"alice=x:1", "bad maxactive"},
		{"alice=-1:1e9", "bad maxactive"},
		{"alice=4:x", "bad budget"},
		{"alice=4:-1", "bad budget"},
		{"alice=4:NaN", "bad budget"},
		{"alice=4:Inf", "bad budget"},
		{"alice=4:-Inf", "bad budget"},
		{"alice=4:1e30", "bad budget"},
		{"alice=4:9223372036854775808", "bad budget"},
		{"alice=4:2.5", "bad budget"},
		{"alice=4:1e9,=1:1", "bad quota"},
	}
	for _, tc := range bad {
		if _, err := parseQuotas(tc.in); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("parseQuotas(%q) = %v, want a %q error", tc.in, err, tc.why)
		}
	}
}
