package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCLISmoke builds the rhsc binary once and drives each of its run
// modes for a few steps: a serial run writing a CSV profile, an AMR run
// at rk2 and at rk3, a 2-rank cluster run, a heterogeneous-device run and
// a scrub of an empty store. Every run must exit 0 and print its summary
// line.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rhsc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	spool := filepath.Join(dir, "spool")
	csv := filepath.Join(dir, "profile.csv")
	empty := t.TempDir()

	cases := []struct {
		name string
		args []string
		want string // substring of stdout
	}{
		{"serial", []string{"-problem", "sod", "-n", "64", "-tend", "0.02", "-threads", "1", "-out", csv}, "wrote " + csv},
		{"amr", []string{"-amr", "-problem", "sod", "-n", "64", "-maxlevel", "1", "-rootblocks", "4", "-tend", "0.01", "-threads", "1"}, "sod AMR"},
		{"amr-rk3", []string{"-amr", "-integrator", "rk3", "-problem", "sod", "-n", "64", "-maxlevel", "1", "-rootblocks", "4", "-tend", "0.01", "-threads", "1"}, "sod AMR"},
		{"cluster", []string{"-ranks", "2", "-problem", "sod", "-n", "64", "-steps", "3"}, "over 2 ranks"},
		{"devices", []string{"-devices", "cpu2,gpu", "-problem", "sod", "-n", "64", "-steps", "3"}, "on [cpu2,gpu]"},
		{"scrub", []string{"-verify", empty}, "0 checked, 0 bad"},
	}
	outs := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append(tc.args, "-spool", spool)...)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("rhsc %s: %v\n%s", strings.Join(tc.args, " "), err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("rhsc %s: output lacks %q:\n%s", strings.Join(tc.args, " "), tc.want, out)
			}
			outs[tc.name] = string(out)
		})
	}

	// The tree runs the integrator it is given: three sweeps a step
	// instead of two show in the zone-update count.
	updates := func(name string) int {
		m := regexp.MustCompile(`(\d+) zone-updates`).FindStringSubmatch(outs[name])
		if m == nil {
			t.Fatalf("%s: no zone-update count in %q", name, outs[name])
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if rk2, rk3 := updates("amr"), updates("amr-rk3"); rk3 <= rk2 {
		t.Errorf("-amr -integrator rk3 made %d zone updates, rk2 %d: the tree ignored its integrator", rk3, rk2)
	}

	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines < 2 {
		t.Fatalf("profile CSV has %d lines:\n%s", lines, b)
	}
}

// TestParseDevices holds -devices to the spellings the usage names: gpu,
// staged and cpu<N> with N ≥ 1 written without a sign.
func TestParseDevices(t *testing.T) {
	for _, bad := range []string{"cpu+3", "cpu", "cpu0", "tpu"} {
		if specs, err := parseDevices(bad); err == nil {
			t.Errorf("parseDevices(%q) = %v, want an error", bad, specs)
		}
	}
	specs, err := parseDevices("cpu2,gpu")
	if err != nil || len(specs) != 2 {
		t.Fatalf("parseDevices(%q) = %v, %v; want two devices", "cpu2,gpu", specs, err)
	}
}
