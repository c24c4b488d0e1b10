package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostInfo is the metadata a ledger carries so that numbers taken on
// different machines are never compared by accident.
type hostInfo struct {
	NumCPU     int    `json:"numcpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	LLC        string `json:"llc"`
	Commit     string `json:"commit"`
}

func nproc() int { return runtime.NumCPU() }

func host() hostInfo {
	return hostInfo{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		LLC: llcSize(), Commit: commit(),
	}
}

// llcSize reads the size of the highest-level cache Linux reports for
// cpu0, "unknown" elsewhere.
func llcSize() string {
	best := "unknown"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	level := ""
	for _, d := range dirs {
		l, err1 := os.ReadFile(filepath.Join(d, "level"))
		s, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if lv := strings.TrimSpace(string(l)); lv > level {
			level, best = lv, strings.TrimSpace(string(s))
		}
	}
	return best
}

// commit asks git for the checked-out revision; a checkout that is not a
// repository has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// stealMeter reads how much CPU time the hypervisor took from this guest:
// on a shared VM that, not the program, explains most slow runs, so every
// timed section says how much of it there was.
type stealMeter struct {
	t0    time.Time
	steal int64
}

// stolenTicks is the steal column of /proc/stat's first line, in 1/100 s
// summed over CPUs; -1 where there is no such file.
func stolenTicks() int64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	f := strings.Fields(strings.SplitN(string(blob), "\n", 2)[0])
	var v int64
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	if _, err := fmt.Sscan(f[8], &v); err != nil {
		return -1
	}
	return v
}

func startStealMeter() stealMeter { return stealMeter{time.Now(), stolenTicks()} }

// note renders the stolen share of all CPUs' time since the meter started.
func (m stealMeter) note() string {
	now := stolenTicks()
	if m.steal < 0 || now < 0 {
		return ""
	}
	share := float64(now-m.steal) / 100 / (time.Since(m.t0).Seconds() * float64(runtime.NumCPU()))
	return fmt.Sprintf(", host stole %.1f%% of CPU time", 100*share)
}
