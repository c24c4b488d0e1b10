package main

import (
	"fmt"

	"rhsc/internal/core"
	"rhsc/internal/hetero"
	"rhsc/internal/metrics"
	"rhsc/internal/testprob"
)

// heteroRun advances the 2-D blast a few steps on the given devices and
// returns the executor (for clocks and load reports).
func heteroRun(n, steps int, pol hetero.Policy, specs ...hetero.Spec) (*hetero.Executor, error) {
	p := testprob.Blast2D
	g := p.NewGrid(n, 2)
	cfg := core.DefaultConfig()
	s, err := core.New(g, cfg)
	if err != nil {
		return nil, err
	}
	devs := make([]*hetero.Device, len(specs))
	for i, sp := range specs {
		d, err := hetero.NewDevice(sp)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	ex, err := hetero.NewExecutor(pol, devs...)
	if err != nil {
		return nil, err
	}
	ex.Attach(s)
	s.InitFromPrim(p.Init)
	for i := 0; i < steps; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// table4 is E7: per-device throughput across grid sizes, including the
// staged (PCIe-bound) accelerator, exposing the CPU/GPU crossover.
func (s *suite) table4() error {
	sizes := []int{32, 64, 128, 256}
	steps := 2
	if s.quick {
		sizes = []int{32, 64, 128}
	}
	devices := []struct {
		label string
		spec  hetero.Spec
	}{
		{"cpu-8c", hetero.SpecHostCPU(8)},
		{"gpu-resident", hetero.SpecK20GPU()},
		{"gpu-staged", hetero.SpecK20GPUStaged()},
	}
	tb := metrics.NewTable("Table 4: device throughput on the 2-D blast (virtual)",
		"grid", "device", "step(ms)", "Mzups")
	var csvN, csvCPU, csvGPU, csvStaged []float64
	for _, n := range sizes {
		var row [3]float64
		for di, d := range devices {
			ex, err := heteroRun(n, steps, hetero.Static, d.spec)
			if err != nil {
				return err
			}
			vt := ex.VirtualTime()
			// The device is charged n^2 zones x 2 dims x 2 stages x steps
			// zone-sweeps and the executor clock covers sweeps only; report
			// effective throughput over those zone-sweeps.
			zones := float64(ex.Devices[0].Zones())
			mz := zones / vt / 1e6
			tb.AddRow(fmt.Sprintf("%d^2", n), d.label, vt*1e3/float64(steps), mz)
			row[di] = mz
		}
		csvN = append(csvN, float64(n))
		csvCPU = append(csvCPU, row[0])
		csvGPU = append(csvGPU, row[1])
		csvStaged = append(csvStaged, row[2])
	}
	fmt.Print(tb.String())
	fmt.Println("  expected shape: the resident GPU loses below the launch-bound")
	fmt.Println("  crossover and approaches its 100 Mz/s plateau above it; the staged")
	fmt.Println("  GPU saturates at the link-bound rate (~60 Mz/s in 2-D: a tile's")
	fmt.Println("  working set crosses PCIe once for both directions).")
	s.writeCSV("table4_device_throughput.csv",
		[]string{"n", "cpu_mzups", "gpu_mzups", "staged_mzups"},
		csvN, csvCPU, csvGPU, csvStaged)
	return nil
}

// fig6 is E8: heterogeneous speedup and load balance across device mixes
// and scheduling policies.
func (s *suite) fig6() error {
	n := 192
	steps := 3
	if s.quick {
		n, steps = 96, 2
	}
	slowLink := hetero.SpecK20GPUStaged()
	slowLink.TransferBW = 3e9

	setups := []struct {
		label string
		pol   hetero.Policy
		specs []hetero.Spec
	}{
		{"cpu-8c", hetero.Static, []hetero.Spec{hetero.SpecHostCPU(8)}},
		{"gpu", hetero.Static, []hetero.Spec{hetero.SpecK20GPU()}},
		{"cpu+gpu/static", hetero.Static, []hetero.Spec{hetero.SpecHostCPU(8), hetero.SpecK20GPU()}},
		{"cpu+gpu/dynamic", hetero.Dynamic, []hetero.Spec{hetero.SpecHostCPU(8), hetero.SpecK20GPU()}},
		{"cpu+staged/static", hetero.Static, []hetero.Spec{hetero.SpecHostCPU(8), slowLink}},
		{"cpu+staged/dynamic", hetero.Dynamic, []hetero.Spec{hetero.SpecHostCPU(8), slowLink}},
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Fig 6: heterogeneous speedup, %d^2 blast, %d steps (virtual)", n, steps),
		"setup", "time(ms)", "speedup", "imbalance", "gpu-share%")
	var base float64
	for _, su := range setups {
		ex, err := heteroRun(n, steps, su.pol, su.specs...)
		if err != nil {
			return err
		}
		vt := ex.VirtualTime()
		if base == 0 {
			base = vt
		}
		gpuShare := 0.0
		for _, r := range ex.Report() {
			if r.Kind == hetero.GPU {
				gpuShare = 100 * r.Share
			}
		}
		tb.AddRow(su.label, vt*1e3, base/vt, ex.Imbalance(), gpuShare)
	}
	fmt.Print(tb.String())
	fmt.Println("  expected shape: CPU+GPU beats either device alone; the dynamic")
	fmt.Println("  queue matters when nominal and effective device speeds diverge")
	fmt.Println("  (staged link), and costs launch overhead when they do not.")
	return nil
}
