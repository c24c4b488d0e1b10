// Heterocluster demonstrates the two scalability axes of the framework on
// one workload (the 2-D blast wave):
//
//  1. heterogeneous execution — CPU-only vs GPU-only vs CPU+GPU with
//     static and dynamic tile scheduling, in modelled (virtual) time; and
//  2. distributed execution — strong scaling over ranks with synchronous
//     vs overlapped (async) halo exchange on an InfiniBand-class virtual
//     network.
//
// Run with:
//
//	go run ./examples/heterocluster
package main

import (
	"fmt"
	"log"

	"rhsc"
)

func heteroDemo() {
	const n, steps = 192, 4
	type setup struct {
		name   string
		policy rhsc.SchedulePolicy
		specs  []rhsc.DeviceSpec
	}
	setups := []setup{
		{"cpu-8c", rhsc.StaticSchedule, []rhsc.DeviceSpec{rhsc.HostCPU(8)}},
		{"gpu", rhsc.StaticSchedule, []rhsc.DeviceSpec{rhsc.GPU()}},
		{"cpu+gpu static", rhsc.StaticSchedule, []rhsc.DeviceSpec{rhsc.HostCPU(8), rhsc.GPU()}},
		{"cpu+gpu dynamic", rhsc.DynamicSchedule, []rhsc.DeviceSpec{rhsc.HostCPU(8), rhsc.GPU()}},
		// A staged (PCIe-bound) GPU's effective speed is far below its
		// nominal one: the static split misjudges it, the dynamic queue
		// adapts.
		{"cpu+staged static", rhsc.StaticSchedule, []rhsc.DeviceSpec{rhsc.HostCPU(8), rhsc.StagedGPU()}},
		{"cpu+staged dynamic", rhsc.DynamicSchedule, []rhsc.DeviceSpec{rhsc.HostCPU(8), rhsc.StagedGPU()}},
	}
	fmt.Println("heterogeneous execution, 192^2 blast, 4 steps (virtual time):")
	var base float64
	for _, su := range setups {
		h, err := rhsc.NewHeteroSim(rhsc.Options{Problem: "blast2d", N: n}, su.policy, su.specs...)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := h.Step(); err != nil {
				log.Fatal(err)
			}
		}
		vt := h.VirtualSeconds()
		if base == 0 {
			base = vt
		}
		fmt.Printf("  %-19s %8.3f ms   speedup %.2fx\n", su.name, vt*1e3, base/vt)
	}
}

func clusterDemo() {
	const n, steps = 2048, 4
	fmt.Println("\ndistributed strong scaling, N=2048 Sod, 4 steps, IB network (virtual time):")
	fmt.Printf("  %5s  %12s  %12s  %8s\n", "ranks", "sync", "async", "async-eff")
	var t1 float64
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		syncRes, err := rhsc.RunCluster(rhsc.Options{Problem: "sod", N: n},
			rhsc.ClusterOptions{Ranks: ranks, Steps: steps, Network: "ib"})
		if err != nil {
			log.Fatal(err)
		}
		asyncRes, err := rhsc.RunCluster(rhsc.Options{Problem: "sod", N: n},
			rhsc.ClusterOptions{Ranks: ranks, Steps: steps, Network: "ib", Async: true})
		if err != nil {
			log.Fatal(err)
		}
		if ranks == 1 {
			t1 = asyncRes.VirtualTime
		}
		eff := 100 * t1 / (float64(ranks) * asyncRes.VirtualTime)
		fmt.Printf("  %5d  %10.3f ms %10.3f ms  %6.1f%%\n",
			ranks, syncRes.VirtualTime*1e3, asyncRes.VirtualTime*1e3, eff)
	}
}

func main() {
	heteroDemo()
	clusterDemo()
}
