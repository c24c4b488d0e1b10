package hetero

import "math"

// The three planners the placement loop replaced, kept verbatim from
// before Static, Dynamic and Routed became rows of one loop (only the
// router inputs are read through today's planWeights). They are the
// reference TestPlanRowsMatchReference holds the loop to.

// refHealthy returns the schedulable device indices: every device not
// fail-stopped, or all of them if none survives.
func refHealthy(ex *Executor) []int {
	out := make([]int, 0, len(ex.Devices))
	for i := range ex.Devices {
		if !ex.router.Dead(i) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		for i := range ex.Devices {
			out = append(out, i)
		}
	}
	return out
}

// refStaticPlan splits [0, nTiles) proportionally to raw ZoneRate: one
// kernel per healthy device.
func refStaticPlan(ex *Executor, nTiles int) []assignment {
	devs := refHealthy(ex)
	total := 0.0
	for _, i := range devs {
		total += ex.Devices[i].Spec.ZoneRate
	}
	plan := make([]assignment, 0, len(devs))
	lo := 0
	acc := 0.0
	for n, i := range devs {
		acc += ex.Devices[i].Spec.ZoneRate
		hi := int(math.Round(float64(nTiles) * acc / total))
		if n == len(devs)-1 {
			hi = nTiles
		}
		if hi > lo {
			plan = append(plan, assignment{dev: i, lo: lo, hi: hi})
		}
		lo = hi
	}
	return plan
}

// refListSchedule is the earliest-finish list scheduler.
func refListSchedule(ex *Executor, plan []assignment, eta []float64, devs []int,
	lo, hi, chunk int, tc tileCost) []assignment {

	for ; lo < hi; lo += chunk {
		end := min(lo+chunk, hi)
		best, bestT := devs[0], math.Inf(1)
		for _, i := range devs {
			if t := eta[i] + tc.marginal(ex.Devices[i], lo, end); t < bestT {
				best, bestT = i, t
			}
		}
		eta[best] = bestT
		plan = append(plan, assignment{dev: best, lo: lo, hi: end})
	}
	return plan
}

// refDynamicPlan models a work queue over the healthy devices.
func refDynamicPlan(ex *Executor, plan []assignment, lo, nTiles int, tc tileCost) []assignment {
	devs := refHealthy(ex)
	chunk := max(1, nTiles/(8*len(devs)))
	return refListSchedule(ex, plan, make([]float64, len(ex.Devices)), devs, lo, nTiles, chunk, tc)
}

// refRoutedPlan is the health-scored placement.
func refRoutedPlan(ex *Executor, nTiles int, tc tileCost, prev []int) []assignment {
	weights := make([]float64, len(ex.Devices))
	perZone := make([]float64, len(ex.Devices))
	probes := ex.router.planWeights(weights, perZone, nil)

	var plan []assignment
	lo := 0
	probeTiles := 1
	for _, pi := range probes {
		if lo >= nTiles {
			break
		}
		hi := min(lo+probeTiles, nTiles)
		plan = append(plan, assignment{dev: pi, lo: lo, hi: hi})
		lo = hi
	}

	var elig []int
	totalW := 0.0
	for i, w := range weights {
		if w > 0 {
			elig = append(elig, i)
			totalW += w
		}
	}
	if lo >= nTiles {
		return plan
	}
	if len(elig) == 0 {
		return refDynamicPlan(ex, plan, lo, nTiles, tc)
	}

	eta := make([]float64, len(ex.Devices))
	kerns := make([]int, len(ex.Devices))
	for lo < nTiles {
		best, bestHi := -1, 0
		bestScore, bestCost := math.Inf(1), 0.0
		for _, i := range elig {
			dev := ex.Devices[i]
			chunk := max(1, int(float64(nTiles)*weights[i]/totalW/4+0.5))
			hi := min(lo+chunk, nTiles)
			zones := tc.zones(lo, hi)
			cost := dev.Spec.LaunchLatency + float64(zones*tc.ndim)*perZone[i]
			if dev.Staged() {
				xfer := float64(tileBytes(zones)) / dev.Spec.TransferBW
				switch {
				case prev != nil && prev[lo] == i:
					// Working set still resident from the last phase.
				case prev != nil && prev[lo] >= 0 &&
					ex.Devices[prev[lo]].Spec.Domain == dev.Spec.Domain:
					cost += 0.5 * xfer // near handoff inside the domain
				default:
					cost += xfer
				}
			} else if prev != nil && prev[lo] == i {
				cost *= 0.98 // cache-warm affinity nudge
			}
			score := eta[i] + cost + float64(kerns[i])*dev.Spec.LaunchLatency
			if score < bestScore {
				best, bestHi, bestScore, bestCost = i, hi, score, cost
			}
		}
		plan = append(plan, assignment{dev: best, lo: lo, hi: bestHi})
		eta[best] += bestCost
		kerns[best]++
		lo = bestHi
	}
	return plan
}

// refRerouteDead re-places every kernel planned on a device in dead
// whole, by list scheduling onto the survivors on top of what they hold.
func refRerouteDead(ex *Executor, plan []assignment, dead []bool, tc tileCost) []assignment {
	live := refHealthy(ex)
	eta := make([]float64, len(ex.Devices))
	out := make([]assignment, 0, len(plan))
	for _, a := range plan {
		if !dead[a.dev] {
			out = append(out, a)
			eta[a.dev] += tc.marginal(ex.Devices[a.dev], a.lo, a.hi)
			continue
		}
		out = refListSchedule(ex, out, eta, live, a.lo, a.hi, a.hi-a.lo, tc)
	}
	return out
}
