// Package hetero models heterogeneous execution of the HRSC solver:
// accelerator devices, host CPUs, kernel launch and PCIe-style transfer
// costs, and the scheduling of the solver's pencil tiles across a mixed
// device set: one placement loop whose rows are the static split, the
// work queue and the health-scored router (see executor.go, router.go
// and docs/HETERO.md).
//
// Substitution note (see DESIGN.md): pure Go cannot drive real GPUs, so a
// device executes its kernels on host goroutines for *correctness* while a
// deterministic virtual clock accounts its *performance* from a calibrated
// spec (zone throughput, launch latency, transfer latency/bandwidth). The
// heterogeneous experiments (E7, E8, E17) are statements about those
// ratios — where the CPU/GPU crossover sits, how much a dynamic work queue
// recovers on mismatched devices, how fast the router walls off a sick
// device — and the virtual clock reproduces exactly those shapes.
package hetero

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"rhsc/internal/state"
)

// Kind distinguishes host CPUs from accelerator devices (which pay
// transfer costs).
type Kind int

// Device kinds.
const (
	CPU Kind = iota
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == CPU {
		return "cpu"
	}
	return "gpu"
}

// Spec is the calibrated performance model of one device.
type Spec struct {
	Name string
	Kind Kind
	// ZoneRate is the sustained throughput of the HRSC flux kernel in
	// zone-sweeps (one zone updated along one direction) per virtual
	// second.
	ZoneRate float64
	// LaunchLatency is the fixed virtual cost of launching one kernel
	// (one tile-range dispatch).
	LaunchLatency float64
	// TransferLatency and TransferBW model the host↔device copy of a
	// kernel's working set (zero-cost for host CPUs).
	TransferLatency float64
	TransferBW      float64 // bytes per virtual second
	// Resident marks an accelerator whose field data lives on the device
	// for the whole run: kernels pay no per-launch PCIe traffic. A staged
	// (non-resident) accelerator copies its working set in and out on
	// every kernel — the naive offload pattern the paper's evaluation
	// contrasts against.
	Resident bool
	// Domain names the interconnect locality domain the device hangs off
	// (a PCIe root complex, a NUMA node). Devices sharing a domain are
	// "near" each other: the router's affinity term discounts working-set
	// handoffs inside a domain. Empty means the host domain.
	Domain string
	// Workers is the real host parallelism used to execute the device's
	// kernels (correctness path).
	Workers int
}

// ErrBadSpec is the sentinel every Spec validation failure unwraps to.
var ErrBadSpec = errors.New("hetero: invalid device spec")

// SpecError reports which field of which device's spec was rejected and
// why; it unwraps to ErrBadSpec.
type SpecError struct {
	Name   string  // device name (may be empty)
	Field  string  // offending Spec field
	Value  float64 // offending value
	Reason string
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("hetero: device %q: %s = %g %s", e.Name, e.Field, e.Value, e.Reason)
}

// Unwrap lets errors.Is(err, ErrBadSpec) classify validation failures.
func (e *SpecError) Unwrap() error { return ErrBadSpec }

// Validate rejects a spec that would poison downstream cost arithmetic
// with NaN/Inf (zero or negative throughput, bandwidth, or core counts)
// before a device is ever built from it.
func (s Spec) Validate() error {
	bad := func(field string, v float64, reason string) error {
		return &SpecError{Name: s.Name, Field: field, Value: v, Reason: reason}
	}
	if s.ZoneRate <= 0 || math.IsNaN(s.ZoneRate) || math.IsInf(s.ZoneRate, 0) {
		return bad("ZoneRate", s.ZoneRate, "must be positive and finite")
	}
	if s.LaunchLatency < 0 || math.IsNaN(s.LaunchLatency) || math.IsInf(s.LaunchLatency, 0) {
		return bad("LaunchLatency", s.LaunchLatency, "must be non-negative and finite")
	}
	if s.Workers <= 0 {
		return bad("Workers", float64(s.Workers), "must be a positive core count")
	}
	if s.Kind == GPU && !s.Resident {
		// Only staged accelerators divide by the link bandwidth.
		if s.TransferBW <= 0 || math.IsNaN(s.TransferBW) || math.IsInf(s.TransferBW, 0) {
			return bad("TransferBW", s.TransferBW, "must be positive and finite for a staged accelerator")
		}
	}
	if s.TransferLatency < 0 || math.IsNaN(s.TransferLatency) || math.IsInf(s.TransferLatency, 0) {
		return bad("TransferLatency", s.TransferLatency, "must be non-negative and finite")
	}
	return nil
}

// Fingerprint is the compute fingerprint a device advertises to the
// router: its throughput relative to a reference host core, its link
// characteristics, and its interconnect locality. The router plans with
// fingerprints and *corrects* them with observed health (router.go).
type Fingerprint struct {
	// ThroughputX is the device's nominal zone rate in units of one
	// reference host core (4 Mzones/s, see SpecHostCPU).
	ThroughputX float64 `json:"throughput_x"`
	// LinkLatency/LinkBW describe the staging link; zero for devices
	// that never stage.
	LinkLatency float64 `json:"link_latency,omitempty"`
	LinkBW      float64 `json:"link_bw,omitempty"`
	// Domain is the interconnect locality domain (Spec.Domain).
	Domain string `json:"domain,omitempty"`
	// Staged marks a device that pays per-kernel working-set traffic.
	Staged bool `json:"staged,omitempty"`
}

// refCoreRate is the fingerprint reference: one 2015-era host core.
const refCoreRate = 4e6

// Fingerprint derives the spec's compute fingerprint.
func (s Spec) Fingerprint() Fingerprint {
	fp := Fingerprint{
		ThroughputX: s.ZoneRate / refCoreRate,
		Domain:      s.Domain,
		Staged:      s.Kind == GPU && !s.Resident,
	}
	if fp.Staged {
		fp.LinkLatency = s.TransferLatency
		fp.LinkBW = s.TransferBW
	}
	return fp
}

// SpecHostCPU returns a 2015-era multicore host socket: ~4 Mzones/s per
// core for the PLM+HLLC kernel, negligible launch cost, no transfers.
func SpecHostCPU(cores int) Spec {
	if cores < 1 {
		cores = 1
	}
	return Spec{
		Name:          fmt.Sprintf("host-cpu-%dc", cores),
		Kind:          CPU,
		ZoneRate:      refCoreRate * float64(cores),
		LaunchLatency: 5e-7,
		Domain:        "host",
		Workers:       cores,
	}
}

// SpecK20GPU returns a Kepler-class accelerator with device-resident
// fields: ~25× a single host core on the flux kernel and 15 µs kernel
// launches; no per-kernel PCIe traffic.
func SpecK20GPU() Spec {
	return Spec{
		Name:            "k20-gpu",
		Kind:            GPU,
		ZoneRate:        100e6,
		LaunchLatency:   15e-6,
		TransferLatency: 10e-6,
		TransferBW:      6e9,
		Resident:        true,
		Domain:          "pcie0",
		Workers:         4,
	}
}

// SpecXeonPhi returns a Knights-Corner-class coprocessor: wide but slow
// cores give ~1.5× a host socket on this kernel, with modest launch
// overhead; fields are device-resident like the GPU path.
func SpecXeonPhi() Spec {
	return Spec{
		Name:            "xeon-phi",
		Kind:            GPU, // scheduled as an accelerator
		ZoneRate:        48e6,
		LaunchLatency:   5e-6,
		TransferLatency: 10e-6,
		TransferBW:      6e9,
		Resident:        true,
		Domain:          "pcie1",
		Workers:         4,
	}
}

// SpecK20GPUStaged returns the same accelerator in the naive offload
// configuration: every kernel stages its working set across a 6 GB/s
// PCIe-2-era link, capping effective throughput near the link bandwidth.
func SpecK20GPUStaged() Spec {
	s := SpecK20GPU()
	s.Name = "k20-gpu-staged"
	s.Resident = false
	return s
}

// Device is a schedulable device instance with its virtual clock.
type Device struct {
	Spec Spec

	mu    sync.Mutex
	busy  float64 // accumulated virtual busy seconds
	zones int64   // zone-sweeps charged (load-balance accounting)
	kerns int64   // kernels launched
	slow  float64 // chaos latency multiplier (1 = nominal); see chaos.go
}

// NewDevice wraps a spec, rejecting (with a *SpecError wrapping
// ErrBadSpec) one whose zero/negative throughput, bandwidth, or core
// count would surface as NaN/Inf costs downstream. For compatibility a
// zero Workers count is defaulted to 1 before validation; negative
// counts are rejected.
func NewDevice(s Spec) (*Device, error) {
	if s.Workers == 0 {
		s.Workers = 1
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Device{Spec: s, slow: 1}, nil
}

// Staged reports whether the device copies its working set over the link
// (a non-resident accelerator).
func (d *Device) Staged() bool { return d.Spec.Kind == GPU && !d.Spec.Resident }

// KernelCost returns the *nominal* virtual cost of launching and
// computing one kernel of the given zone-sweeps (no transfer: DMA is
// streamed and accounted per phase, see TransferCost). Planners
// use this estimate; the clock charge additionally pays any chaos
// latency multiplier, which only observation can reveal.
func (d *Device) KernelCost(zones int) float64 {
	return d.Spec.LaunchLatency + float64(zones)/d.Spec.ZoneRate
}

// TransferCost returns the virtual cost of staging bytes across the link
// once: a latency pair plus bandwidth time. Zero for host CPUs and
// resident accelerators.
func (d *Device) TransferCost(bytes int) float64 {
	if !d.Staged() || bytes <= 0 {
		return 0
	}
	return 2*d.Spec.TransferLatency + float64(bytes)/d.Spec.TransferBW
}

// MarginalCost estimates the incremental virtual cost of adding a tile
// kernel — the given zones, each swept along ndim directions — to this
// device within one phase: launch + compute + (staged) the bandwidth
// share of its working set, which crosses the link once for all
// directions. The per-phase transfer latency is amortised and excluded.
// Nominal plan rows price kernels with this estimate; the routed row
// replaces the nominal compute term with the router's observed one.
func (d *Device) MarginalCost(zones, ndim int) float64 {
	c := d.KernelCost(zones * ndim)
	if d.Staged() {
		c += float64(tileBytes(zones)) / d.Spec.TransferBW
	}
	return c
}

// SetSlowdown installs a latency multiplier on the device's clock: every
// subsequent kernel charge costs slow× its nominal time. The chaos
// harness uses it for latency-spike and flapping-health injection; a
// multiplier ≤ 0 or NaN resets to 1.
func (d *Device) SetSlowdown(slow float64) {
	if !(slow > 0) || math.IsInf(slow, 0) {
		slow = 1
	}
	d.mu.Lock()
	d.slow = slow
	d.mu.Unlock()
}

// Slowdown returns the current chaos latency multiplier.
func (d *Device) Slowdown() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slow
}

// Charge adds a completed kernel (launch + compute) to the device's clock.
func (d *Device) Charge(zones int) float64 {
	c, _, _ := d.chargeInterval(zones)
	return c
}

// chargeInterval charges a kernel and returns its cost and the [start,
// end) interval on the device's virtual timeline. The chaos slowdown
// multiplier inflates the charged (observed) cost — planners keep seeing
// nominal costs, exactly like a real straggler.
func (d *Device) chargeInterval(zones int) (cost, start, end float64) {
	cost = d.KernelCost(zones)
	d.mu.Lock()
	cost *= d.slow
	start = d.busy
	d.busy += cost
	end = d.busy
	d.zones += int64(zones)
	d.kerns++
	d.mu.Unlock()
	return cost, start, end
}

// ChargeTransfer adds one staged transfer of bytes to the device's clock
// and returns its cost.
func (d *Device) ChargeTransfer(bytes int) float64 {
	c := d.TransferCost(bytes)
	if c == 0 {
		return 0
	}
	d.mu.Lock()
	d.busy += c
	d.mu.Unlock()
	return c
}

// Busy returns the accumulated virtual busy time.
func (d *Device) Busy() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busy
}

// Zones returns total zones processed.
func (d *Device) Zones() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.zones
}

// Kernels returns the number of kernels launched.
func (d *Device) Kernels() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kerns
}

// Reset clears the clock, counters, and any chaos slowdown.
func (d *Device) Reset() {
	d.mu.Lock()
	d.busy, d.zones, d.kerns = 0, 0, 0
	d.slow = 1
	d.mu.Unlock()
}

// tileBytes estimates the working set of a tile range owning the given
// zones: primitives in, RHS out, NComp doubles each way.
func tileBytes(zones int) int { return zones * state.NComp * 8 * 2 }

// ParseFleet builds a device set from a comma-separated preset list, the
// wire format of rhscd's -fleet flag. Presets: "cpuN" (an N-core host
// socket), "k20" (resident Kepler GPU), "k20-staged" (PCIe-staged GPU),
// "phi" (Knights-Corner coprocessor).
func ParseFleet(list string) ([]*Device, error) {
	var devs []*Device
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var sp Spec
		switch {
		case name == "k20":
			sp = SpecK20GPU()
		case name == "k20-staged":
			sp = SpecK20GPUStaged()
		case name == "phi":
			sp = SpecXeonPhi()
		case strings.HasPrefix(name, "cpu") && len(name) > 3:
			// Atoi alone would take a sign: "cpu+3" is not a preset.
			cores, err := strconv.Atoi(name[3:])
			if err != nil || cores < 1 || name[3] == '+' {
				return nil, fmt.Errorf("hetero: bad fleet preset %q (want cpuN)", name)
			}
			sp = SpecHostCPU(cores)
		default:
			return nil, fmt.Errorf("hetero: unknown fleet preset %q", name)
		}
		d, err := NewDevice(sp)
		if err != nil {
			return nil, err
		}
		devs = append(devs, d)
	}
	if len(devs) == 0 {
		return nil, errors.New("hetero: empty fleet")
	}
	return devs, nil
}
