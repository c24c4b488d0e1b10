package hetero

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/grid"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

func TestKernelCostModel(t *testing.T) {
	cpu := MustDevice(SpecHostCPU(4))
	want := cpu.Spec.LaunchLatency + 1000/cpu.Spec.ZoneRate
	if got := cpu.KernelCost(1000); math.Abs(got-want) > 1e-15 {
		t.Errorf("cpu cost = %v, want %v", got, want)
	}
	// CPUs and resident GPUs never pay transfers.
	if cpu.TransferCost(1<<20) != 0 {
		t.Error("cpu charged a transfer")
	}
	if MustDevice(SpecK20GPU()).TransferCost(1<<20) != 0 {
		t.Error("resident gpu charged a transfer")
	}
	staged := MustDevice(SpecK20GPUStaged())
	wantT := 2*staged.Spec.TransferLatency + float64(1<<20)/staged.Spec.TransferBW
	if got := staged.TransferCost(1 << 20); math.Abs(got-wantT) > 1e-15 {
		t.Errorf("staged transfer = %v, want %v", got, wantT)
	}
	// MarginalCost of a tile kernel: every direction's compute, and for
	// staged devices the bandwidth share of one working-set transfer.
	wantM := staged.KernelCost(2*1000) + float64(tileBytes(1000))/staged.Spec.TransferBW
	if got := staged.MarginalCost(1000, 2); math.Abs(got-wantM) > 1e-15 {
		t.Errorf("marginal = %v, want %v", got, wantM)
	}
}

func TestChargeAccumulates(t *testing.T) {
	d := MustDevice(SpecHostCPU(1))
	c1 := d.Charge(100)
	c2 := d.Charge(200)
	if math.Abs(d.Busy()-(c1+c2)) > 1e-18 {
		t.Errorf("busy = %v, want %v", d.Busy(), c1+c2)
	}
	if d.Zones() != 300 || d.Kernels() != 2 {
		t.Errorf("zones=%d kernels=%d", d.Zones(), d.Kernels())
	}
	d.Reset()
	if d.Busy() != 0 || d.Zones() != 0 || d.Kernels() != 0 {
		t.Error("Reset incomplete")
	}
	g := MustDevice(SpecK20GPUStaged())
	if c := g.ChargeTransfer(6_000_000_000); math.Abs(g.Busy()-c) > 1e-15 || c < 1 {
		t.Errorf("transfer charge = %v busy = %v", c, g.Busy())
	}
}

// The CPU/GPU crossover: per-kernel effective throughput must favour the
// CPU for tiny kernels (launch+transfer dominated) and the GPU for large
// ones — the central claim of the heterogeneous evaluation.
func TestDeviceCrossover(t *testing.T) {
	cpu := MustDevice(SpecHostCPU(4))
	gpu := MustDevice(SpecK20GPU())
	rate := func(d *Device, zones int) float64 {
		return float64(zones) / d.MarginalCost(zones, 1)
	}
	small := 64 // one pencil of a 64-cell row
	if rate(gpu, small) >= rate(cpu, small) {
		t.Errorf("GPU should lose on %d zones: %v vs %v", small, rate(gpu, small), rate(cpu, small))
	}
	large := 1 << 21
	if rate(gpu, large) <= rate(cpu, large) {
		t.Errorf("GPU should win on %d zones: %v vs %v", large, rate(gpu, large), rate(cpu, large))
	}
}

// planOf returns a copy of the executor's plan of one nTiles phase.
func planOf(ex *Executor, nTiles int, tc tileCost) []assignment {
	p := newPhaseScratch(len(ex.Devices))
	ex.plan(p, nTiles, tc)
	return p.plan
}

func planCovers(t *testing.T, plan []assignment, n int) {
	t.Helper()
	covered := make([]bool, n)
	for _, a := range plan {
		for i := a.lo; i < a.hi; i++ {
			if covered[i] {
				t.Fatalf("tile %d assigned twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("tile %d unassigned", i)
		}
	}
}

func TestStaticPlanProportional(t *testing.T) {
	fast := MustDevice(Spec{Name: "fast", ZoneRate: 9e6, Workers: 1})
	slow := MustDevice(Spec{Name: "slow", ZoneRate: 1e6, Workers: 1})
	ex := MustExecutor(Static, slow, fast)
	plan := planOf(ex, 100, tileCost{zones: func(lo, hi int) int { return (hi - lo) * 100 }, ndim: 2})
	planCovers(t, plan, 100)
	// slow gets ~10, fast ~90.
	for _, a := range plan {
		n := a.hi - a.lo
		if ex.Devices[a.dev].Spec.Name == "slow" && (n < 5 || n > 15) {
			t.Errorf("slow device got %d tiles", n)
		}
		if ex.Devices[a.dev].Spec.Name == "fast" && (n < 85 || n > 95) {
			t.Errorf("fast device got %d tiles", n)
		}
	}
}

// Static, Dynamic and Routed are rows of one placement loop. Each row
// must build exactly the plan its parent planner built (reference_test.go)
// — over fleets with resident, staged and host devices, uniform and
// ragged tile costs, tile counts that do not divide, every router state
// (suspect, drained, probing, dead, all dead) and with and without an
// affinity history — and the death reroute must place every orphaned
// kernel where the parent's list scheduler did.
func TestPlanRowsMatchReference(t *testing.T) {
	slowLink := SpecK20GPUStaged()
	slowLink.TransferBW = 3e9
	fleets := [][]Spec{
		{SpecHostCPU(8), SpecK20GPU()},
		{SpecHostCPU(8), slowLink},
		{SpecHostCPU(4), SpecHostCPU(4), SpecK20GPU()},
		{SpecHostCPU(2), SpecK20GPU(), SpecXeonPhi(), SpecK20GPUStaged()},
		{{Name: "slow", ZoneRate: 1e6, Workers: 1}, {Name: "fast", ZoneRate: 9e6, Workers: 1}},
	}
	costs := []tileCost{
		{zones: func(lo, hi int) int { return (hi - lo) * 100 }, ndim: 2},
		{zones: func(lo, hi int) int {
			z := 0
			for t := lo; t < hi; t++ {
				z += 64 + t*37%23
			}
			return z
		}, ndim: 3},
	}
	same := func(name string, got, want []assignment) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d kernels, reference %d\n got %v\nwant %v", name, len(got), len(want), got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: kernel %d = %v, reference %v\n got %v\nwant %v", name, k, got[k], want[k], got, want)
			}
		}
	}
	seen := map[DevState]bool{}
	for f, specs := range fleets {
		for c, tc := range costs {
			for _, n := range []int{1, 2, 5, 13, 48, 100, 150} {
				devs := make([]*Device, len(specs))
				for i, sp := range specs {
					devs[i] = MustDevice(sp)
				}
				ex := MustExecutor(Routed, devs...)
				sick := len(devs) - 1
				for tick := 0; tick < 40; tick++ {
					name := func(pol Policy) string {
						return fmt.Sprintf("fleet %d cost %d n=%d tick %d %v (%v)", f, c, n, tick, pol, ex.router.State(sick))
					}
					// An affinity history on odd ticks, none on even ones.
					seen[ex.router.State(sick)] = true
					ex.lastOwner = nil
					if tick%2 == 1 {
						ex.lastOwner = make([]int, n)
						for i := range ex.lastOwner {
							ex.lastOwner[i] = (i*7+tick)%(len(devs)+1) - 1
						}
					}
					ex.Policy = Static
					same(name(Static), planOf(ex, n, tc), refStaticPlan(ex, n))
					ex.Policy = Dynamic
					same(name(Dynamic), planOf(ex, n, tc), refDynamicPlan(ex, nil, 0, n, tc))
					ex.Policy = Routed
					same(name(Routed), planOf(ex, n, tc), refRoutedPlan(ex, n, tc, ex.prevOwners(newPhaseScratch(len(devs)), n)))

					// The sick device observes 10× its nominal latency for
					// the first 8 ticks, then runs clean: suspect, drained,
					// probing, healthy again. Device 0 dies at tick 30 and
					// every device at tick 36.
					obs := make([]Obs, len(devs))
					for i, d := range devs {
						busy := 1000 / d.Spec.ZoneRate
						if i == sick && tick < 8 {
							busy *= 10
						}
						obs[i] = Obs{Dev: i, Zones: 1000, Busy: busy}
					}
					ex.router.ObservePhase(obs)
					var dying []int
					switch tick {
					case 30:
						dying = []int{0}
					case 36:
						for i := range devs {
							dying = append(dying, i)
						}
					}
					if len(dying) > 0 {
						ex.Policy = Dynamic
						p := newPhaseScratch(len(devs))
						ex.plan(p, n, tc)
						before := append([]assignment(nil), p.plan...)
						ex.rerouteDead(p, dying, tc)
						same(name(Dynamic)+" reroute", p.plan, refRerouteDead(ex, before, p.dead, tc))
					}
				}
			}
		}
	}
	for _, st := range []DevState{Healthy, Suspect, Drained, Probing, Dead} {
		if !seen[st] {
			t.Errorf("no plan compared with the sick device %v", st)
		}
	}
}

// A phase's planning and health bookkeeping reuse the executor's and the
// router's storage: once warm, planning, remembering owners and observing
// a phase allocate nothing under any policy.
func TestPlanAllocatesNothing(t *testing.T) {
	tc := tileCost{zones: func(lo, hi int) int { return (hi - lo) * 100 }, ndim: 3}
	const n = 37
	for _, pol := range []Policy{Static, Dynamic, Routed} {
		ex := MustExecutor(pol, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPUStaged()), MustDevice(SpecXeonPhi()))
		obs := []Obs{{Dev: 0, Zones: 1000, Busy: 1e-3}, {Dev: 1, Zones: 1000, Busy: 1e-3}, {Dev: 2, Zones: 1000, Busy: 1e-3}}
		p := newPhaseScratch(len(ex.Devices))
		phase := func() {
			ex.plan(p, n, tc)
			ex.rememberOwners(p.plan, n)
			ex.router.ObservePhase(obs)
		}
		phase()
		phase()
		if a := testing.AllocsPerRun(50, phase); a != 0 {
			t.Errorf("%v: %v allocations per planned phase", pol, a)
		}
	}
}

func TestDynamicPlanCoverageAndAdaptivity(t *testing.T) {
	fast := MustDevice(Spec{Name: "fast", ZoneRate: 8e6, Workers: 1})
	slow := MustDevice(Spec{Name: "slow", ZoneRate: 1e6, Workers: 1})
	ex := MustExecutor(Dynamic, fast, slow)
	uniform := tileCost{zones: func(lo, hi int) int { return (hi - lo) * 100 }, ndim: 2}
	plan := planOf(ex, 128, uniform)
	planCovers(t, plan, 128)
	counts := map[int]int{}
	for _, a := range plan {
		counts[a.dev] += a.hi - a.lo
	}
	if counts[0] <= counts[1] {
		t.Errorf("fast device got %d tiles, slow got %d", counts[0], counts[1])
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 4 || ratio > 16 {
		t.Errorf("work ratio %v, want near the 8x speed ratio", ratio)
	}
}

func TestExecutorMatchesPlainSolver(t *testing.T) {
	run := func(attach func(*core.Solver)) []float64 {
		p := testprob.Blast2D
		g := p.NewGrid(32, 2)
		cfg := core.DefaultConfig()
		s, err := core.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if attach != nil {
			attach(s)
		}
		s.InitFromPrim(p.Init)
		for i := 0; i < 5; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, g.NCells())
		copy(out, g.U.Comp[state.ID])
		return out
	}
	plain := run(nil)
	for _, pol := range []Policy{Static, Dynamic} {
		ex := MustExecutor(pol, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
		het := run(func(s *core.Solver) { ex.Attach(s) })
		for i := range plain {
			if plain[i] != het[i] {
				t.Fatalf("%v: cell %d differs: %v vs %v", pol, i, plain[i], het[i])
			}
		}
		if ex.VirtualTime() <= 0 {
			t.Errorf("%v: no virtual time accumulated", pol)
		}
	}
}

// An attached executor is handed the complete tile schedule of every RHS
// evaluation. Whatever the policy, the tile size (3×5 does not divide
// 12×10×8) and the device parallelism, every tile runs exactly once per
// phase, the devices are charged TileZones × ndim zone-sweeps per phase,
// and the field is bitwise equal to the unattached solver's.
func TestAttachedTilesMatchUnattached(t *testing.T) {
	run := func(attach func(*core.Solver)) []float64 {
		g := grid.New(grid.Geometry{Nx: 12, Ny: 10, Nz: 8, Ng: 2,
			X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
		g.SetAllBCs(grid.Outflow)
		cfg := core.DefaultConfig()
		cfg.TileJ, cfg.TileK = 3, 5
		s, err := core.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if attach != nil {
			attach(s)
		}
		// Off-centre blast: no direction or octant is symmetric.
		err = s.InitFromPrim(func(x, y, z float64) state.Prim {
			dx, dy, dz := x-0.4, y-0.55, z-0.45
			if dx*dx+dy*dy+dz*dz < 0.03 {
				return state.Prim{Rho: 1, P: 50}
			}
			return state.Prim{Rho: 1, P: 0.1}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, 0, state.NComp*g.NCells())
		for c := 0; c < state.NComp; c++ {
			out = append(out, g.U.Comp[c]...)
		}
		return out
	}
	plain := run(nil)

	for _, pol := range []Policy{Static, Dynamic, Routed} {
		for _, workers := range []int{1, 2, 8} {
			gpu := SpecK20GPUStaged()
			gpu.Workers = workers
			ex := MustExecutor(pol, MustDevice(SpecHostCPU(workers)), MustDevice(gpu))
			ex.Trace = true
			phases := 0
			wantZones := 0
			het := run(func(s *core.Solver) {
				ex.Attach(s)
				wantZones = s.G.Nx * s.G.Ny * s.G.Nz * 3
				planned := s.Cfg.TileExec
				s.Cfg.TileExec = func(nTiles int, runTiles func(lo, hi int)) {
					seen := make([]atomic.Int32, nTiles)
					planned(nTiles, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							seen[i].Add(1)
						}
						runTiles(lo, hi)
					})
					for i := range seen {
						if n := seen[i].Load(); n != 1 {
							t.Errorf("%v workers=%d phase %d: tile %d run %d times", pol, workers, phases, i, n)
						}
					}
					phases++
				}
			})
			if wantZones != 12*10*8*3 {
				t.Fatalf("TileZones × ndim = %d, want %d", wantZones, 12*10*8*3)
			}
			if phases != 3*core.DefaultConfig().Integrator.Stages() {
				t.Errorf("%v workers=%d: %d phases for 3 steps", pol, workers, phases)
			}
			charged := map[int64]int{}
			for _, e := range ex.TraceEvents() {
				charged[e.Phase] += e.Zones
			}
			for ph := int64(0); ph < int64(phases); ph++ {
				if charged[ph] != wantZones {
					t.Errorf("%v workers=%d phase %d: charged %d zone-sweeps, want %d",
						pol, workers, ph, charged[ph], wantZones)
				}
			}
			for i := range plain {
				if plain[i] != het[i] {
					t.Fatalf("%v workers=%d: element %d differs: %v vs %v", pol, workers, i, plain[i], het[i])
				}
			}
		}
	}
}

// Dynamic scheduling must beat a naive static split when device *effective*
// speeds differ from nominal ones (transfer costs skew the GPU down).
func TestDynamicBeatsStaticOnMismatch(t *testing.T) {
	run := func(pol Policy) float64 {
		p := testprob.Blast2D
		g := p.NewGrid(192, 2)
		s, err := core.New(g, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// A staged GPU on a slow link has an effective rate far below its
		// nominal 100 Mz/s, so a static split planned on nominal rates
		// overloads it; the dynamic queue adapts.
		slowLink := SpecK20GPUStaged()
		slowLink.TransferBW = 3e9
		ex := MustExecutor(pol, MustDevice(SpecHostCPU(4)), MustDevice(slowLink))
		ex.Attach(s)
		s.InitFromPrim(p.Init)
		for i := 0; i < 3; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		return ex.VirtualTime()
	}
	st := run(Static)
	dy := run(Dynamic)
	if dy >= st {
		t.Errorf("dynamic (%v) not faster than static (%v)", dy, st)
	}
}

// CPU+GPU must beat either device alone in virtual time on a large enough
// problem — the headline heterogeneous speedup.
func TestHeterogeneousSpeedup(t *testing.T) {
	run := func(devs ...*Device) float64 {
		p := testprob.Blast2D
		g := p.NewGrid(128, 2)
		s, err := core.New(g, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ex := MustExecutor(Dynamic, devs...)
		ex.Attach(s)
		s.InitFromPrim(p.Init)
		for i := 0; i < 2; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		return ex.VirtualTime()
	}
	cpuOnly := run(MustDevice(SpecHostCPU(8)))
	gpuOnly := run(MustDevice(SpecK20GPU()))
	both := run(MustDevice(SpecHostCPU(8)), MustDevice(SpecK20GPU()))
	if gpuOnly >= cpuOnly {
		t.Errorf("GPU (%v) should beat 8-core CPU (%v) at 128^2", gpuOnly, cpuOnly)
	}
	if both >= gpuOnly {
		t.Errorf("CPU+GPU (%v) should beat GPU alone (%v)", both, gpuOnly)
	}
}

// A three-device mix (CPU + GPU + Phi) must beat any two-device subset in
// virtual time under dynamic scheduling.
func TestThreeDeviceMix(t *testing.T) {
	run := func(specs ...Spec) float64 {
		p := testprob.Blast2D
		g := p.NewGrid(128, 2)
		s, err := core.New(g, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs := make([]*Device, len(specs))
		for i, sp := range specs {
			devs[i] = MustDevice(sp)
		}
		ex := MustExecutor(Dynamic, devs...)
		ex.Attach(s)
		s.InitFromPrim(p.Init)
		for i := 0; i < 2; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		return ex.VirtualTime()
	}
	two := run(SpecHostCPU(8), SpecK20GPU())
	three := run(SpecHostCPU(8), SpecK20GPU(), SpecXeonPhi())
	if three >= two {
		t.Errorf("CPU+GPU+Phi (%v) not faster than CPU+GPU (%v)", three, two)
	}
}

// Tracing: every kernel must appear exactly once, intervals on one device
// must not overlap, one phase is one RHS evaluation, and total traced
// zones must equal the sweep volume (interior zones × ndim per phase).
func TestExecutionTrace(t *testing.T) {
	p := testprob.Blast2D
	g := p.NewGrid(48, 2)
	s, err := core.New(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex := MustExecutor(Dynamic, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
	ex.Trace = true
	ex.Attach(s)
	s.InitFromPrim(p.Init)
	const steps = 2
	for i := 0; i < steps; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	events := ex.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Phases: 2 RK stages x 2 steps = 4 RHS evaluations.
	phases := map[int64]bool{}
	totalZones := 0
	lastEnd := map[string]float64{}
	for _, e := range events {
		phases[e.Phase] = true
		totalZones += e.Zones
		if e.End <= e.Start {
			t.Fatalf("empty interval %+v", e)
		}
		if e.Start < lastEnd[e.Device]-1e-15 {
			t.Fatalf("overlapping intervals on %s: %v < %v", e.Device, e.Start, lastEnd[e.Device])
		}
		lastEnd[e.Device] = e.End
	}
	if len(phases) != 2*steps {
		t.Errorf("phases = %d, want %d", len(phases), 2*steps)
	}
	want := 48 * 48 * 2 * 2 * steps
	if totalZones != want {
		t.Errorf("traced zones = %d, want %d", totalZones, want)
	}
	ex.ResetClocks()
	if len(ex.TraceEvents()) != 0 {
		t.Error("ResetClocks kept trace events")
	}
}

func TestReportAndImbalance(t *testing.T) {
	a := MustDevice(Spec{Name: "a", ZoneRate: 1e6, Workers: 1})
	b := MustDevice(Spec{Name: "b", ZoneRate: 1e6, Workers: 1})
	ex := MustExecutor(Static, a, b)
	a.Charge(1000)
	b.Charge(1000)
	if im := ex.Imbalance(); math.Abs(im) > 1e-6 {
		t.Errorf("balanced imbalance = %v", im)
	}
	b.Charge(2000)
	if im := ex.Imbalance(); im < 0.3 {
		t.Errorf("imbalance = %v, want ~0.5", im)
	}
	rep := ex.Report()
	if len(rep) != 2 || rep[0].Name != "a" {
		t.Fatalf("report = %+v", rep)
	}
	if math.Abs(rep[1].Share-0.75) > 1e-12 {
		t.Errorf("share = %v, want 0.75", rep[1].Share)
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(Static); err == nil {
		t.Error("empty device list accepted")
	}
	if _, err := NewExecutor(Static, nil); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := NewExecutor(Routed+1, MustDevice(SpecHostCPU(1))); err == nil {
		t.Error("unknown policy accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustExecutor did not panic on invalid input")
		}
	}()
	MustExecutor(Static)
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Spec{Name: "bad"}); err == nil {
		t.Error("zero ZoneRate accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDevice did not panic on invalid spec")
		}
	}()
	MustDevice(Spec{Name: "bad"})
}

func TestPolicyKindStrings(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Error("policy names")
	}
	if CPU.String() != "cpu" || GPU.String() != "gpu" {
		t.Error("kind names")
	}
}

// Device clocks are float sums, so the order kernels are charged in is
// part of the result. The executor charges in plan order after the phase
// joins; charging from the pool goroutines made VirtualTime follow
// completion order in its last digit. The 3×3 tiles do not divide 20×20,
// so the kernels of a phase differ in cost and the order shows. Run under
// -race -count=20.
func TestVirtualClockDeterministic(t *testing.T) {
	run := func() (float64, []float64) {
		p := testprob.Blast3D
		g := p.NewGrid(20, 2)
		cfg := core.DefaultConfig()
		cfg.TileJ, cfg.TileK = 3, 3
		s, err := core.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex := MustExecutor(Dynamic, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
		ex.Attach(s)
		if err := s.InitFromPrim(p.Init); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		busy := make([]float64, len(ex.Devices))
		for i, d := range ex.Devices {
			busy[i] = d.Busy()
		}
		return ex.VirtualTime(), busy
	}
	v0, b0 := run()
	for rep := 0; rep < 4; rep++ {
		v, b := run()
		if v != v0 {
			t.Fatalf("run %d: VirtualTime %v, first run %v", rep+1, v, v0)
		}
		for i := range b {
			if b[i] != b0[i] {
				t.Fatalf("run %d: device %d busy %v, first run %v", rep+1, i, b[i], b0[i])
			}
		}
	}
}
