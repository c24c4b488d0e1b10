package rhsc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestProblemsCatalog(t *testing.T) {
	ps := Problems()
	if len(ps) < 5 {
		t.Fatalf("catalog too small: %v", ps)
	}
	found := false
	for _, p := range ps {
		if p == "sod" {
			found = true
		}
	}
	if !found {
		t.Error("sod missing from catalog")
	}
}

func TestNewSimDefaults(t *testing.T) {
	s, err := NewSim(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Problem.Name != "sod" || s.Grid.Nx != 256 {
		t.Errorf("defaults: problem %s N %d", s.Problem.Name, s.Grid.Nx)
	}
}

func TestNewSimValidation(t *testing.T) {
	bad := []Options{
		{Problem: "nope"},
		{Recon: "nope"},
		{Riemann: "nope"},
		{Integrator: "rk9"},
	}
	for _, o := range bad {
		if _, err := NewSim(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	s, err := NewSim(Options{Problem: "sod", N: 128, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(0.2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Time()-0.2) > 1e-12 {
		t.Errorf("time = %v", s.Time())
	}
	// Plateau velocity approaches the exact v* ~ 0.714 somewhere.
	sampler, err := ExactSod(10, 0, 13.33, 1, 0, 1e-6, 5.0/3.0, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	x := 0.62
	got := s.At(x, 0)
	want := sampler(x)
	if math.Abs(got.Vx-want.Vx) > 0.05 {
		t.Errorf("v(%v) = %v, exact %v", x, got.Vx, want.Vx)
	}
	var buf bytes.Buffer
	if err := s.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "x,rho") {
		t.Errorf("profile header: %q", buf.String()[:20])
	}
	if s.ZoneUpdates() == 0 {
		t.Error("no zone updates recorded")
	}
}

func TestStepAndMass(t *testing.T) {
	s, err := NewSim(Options{Problem: "smooth-wave", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Mass()
	dt, err := s.Step()
	if err != nil || dt <= 0 {
		t.Fatalf("step: dt=%v err=%v", dt, err)
	}
	if rel := math.Abs(s.Mass()-m0) / m0; rel > 1e-13 {
		t.Errorf("mass drift %v in one periodic step", rel)
	}
}

func TestCheckpointRestore(t *testing.T) {
	o := Options{Problem: "sod", N: 64}
	s, err := NewSim(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(0.1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Time()-0.1) > 1e-12 {
		t.Errorf("restored time %v", r.Time())
	}
	// Continue both and compare.
	if err := s.RunTo(0.15); err != nil {
		t.Fatal(err)
	}
	if err := r.RunTo(0.15); err != nil {
		t.Fatal(err)
	}
	// The restored run re-derives primitives from the conserved snapshot
	// with fresh Newton guesses, so agreement is to solver tolerance, not
	// bitwise.
	for _, x := range []float64{0.3, 0.5, 0.7} {
		a, b := s.At(x, 0), r.At(x, 0)
		if math.Abs(a.Rho-b.Rho) > 1e-9*(1+a.Rho) ||
			math.Abs(a.P-b.P) > 1e-9*(1+a.P) ||
			math.Abs(a.Vx-b.Vx) > 1e-9 {
			t.Errorf("restored run diverged at %v: %+v vs %+v", x, a, b)
		}
	}
}

func TestHybridEOSOption(t *testing.T) {
	s, err := NewSim(Options{Problem: "blast", N: 64, HybridK: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(0.05); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorAndVTK(t *testing.T) {
	s, err := NewSim(Options{Problem: "blast2d", N: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := s.AttachMonitor(1)
	for i := 0; i < 3; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Rows()) != 3 {
		t.Errorf("monitor rows = %d", len(m.Rows()))
	}
	var buf bytes.Buffer
	if err := s.WriteVTK(&buf, "blast"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "STRUCTURED_POINTS") {
		t.Error("VTK output malformed")
	}
}

func TestClusterProcessGrid(t *testing.T) {
	res, err := RunCluster(Options{Problem: "blast2d", N: 32},
		ClusterOptions{Ranks: 4, Px: 2, Py: 2, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d", res.Steps)
	}
}

func TestTaubMathewsOption(t *testing.T) {
	s, err := NewSim(Options{Problem: "blast", N: 64, TaubMathews: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(0.05); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroSim(t *testing.T) {
	h, err := NewHeteroSim(Options{Problem: "blast2d", N: 48},
		DynamicSchedule, HostCPU(2), GPU())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if h.VirtualSeconds() <= 0 {
		t.Error("no virtual time")
	}
	if _, err := NewHeteroSim(Options{}, StaticSchedule); err == nil {
		t.Error("no devices accepted")
	}
}

func TestRunCluster(t *testing.T) {
	res, err := RunCluster(Options{Problem: "sod", N: 64},
		ClusterOptions{Ranks: 2, Steps: 3, Network: "ib", Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 || res.VirtualTime <= 0 {
		t.Errorf("result %+v", res)
	}
	if _, err := RunCluster(Options{}, ClusterOptions{Ranks: 2, Network: "wifi"}); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestAMRSim(t *testing.T) {
	a, err := NewAMRSim(Options{Problem: "sod"}, AMROptions{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RunTo(0.1); err != nil {
		t.Fatal(err)
	}
	leaves, zones, maxLevel, updates := a.Stats()
	if leaves == 0 || zones == 0 || maxLevel != 2 || updates == 0 {
		t.Errorf("stats: %d %d %d %d", leaves, zones, maxLevel, updates)
	}
	if p := a.At(0.1, 0); p.Rho <= 0 {
		t.Errorf("sample %+v", p)
	}
}

// TestAMRSimHonoursIntegrator: a tree runs the integrator it is given —
// ten steps of the same Sod tube at rk1, rk2 and rk3 end on three
// different states.
func TestAMRSimHonoursIntegrator(t *testing.T) {
	seen := map[uint64]string{}
	for _, rk := range []string{"rk1", "rk2", "rk3"} {
		a, err := NewAMRSim(Options{Problem: "sod", N: 64, Integrator: rk}, AMROptions{RootBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := a.Tree.Step(a.Tree.MaxDt()); err != nil {
				t.Fatalf("%s step %d: %v", rk, i, err)
			}
		}
		fp := a.Tree.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s reaches fingerprint %016x, as %s does", rk, fp, prev)
		}
		seen[fp] = rk
	}
}

func TestAMRCheckpointRestore(t *testing.T) {
	o := Options{Problem: "sod"}
	a, err := NewAMRSim(o, AMROptions{MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RunTo(0.05); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreAMR(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Problem.Name != "sod" {
		t.Errorf("restored problem %q", r.Problem.Name)
	}
	al, _, _, _ := a.Stats()
	rl, _, _, _ := r.Stats()
	if al != rl {
		t.Errorf("leaves %d vs %d", rl, al)
	}
	if err := r.RunTo(0.1); err != nil {
		t.Fatal(err)
	}
}

func TestExactSodT0(t *testing.T) {
	f, err := ExactSod(10, 0, 13.33, 1, 0, 1e-6, 5.0/3.0, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f(0.2).Rho != 10 || f(0.8).Rho != 1 {
		t.Error("t=0 sampler wrong")
	}
}

func TestSimTracer(t *testing.T) {
	s, err := NewSim(Options{Problem: "sod", N: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTracer(func(x, _, _ float64) float64 {
		if x < 0.5 {
			return 1
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(0.2); err != nil {
		t.Fatal(err)
	}
	if got := s.TracerAt(0.1, 0); got < 0.99 {
		t.Errorf("upstream tracer %v", got)
	}
	if got := s.TracerAt(0.9, 0); got > 0.01 {
		t.Errorf("downstream tracer %v", got)
	}
}

func TestExactSodVt(t *testing.T) {
	f, err := ExactSodVt(
		Prim{Rho: 10, Vy: 0.4, P: 13.33},
		Prim{Rho: 1, Vy: -0.3, P: 0.1},
		5.0/3.0, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Far fields untouched; star region carries a v_t jump at the contact.
	if p := f(0.01); p.Vy != 0.4 {
		t.Errorf("left far field %+v", p)
	}
	if p := f(0.99); p.Vy != -0.3 {
		t.Errorf("right far field %+v", p)
	}
	if p := f(0.3); math.IsNaN(p.Rho) || p.Rho <= 0 {
		t.Errorf("fan sample %+v", p)
	}
	// t = 0 returns the initial data.
	f0, _ := ExactSodVt(Prim{Rho: 2, P: 1}, Prim{Rho: 1, P: 1}, 5.0/3.0, 0.5, 0)
	if f0(0.2).Rho != 2 || f0(0.8).Rho != 1 {
		t.Error("t=0 sampler wrong")
	}
}

func TestSimRunAndSlab(t *testing.T) {
	s, err := NewSim(Options{Problem: "smooth-wave", N: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil { // to the problem's TEnd
		t.Fatal(err)
	}
	if math.Abs(s.Time()-s.Problem.TEnd) > 1e-12 {
		t.Errorf("Run stopped at %v", s.Time())
	}
	s2, err := NewSim(Options{Problem: "blast2d", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s2.WriteSlab(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "x,y,rho") {
		t.Errorf("slab header %q", buf.String()[:12])
	}
	// 2-D At and TracerAt lookups (in and out of range).
	if p := s2.At(0, 0); p.Rho <= 0 {
		t.Errorf("At = %+v", p)
	}
	if p := s2.At(99, -99); p.Rho <= 0 {
		t.Errorf("clamped At = %+v", p)
	}
	if v := s2.TracerAt(0, 0); v != 0 {
		t.Errorf("tracer disabled but %v", v)
	}
	if err := s2.EnableTracer(func(x, y, _ float64) float64 { return 0.5 }); err != nil {
		t.Fatal(err)
	}
	if v := s2.TracerAt(0.2, -0.7); v != 0.5 {
		t.Errorf("TracerAt = %v", v)
	}
	var img bytes.Buffer
	if err := s2.WritePNG(&img, true, 2); err != nil {
		t.Fatal(err)
	}
	if img.Len() == 0 || !strings.HasPrefix(img.String(), "\x89PNG") {
		t.Error("PNG output malformed")
	}
}

func TestNewtonSimFacade(t *testing.T) {
	n, err := NewNewtonSim(Options{Problem: "sod", N: 64, Recon: "plm-minmod", CFL: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RunTo(0.1); err != nil {
		t.Fatal(err)
	}
	if p := n.At(0.1, 0); p.Rho <= 0 {
		t.Errorf("At = %+v", p)
	}
	if _, err := NewNewtonSim(Options{Problem: "nope"}); err == nil {
		t.Error("unknown problem accepted")
	}
	if _, err := NewNewtonSim(Options{Recon: "nope"}); err == nil {
		t.Error("unknown recon accepted")
	}
}

func TestAMRRunFacade(t *testing.T) {
	a, err := NewAMRSim(Options{Problem: "sod"},
		AMROptions{MaxLevel: 1, BlockN: 8, RootBlocks: 4, RefineTol: 0.1, CoarsenTol: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Tree.Time() < a.Problem.TEnd-1e-12 {
		t.Errorf("Run stopped at %v", a.Tree.Time())
	}
}

func TestDeviceSpecHelpers(t *testing.T) {
	if StagedGPU().Resident {
		t.Error("staged GPU marked resident")
	}
	if !GPU().Resident {
		t.Error("GPU not resident")
	}
	if HostCPU(0).Workers < 1 {
		t.Error("HostCPU floor")
	}
}

func TestRestoreErrors(t *testing.T) {
	if _, err := Restore(strings.NewReader("junk"), Options{}); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	if _, err := Restore(strings.NewReader(""), Options{Problem: "nope"}); err == nil {
		t.Error("bad options accepted")
	}
	if _, err := RestoreAMR(strings.NewReader("junk"), Options{}); err == nil {
		t.Error("garbage AMR checkpoint accepted")
	}
	if _, err := RestoreAMR(strings.NewReader(""), Options{Recon: "nope"}); err == nil {
		t.Error("bad AMR options accepted")
	}
}

func TestMzups(t *testing.T) {
	if got := Mzups(2_000_000, time.Second); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mzups = %v", got)
	}
	if Mzups(100, 0) != 0 {
		t.Error("degenerate duration")
	}
}
