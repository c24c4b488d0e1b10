package core

import (
	"fmt"
	"math"
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// allRecon and allRiemann list every reconstruction and Riemann solver.
func allRecon() []recon.Scheme {
	return []recon.Scheme{
		recon.PCM{},
		recon.PLM{Lim: recon.Minmod},
		recon.PLM{Lim: recon.MonotonizedCentral},
		recon.PLM{Lim: recon.VanLeer},
		recon.PPM{},
		recon.WENO5{},
		recon.WENOZ{},
	}
}

func allRiemann() []riemann.Solver {
	return []riemann.Solver{riemann.LLF{}, riemann.HLL{}, riemann.HLLC{}}
}

// goldenCase is one run whose final conserved field (and fail-safe
// counts) testdata/generic_golden.json froze from the interface-dispatched
// flux kernel — two ToCons, two state.Flux and two WaveSpeeds per face
// through the EOS and Riemann interfaces — that the single face-flux
// kernel replaced.
type goldenCase struct {
	name string
	run  func(t *testing.T) (u []float64, troubled, repaired int64)
}

// goldenRun advances g from init for a fixed number of CFL steps under
// cfg and returns the full conserved field, ghosts included.
func goldenRun(t *testing.T, g *grid.Grid, cfg Config, init func(x, y, z float64) state.Prim,
	steps int) []float64 {

	t.Helper()
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(init); err != nil {
		t.Fatal(err)
	}
	return runSteps(t, s, steps)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	blast2D := func(name string, mut func(*Config)) {
		cases = append(cases, goldenCase{name, func(t *testing.T) ([]float64, int64, int64) {
			cfg := DefaultConfig()
			mut(&cfg)
			return goldenRun(t, testprob.Blast2D.NewGrid(48, cfg.Recon.Ghost()), cfg,
				testprob.Blast2D.Init, 6), 0, 0
		}})
	}
	// Every reconstruction × Riemann solver on the Γ-law gas. The weno5
	// rows take the first-order admissibility fallback at a few hundred
	// faces; no other row does.
	for _, rc := range allRecon() {
		for _, rs := range allRiemann() {
			blast2D("blast2d-"+rc.Name()+"-"+rs.Name(), func(c *Config) {
				c.Recon, c.Riemann = rc, rs
			})
		}
	}
	// The production scheme on the two closures with no inlined h, c_s².
	blast2D("blast2d-plm-mc-hllc-taub", func(c *Config) { c.EOS = eos.TaubMathews{} })
	blast2D("blast2d-plm-mc-hllc-hybrid", func(c *Config) {
		c.EOS = eos.NewHybrid(0.1, 2, 5.0/3.0)
	})
	// 1-D Marti–Müller blast to t = 0.2 through Advance.
	cases = append(cases, goldenCase{"blast1d-plm-mc-hllc", func(t *testing.T) ([]float64, int64, int64) {
		s, err := New(testprob.Blast.NewGrid(200, 2), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitFromPrim(testprob.Blast.Init); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Advance(0.2); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), s.G.U.Raw()...), 0, 0
	}})
	// Three active directions, so every scheme's z sweep too, on an
	// Ng = 3 grid: plm-mc there has G < Ng.
	blast3D := func(name string, rc recon.Scheme, rs riemann.Solver) {
		cases = append(cases, goldenCase{name, func(t *testing.T) ([]float64, int64, int64) {
			g := grid.New(grid.Geometry{Nx: 12, Ny: 10, Nz: 8, Ng: 3,
				X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
			g.SetAllBCs(grid.Outflow)
			cfg := DefaultConfig()
			cfg.Recon, cfg.Riemann = rc, rs
			return goldenRun(t, g, cfg, blast3DInit, 3), 0, 0
		}})
	}
	blast3D("blast3d-ppm-hll", recon.PPM{}, riemann.HLL{})
	for _, rc := range []recon.Scheme{recon.PCM{}, recon.PLM{Lim: recon.Minmod},
		recon.PLM{Lim: recon.VanLeer}, recon.WENO5{}, recon.WENOZ{}} {
		blast3D("blast3d-"+rc.Name()+"-hllc", rc, riemann.HLLC{})
	}
	blast3D("blast3d-plm-mc-hllc-ng3", recon.PLM{Lim: recon.MonotonizedCentral}, riemann.HLLC{})
	// Fail-safe repair on a non-Γ-law gas: the high-order recompute and
	// the PCM+HLL repair flux both go through the EOS interface.
	cases = append(cases, goldenCase{"failsafe-taub", func(t *testing.T) ([]float64, int64, int64) {
		g := testprob.Blast2D.NewGrid(48, 2)
		cfg := DefaultConfig()
		cfg.EOS = eos.TaubMathews{}
		cfg.FailSafe = true
		step := 0
		idx := g.Idx(g.TotalX/2+3, g.TotalY/2-2, 0)
		cfg.FaultHook = func(stage int, u *state.Fields) {
			if stage == 1 && step == 2 {
				u.Comp[state.ITau][idx] = -1
			}
		}
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitFromPrim(testprob.Blast2D.Init); err != nil {
			t.Fatal(err)
		}
		for ; step < 5; step++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatalf("step %d not repaired: %v", step, err)
			}
		}
		troubled, repaired := s.St.Troubled.Load(), s.St.Repaired.Load()
		if troubled == 0 || repaired != troubled {
			t.Fatalf("fault not repaired: troubled=%d repaired=%d", troubled, repaired)
		}
		return append([]float64(nil), g.U.Raw()...), troubled, repaired
	}})
	// 3-D local repairs on a grid whose face planes run two x chunks
	// (Nx = 70 > planeLanes), with 4×4 tiles: faults on a j and on a k
	// tile boundary, on the first and the last interior cell of an x row
	// (the last also on the grid's upper y and z faces), and on the first
	// cell of the second x chunk.
	for _, sc := range []struct {
		rc recon.Scheme
		rs riemann.Solver
	}{{recon.PLM{Lim: recon.MonotonizedCentral}, riemann.HLLC{}}, {recon.PPM{}, riemann.HLL{}}} {
		for _, in := range []Integrator{RK2, RK3} {
			name := "failsafe3d-" + sc.rc.Name() + "-" + sc.rs.Name() + "-" + in.String()
			cases = append(cases, goldenCase{name, func(t *testing.T) ([]float64, int64, int64) {
				return failSafe3DRun(t, sc.rc, sc.rs, in, 4, 4)
			}})
		}
	}
	return cases
}

// failSafe3DRun advances the blast3d problem on a 70×10×8 grid (Ng = 3)
// for three steps with faults injected into the first stage of step 1
// and the second stage of step 2, and returns the conserved field and
// the troubled and repaired counts.
func failSafe3DRun(t *testing.T, rc recon.Scheme, rs riemann.Solver, in Integrator,
	tileJ, tileK int) ([]float64, int64, int64) {

	t.Helper()
	g := grid.New(grid.Geometry{Nx: 70, Ny: 10, Nz: 8, Ng: 3,
		X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
	g.SetAllBCs(grid.Outflow)
	cfg := DefaultConfig()
	cfg.Recon, cfg.Riemann, cfg.Integrator = rc, rs, in
	cfg.FailSafe = true
	cfg.TileJ, cfg.TileK = tileJ, tileK
	i0, j0, k0 := g.IBeg(), g.JBeg(), g.KBeg()
	faults := map[[2]int][]int{
		// The last cell of the first j tile and the first of the second k tile.
		{1, 1}: {g.Idx(i0+17, j0+3, k0+2), g.Idx(i0+42, j0+6, k0+4)},
		// The first and last interior cells of x rows, and the first cell
		// of the second x chunk.
		{2, 2}: {g.Idx(i0, j0+5, k0+1), g.Idx(g.IEnd()-1, g.JEnd()-1, g.KEnd()-1), g.Idx(i0+64, j0+1, k0+6)},
	}
	step := 0
	cfg.FaultHook = func(stage int, u *state.Fields) {
		for n, idx := range faults[[2]int{step, stage}] {
			u.Comp[state.ITau][idx] = [2]float64{-1, math.NaN()}[n%2]
		}
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(blast3DInit); err != nil {
		t.Fatal(err)
	}
	for ; step < 3; step++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatalf("step %d not repaired: %v", step, err)
		}
	}
	troubled, repaired := s.St.Troubled.Load(), s.St.Repaired.Load()
	if troubled < 5 || repaired != troubled {
		t.Fatalf("faults not repaired: troubled=%d repaired=%d", troubled, repaired)
	}
	return append([]float64(nil), g.U.Raw()...), troubled, repaired
}

// TestKernelMatchesGenericGolden holds the one face-flux kernel to the
// results of the generic path it replaced, for the whole scheme matrix.
func TestKernelMatchesGenericGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			u, troubled, repaired := gc.run(t)
			want, ok := loadGolden(t, "testdata/generic_golden.json", gc.name)
			if !ok {
				return
			}
			if fp := fieldFingerprint(u); fp != want.FNV64 || troubled != want.Troubled || repaired != want.Repaired {
				t.Fatalf("fingerprint %s troubled=%d repaired=%d, generic golden %s %d/%d",
					fp, troubled, repaired, want.FNV64, want.Troubled, want.Repaired)
			}
		})
	}
}

// A 3-D repair does not depend on the tile extents: the golden rows' 4×4
// tiles against the default tiles, tiles that do not divide the grid and
// one tile larger than it.
func TestFailSafe3DTileInvariance(t *testing.T) {
	for _, sc := range []struct {
		rc recon.Scheme
		rs riemann.Solver
		in Integrator
	}{{recon.PLM{Lim: recon.MonotonizedCentral}, riemann.HLLC{}, RK2}, {recon.PPM{}, riemann.HLL{}, RK3}} {
		want, wtr, wrep := failSafe3DRun(t, sc.rc, sc.rs, sc.in, 4, 4)
		for _, tiles := range [][2]int{{0, 0}, {3, 5}, {1 << 20, 1 << 20}} {
			name := fmt.Sprintf("%s/%s/%s tiles %dx%d", sc.rc.Name(), sc.rs.Name(), sc.in, tiles[0], tiles[1])
			got, tr, rep := failSafe3DRun(t, sc.rc, sc.rs, sc.in, tiles[0], tiles[1])
			if tr != wtr || rep != wrep {
				t.Fatalf("%s: troubled=%d repaired=%d, 4x4 tiles %d/%d", name, tr, rep, wtr, wrep)
			}
			requireBitwiseEqual(t, name, want, got)
		}
	}
}
