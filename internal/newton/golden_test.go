package newton

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"rhsc/internal/grid"
	"rhsc/internal/recon"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// newtonGolden is one row of testdata/newton_golden.json: the FNV-64a
// fingerprints of the conserved and primitive fields, ghosts included.
type newtonGolden struct {
	U string `json:"u"`
	W string `json:"w"`
}

// fingerprint is the FNV-64a of the field's float64 bit patterns,
// little-endian, component by component.
func fingerprint(f *state.Fields) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range f.Raw() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSteps builds the solver on g, initialises it and takes steps CFL
// steps; seed, when set, runs once between the first MaxDt and the first
// step.
func goldenSteps(t *testing.T, g *grid.Grid, rc recon.Scheme, gamma float64,
	init func(x, y, z float64) state.Prim, steps int, seed func(g *grid.Grid)) {

	t.Helper()
	cfg := DefaultConfig()
	cfg.Recon, cfg.Gamma = rc, gamma
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(init)
	for i := range steps {
		dt := s.MaxDt()
		if i == 0 && seed != nil {
			seed(g)
		}
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
}

func classicalSod(x, _, _ float64) state.Prim {
	if x < 0.5 {
		return state.Prim{Rho: 1, P: 1}
	}
	return state.Prim{Rho: 0.125, P: 0.1}
}

// TestMatchesNewtonGolden holds the baseline's fields after a few steps
// to testdata/newton_golden.json: 1-D Sod under five reconstructions, the
// 2-D and 3-D blasts under PLM-MC and PPM, and a PPM run whose first step
// meets a NaN cell, so the face-state fallback is pinned too.
func TestMatchesNewtonGolden(t *testing.T) {
	type run struct {
		name string
		g    func() *grid.Grid
		do   func(g *grid.Grid)
	}
	var runs []run
	for _, rc := range []recon.Scheme{recon.PCM{}, recon.PLM{Lim: recon.MonotonizedCentral},
		recon.PPM{}, recon.WENO5{}, recon.WENOZ{}} {
		runs = append(runs, run{"sod-" + rc.Name(),
			func() *grid.Grid {
				g := grid.New(grid.Geometry{Nx: 100, Ny: 1, Nz: 1, Ng: rc.Ghost(), X0: 0, X1: 1})
				g.SetAllBCs(grid.Outflow)
				return g
			},
			func(g *grid.Grid) { goldenSteps(t, g, rc, 1.4, classicalSod, 20, nil) }})
	}
	for _, p := range []struct {
		p *testprob.Problem
		n int
	}{{testprob.Blast2D, 64}, {testprob.Blast3D, 16}} {
		for _, rc := range []recon.Scheme{recon.PLM{Lim: recon.MonotonizedCentral}, recon.PPM{}} {
			runs = append(runs, run{fmt.Sprintf("%s-%d-%s", p.p.Name, p.n, rc.Name()),
				func() *grid.Grid { return p.p.NewGrid(p.n, rc.Ghost()) },
				func(g *grid.Grid) { goldenSteps(t, g, rc, p.p.Gamma, p.p.Init, 4, nil) }})
		}
	}
	runs = append(runs, run{"nan-ppm",
		func() *grid.Grid {
			g := grid.New(grid.Geometry{Nx: 32, Ny: 1, Nz: 1, Ng: 3, X0: 0, X1: 1})
			g.SetAllBCs(grid.Outflow)
			return g
		},
		func(g *grid.Grid) {
			goldenSteps(t, g, recon.PPM{}, 5.0/3.0,
				func(_, _, _ float64) state.Prim { return state.Prim{Rho: 1, Vx: 0.1, P: 1} }, 1,
				func(g *grid.Grid) { g.W.Comp[state.IRho][g.IBeg()+16] = math.NaN() })
		}})

	want := loadNewtonGolden(t)
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			g := r.g()
			r.do(g)
			got := newtonGolden{U: fingerprint(g.U), W: fingerprint(g.W)}
			if want == nil {
				return
			}
			if w, ok := want[r.name]; !ok || got != w {
				t.Fatalf("fingerprints u=%s w=%s, golden %+v", got.U, got.W, w)
			}
		})
	}
}

// loadNewtonGolden returns this architecture's rows, or nil (with a log
// line) where none were recorded: other architectures contract
// multiply-adds differently, so their bits legitimately differ.
func loadNewtonGolden(t *testing.T) map[string]newtonGolden {
	t.Helper()
	blob, err := os.ReadFile("testdata/newton_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(blob, &all); err != nil {
		t.Fatal(err)
	}
	raw, ok := all[runtime.GOARCH]
	if !ok {
		t.Logf("no newton goldens recorded for GOARCH=%s; skipping the golden comparison", runtime.GOARCH)
		return nil
	}
	var arch map[string]newtonGolden
	if err := json.Unmarshal(raw, &arch); err != nil {
		t.Fatal(err)
	}
	return arch
}
