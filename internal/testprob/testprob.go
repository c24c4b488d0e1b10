// Package testprob catalogues the standard test problems of relativistic
// HRSC codes: the Martí–Müller shock tubes, smooth advection (with an
// exact solution for convergence measurements), the 2-D cylindrical blast
// wave, the relativistic Kelvin–Helmholtz instability, the reflecting-wall
// shock-heating problem, and a reflecting-box implosion.
//
// Every problem carries its canonical domain, boundary conditions,
// adiabatic index and end time, so examples, tests and the benchmark
// harness all run exactly the same setups.
package testprob

import (
	"fmt"
	"math"
	"sort"

	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// Problem is a fully specified initial-value problem.
type Problem struct {
	Name  string
	Desc  string
	Gamma float64 // adiabatic index of the canonical setup
	TEnd  float64 // canonical evolution time
	Dim   int     // 1, 2 or 3
	BC    grid.BC // boundary condition on all faces
	// Domain bounds per dimension; unused dimensions are {0, 1}. 3-D
	// problems reuse the y bounds for z.
	X0, X1, Y0, Y1 float64
	// Init returns the primitive state at a position.
	Init func(x, y, z float64) state.Prim
	// SetupGrid, when non-nil, customises the grid after the default
	// boundary conditions are applied (e.g. installs an inflow nozzle).
	// SetFaces runs it on every block of every driver; faces shared with
	// another block then become External whatever it set.
	SetupGrid func(g *grid.Grid)
}

// Geometry returns a grid geometry for the problem at resolution n (cells
// along x; higher-dimensional problems get proportionally scaled y and z
// resolution) with the given ghost width.
func (p *Problem) Geometry(n, ng int) grid.Geometry {
	geom := grid.Geometry{Nx: n, Ny: 1, Nz: 1, Ng: ng, X0: p.X0, X1: p.X1, Y0: p.Y0, Y1: p.Y1}
	if p.Dim >= 2 {
		aspect := (p.Y1 - p.Y0) / (p.X1 - p.X0)
		geom.Ny = int(math.Round(float64(n) * aspect))
		if geom.Ny < 4 {
			geom.Ny = 4
		}
	}
	if p.Dim >= 3 {
		geom.Nz = geom.Ny
		geom.Z0, geom.Z1 = p.Y0, p.Y1
	}
	return geom
}

// NewGrid builds the grid and applies the problem's boundary conditions.
func (p *Problem) NewGrid(n, ng int) *grid.Grid {
	return p.BlockGrid(p.Geometry(n, ng), [3]int{}, [3]int{1, 1, 1})
}

// BlockGrid builds the grid of one block of the domain, its faces set by
// SetFaces.
func (p *Problem) BlockGrid(geom grid.Geometry, pos, count [3]int) *grid.Grid {
	g := grid.New(geom)
	p.SetFaces(g, pos, count)
	return g
}

// SetFaces sets the faces of g as block pos[d] of count[d] along each
// axis d: a rank's subdomain, an AMR leaf, or (pos 0 of 1) the whole
// domain. It applies the problem's BC and SetupGrid, so an inflow face is
// the same on every driver, then marks External every face shared with
// another block, to be filled by the driver: the lower face when pos > 0,
// the upper when pos < count−1, and both when a periodic axis has more
// than one block (its domain faces wrap to another block).
func (p *Problem) SetFaces(g *grid.Grid, pos, count [3]int) {
	g.SetAllBCs(p.BC)
	if p.SetupGrid != nil {
		p.SetupGrid(g)
	}
	for _, d := range g.ActiveDims() {
		wraps := p.BC == grid.Periodic && count[d] > 1
		if pos[d] > 0 || wraps {
			g.BCs[d][0] = grid.External
		}
		if pos[d] < count[d]-1 || wraps {
			g.BCs[d][1] = grid.External
		}
	}
}

// registry holds all problems by name.
var registry = map[string]*Problem{}

func register(p *Problem) *Problem {
	registry[p.Name] = p
	return p
}

// ByName returns the named problem.
func ByName(name string) (*Problem, error) {
	if p, ok := registry[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("testprob: unknown problem %q (have %v)", name, Names())
}

// Names lists the registered problem names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sod is Martí–Müller Problem 1: the relativistic Sod shock tube.
// Left (10, 0, 13.33), right (1, 0, 1e-6), Γ = 5/3, t = 0.4.
var Sod = register(&Problem{
	Name:  "sod",
	Desc:  "Martí–Müller Problem 1: relativistic Sod shock tube",
	Gamma: 5.0 / 3.0,
	TEnd:  0.4,
	Dim:   1,
	BC:    grid.Outflow,
	X0:    0, X1: 1, Y0: 0, Y1: 1,
	Init: func(x, _, _ float64) state.Prim {
		if x < 0.5 {
			return state.Prim{Rho: 10, P: 13.33}
		}
		return state.Prim{Rho: 1, P: 1e-6}
	},
})

// Blast is Martí–Müller Problem 2: the relativistic blast wave with
// pressure ratio 1e5 producing a thin, W≈3.6 shell.
var Blast = register(&Problem{
	Name:  "blast",
	Desc:  "Martí–Müller Problem 2: relativistic blast wave (p ratio 1e5)",
	Gamma: 5.0 / 3.0,
	TEnd:  0.35,
	Dim:   1,
	BC:    grid.Outflow,
	X0:    0, X1: 1, Y0: 0, Y1: 1,
	Init: func(x, _, _ float64) state.Prim {
		if x < 0.5 {
			return state.Prim{Rho: 1, P: 1000}
		}
		return state.Prim{Rho: 1, P: 0.01}
	},
})

// SmoothWaveV is the advection speed of the smooth-wave problem.
const SmoothWaveV = 0.5

// SmoothWaveRho returns the exact density of the smooth-wave problem at
// position x and time t (period-1 advection at SmoothWaveV).
func SmoothWaveRho(x, t float64) float64 {
	s := math.Mod(x-SmoothWaveV*t, 1)
	if s < 0 {
		s++
	}
	return 1 + 0.3*math.Sin(2*math.Pi*s)
}

// SmoothWave advects a sinusoidal density profile at constant velocity and
// pressure: an exact contact-mode solution used for convergence orders.
var SmoothWave = register(&Problem{
	Name:  "smooth-wave",
	Desc:  "sinusoidal density advection with exact solution",
	Gamma: 5.0 / 3.0,
	TEnd:  0.4,
	Dim:   1,
	BC:    grid.Periodic,
	X0:    0, X1: 1, Y0: 0, Y1: 1,
	Init: func(x, _, _ float64) state.Prim {
		return state.Prim{Rho: SmoothWaveRho(x, 0), Vx: SmoothWaveV, P: 1}
	},
})

// ShockHeating slams cold ultra-relativistic flow (W = 10) into a
// reflecting wall; the post-shock state has an analytic solution and the
// problem is a stringent test of the c2p solver's high-W path.
var ShockHeating = register(&Problem{
	Name:  "shock-heating",
	Desc:  "cold W=10 inflow against a reflecting wall",
	Gamma: 4.0 / 3.0,
	TEnd:  0.5,
	Dim:   1,
	BC:    grid.Reflect,
	X0:    0, X1: 1, Y0: 0, Y1: 1,
	Init: func(x, _, _ float64) state.Prim {
		v := -math.Sqrt(1 - 1.0/100.0) // W = 10 moving left
		return state.Prim{Rho: 1, Vx: v, P: 1e-6}
	},
})

// Blast2D is the cylindrical relativistic blast wave in a square box.
var Blast2D = register(&Problem{
	Name:  "blast2d",
	Desc:  "cylindrical relativistic blast wave",
	Gamma: 5.0 / 3.0,
	TEnd:  0.4,
	Dim:   2,
	BC:    grid.Outflow,
	X0:    -1, X1: 1, Y0: -1, Y1: 1,
	Init: func(x, y, _ float64) state.Prim {
		if x*x+y*y < 0.01 {
			return state.Prim{Rho: 1e-2, P: 1}
		}
		return state.Prim{Rho: 1e-4, P: 5e-6}
	},
})

// KelvinHelmholtz2D is the relativistic shear-layer instability: two
// counter-streaming bands (v = ±0.25) with a density contrast and a small
// sinusoidal transverse perturbation, doubly periodic.
var KelvinHelmholtz2D = register(&Problem{
	Name:  "kh2d",
	Desc:  "relativistic Kelvin–Helmholtz shear instability",
	Gamma: 4.0 / 3.0,
	TEnd:  3.0,
	Dim:   2,
	BC:    grid.Periodic,
	X0:    -0.5, X1: 0.5, Y0: -0.5, Y1: 0.5,
	Init: func(x, y, _ float64) state.Prim {
		const (
			vShear = 0.25
			a      = 0.01 // shear layer width
			sigma  = 0.1  // perturbation width
			amp    = 0.01 // perturbation amplitude
		)
		var vx, rho float64
		if y > 0 {
			vx = vShear * math.Tanh((y-0.25)/a)
			rho = 0.505 + 0.495*math.Tanh((y-0.25)/a)
		} else {
			vx = -vShear * math.Tanh((y+0.25)/a)
			rho = 0.505 - 0.495*math.Tanh((y+0.25)/a)
		}
		vy := amp * vShear * math.Sin(2*math.Pi*x)
		if y > 0 {
			vy *= math.Exp(-(y - 0.25) * (y - 0.25) / (sigma * sigma))
		} else {
			vy *= -math.Exp(-(y + 0.25) * (y + 0.25) / (sigma * sigma))
		}
		return state.Prim{Rho: rho, Vx: vx, Vy: vy, P: 1}
	},
})

// Blast3D is the spherical relativistic blast wave in a cube — the 3-D
// stress test of the unsplit sweeps and the octant symmetries.
var Blast3D = register(&Problem{
	Name:  "blast3d",
	Desc:  "spherical relativistic blast wave",
	Gamma: 5.0 / 3.0,
	TEnd:  0.25,
	Dim:   3,
	BC:    grid.Outflow,
	X0:    -1, X1: 1, Y0: -1, Y1: 1,
	Init: func(x, y, z float64) state.Prim {
		if x*x+y*y+z*z < 0.15 {
			return state.Prim{Rho: 1, P: 50}
		}
		return state.Prim{Rho: 1, P: 0.05}
	},
})

// Implosion2D is a reflecting-box implosion: a low-pressure triangular
// corner region collapses and reverberates, testing reflecting corners and
// long-time symmetry.
var Implosion2D = register(&Problem{
	Name:  "implosion2d",
	Desc:  "reflecting-box implosion (diagonal symmetry test)",
	Gamma: 1.4,
	TEnd:  0.8,
	Dim:   2,
	BC:    grid.Reflect,
	X0:    0, X1: 0.3, Y0: 0, Y1: 0.3,
	Init: func(x, y, _ float64) state.Prim {
		if x+y < 0.15 {
			return state.Prim{Rho: 0.125, P: 0.14}
		}
		return state.Prim{Rho: 1, P: 1}
	},
})

// Relativistic jet parameters (a pressure-matched light jet after Martí
// et al. 1997): beam Lorentz factor ≈ 7 into a dense ambient medium.
const (
	JetRadius   = 0.1  // nozzle half-width
	JetVelocity = 0.99 // beam speed (W ≈ 7.1)
	JetBeamRho  = 0.1  // beam density (light jet, η = 0.1)
	JetAmbRho   = 1.0  // ambient density
	JetPressure = 0.01 // matched pressure
)

// JetBeam returns the beam primitive state.
func JetBeam() state.Prim {
	return state.Prim{Rho: JetBeamRho, Vx: JetVelocity, P: JetPressure}
}

// jetGamma is the jet problem's adiabatic index (kept as a constant to
// avoid an initialisation cycle with the Jet2D registration).
const jetGamma = 5.0 / 3.0

// jetInflow fills the x-lo ghosts: beam state inside the nozzle, outflow
// copy outside it. It writes primitives into the primitive field and
// conserved values into the conserved field.
func jetInflow(g *grid.Grid, f *state.Fields) {
	eosJet := eos.NewIdealGas(jetGamma)
	beamW := JetBeam()
	beamU := beamW.ToCons(eosJet)
	isPrim := f == g.W
	for k := 0; k < g.TotalZ; k++ {
		for j := 0; j < g.TotalY; j++ {
			inNozzle := math.Abs(g.Y(j)) <= JetRadius
			for i := 0; i < g.Ng; i++ {
				idx := g.Idx(i, j, k)
				switch {
				case inNozzle && isPrim:
					f.SetPrim(idx, beamW)
				case inNozzle:
					f.SetCons(idx, beamU)
				default:
					// Outflow copy from the first interior column.
					src := g.Idx(g.IBeg(), j, k)
					for c := 0; c < state.NComp; c++ {
						f.Comp[c][idx] = f.Comp[c][src]
					}
				}
			}
		}
	}
}

// Jet2D injects a relativistic beam (W ≈ 7) into a dense ambient medium:
// the classic light-jet morphology with a bow shock, cocoon and working
// surface — the astrophysical application class the paper's introduction
// motivates.
var Jet2D = register(&Problem{
	Name:  "jet2d",
	Desc:  "pressure-matched relativistic jet (W≈7, eta=0.1)",
	Gamma: jetGamma,
	TEnd:  1.5,
	Dim:   2,
	BC:    grid.Outflow,
	X0:    0, X1: 2, Y0: -0.5, Y1: 0.5,
	Init: func(x, y, _ float64) state.Prim {
		return state.Prim{Rho: JetAmbRho, P: JetPressure}
	},
	SetupGrid: func(g *grid.Grid) {
		g.BCs[0][0] = grid.Custom
		g.CustomFill[0][0] = jetInflow
	},
})

// Rotor2D spins a dense disk inside a light ambient medium: the launched
// torsional waves and the wound-up disk test multidimensional coupling of
// the momentum components (the hydrodynamic version of the MHD rotor).
var Rotor2D = register(&Problem{
	Name:  "rotor2d",
	Desc:  "relativistic rotor: spinning dense disk in light ambient gas",
	Gamma: 5.0 / 3.0,
	TEnd:  0.4,
	Dim:   2,
	BC:    grid.Outflow,
	X0:    -0.5, X1: 0.5, Y0: -0.5, Y1: 0.5,
	Init: func(x, y, _ float64) state.Prim {
		const (
			rDisk = 0.1
			omega = 8.0 // rim speed 0.8
		)
		r := math.Sqrt(x*x + y*y)
		if r < rDisk {
			return state.Prim{
				Rho: 10,
				Vx:  -omega * y,
				Vy:  omega * x,
				P:   1,
			}
		}
		return state.Prim{Rho: 1, P: 1}
	},
})
