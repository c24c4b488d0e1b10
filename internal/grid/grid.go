// Package grid provides the uniform structured mesh of the solver: cell
// indexing with ghost layers, coordinate geometry in one to three
// dimensions, and boundary-condition application (outflow, periodic,
// reflecting).
//
// Index layout is x-fastest: idx = (k·TotalY + j)·TotalX + i, so sweeps
// along x stream through memory — the layout the strip-parallel RHS and
// the (simulated) accelerator kernels both assume.
package grid

import (
	"fmt"

	"rhsc/internal/state"
)

// BC identifies a boundary condition on one face of the domain.
type BC int

// Supported boundary conditions.
const (
	// Outflow copies the nearest interior cell into the ghosts
	// (zero-gradient).
	Outflow BC = iota
	// Periodic wraps the domain.
	Periodic
	// Reflect mirrors the interior and flips the normal velocity/momentum
	// component.
	Reflect
	// External marks a face whose ghosts are filled by an external agent
	// (an inter-rank halo exchange); ApplyBCs leaves them untouched.
	External
	// Custom marks a face filled by the grid's CustomFill hook — used for
	// inflow/injection boundaries (e.g. a relativistic jet nozzle).
	Custom
)

// String implements fmt.Stringer.
func (b BC) String() string {
	switch b {
	case Outflow:
		return "outflow"
	case Periodic:
		return "periodic"
	case Reflect:
		return "reflect"
	case External:
		return "external"
	case Custom:
		return "custom"
	}
	return fmt.Sprintf("BC(%d)", int(b))
}

// Geometry describes the physical extent and resolution of a grid.
type Geometry struct {
	Nx, Ny, Nz int     // interior cells per dimension (use 1 to deactivate)
	Ng         int     // ghost layers in each active dimension
	X0, X1     float64 // physical bounds
	Y0, Y1     float64
	Z0, Z1     float64

	// Global anchoring for domain decomposition: when GlobalDx > 0, the x
	// coordinates and spacing are computed from the global grid as
	// X(i) = GlobalX0 + (IOffset + i − Ng + 0.5)·GlobalDx, so every rank
	// reproduces the undecomposed grid's cell centres bitwise. X0/X1 then
	// only describe this rank's nominal extent. GlobalDy/JOffset provide
	// the same anchoring along y for two-dimensional decompositions.
	GlobalX0 float64
	GlobalDx float64
	IOffset  int
	GlobalY0 float64
	GlobalDy float64
	JOffset  int
}

// Grid is a uniform mesh with ghost zones holding conserved and primitive
// fields.
type Grid struct {
	Geometry

	// TotalX/Y/Z include ghost layers in active dimensions.
	TotalX, TotalY, TotalZ int
	// Dx/Dy/Dz are the cell sizes (zero-extent inactive dims get 1 so that
	// volume factors stay trivial).
	Dx, Dy, Dz float64

	// U holds the conserved variables, W the primitives.
	U *state.Fields
	W *state.Fields

	// BCs[d][side] is the boundary condition on dimension d (0=x,1=y,2=z),
	// side 0 = lower face, 1 = upper face.
	BCs [3][2]BC

	// CustomFill[d][side], required for faces marked Custom, fills that
	// face's ghost zones of f, which is g.W or g.U: compare to know
	// whether to write primitive or conserved values. Only ApplyBCs calls
	// it, after the FillGhosts passes, so it may overwrite edge ghosts its
	// face owns; other arrays (masks, tracers) see the face untouched.
	CustomFill [3][2]func(g *Grid, f *state.Fields)

	// dims caches ActiveDims: the active dimensions are fixed at
	// construction, and the per-step hot path asks for them repeatedly.
	dims []state.Direction
}

// New allocates a grid for the geometry. Dimensions with N == 1 are
// inactive: they carry no ghost layers and the solver skips sweeps along
// them.
func New(geom Geometry) *Grid {
	if geom.Nx < 1 || geom.Ny < 1 || geom.Nz < 1 {
		panic(fmt.Sprintf("grid: non-positive cell counts %dx%dx%d", geom.Nx, geom.Ny, geom.Nz))
	}
	if geom.Ng < 1 {
		panic("grid: need at least one ghost layer")
	}
	if geom.X1 <= geom.X0 {
		panic("grid: X bounds not increasing")
	}
	g := &Grid{Geometry: geom}
	g.TotalX = geom.Nx + 2*geom.Ng
	g.TotalY, g.TotalZ = geom.Ny, geom.Nz
	if geom.Ny > 1 {
		g.TotalY += 2 * geom.Ng
	}
	if geom.Nz > 1 {
		g.TotalZ += 2 * geom.Ng
	}
	if geom.GlobalDx > 0 {
		g.Dx = geom.GlobalDx
	} else {
		g.Dx = (geom.X1 - geom.X0) / float64(geom.Nx)
	}
	g.Dy, g.Dz = 1, 1
	if geom.Ny > 1 {
		if geom.Y1 <= geom.Y0 {
			panic("grid: Y bounds not increasing")
		}
		if geom.GlobalDy > 0 {
			g.Dy = geom.GlobalDy
		} else {
			g.Dy = (geom.Y1 - geom.Y0) / float64(geom.Ny)
		}
	}
	if geom.Nz > 1 {
		if geom.Z1 <= geom.Z0 {
			panic("grid: Z bounds not increasing")
		}
		g.Dz = (geom.Z1 - geom.Z0) / float64(geom.Nz)
	}
	n := g.TotalX * g.TotalY * g.TotalZ
	g.U = state.NewFields(n)
	g.W = state.NewFields(n)
	g.dims = []state.Direction{state.X}
	if g.Ny > 1 {
		g.dims = append(g.dims, state.Y)
	}
	if g.Nz > 1 {
		g.dims = append(g.dims, state.Z)
	}
	return g
}

// Dim returns the number of active dimensions.
func (g *Grid) Dim() int {
	d := 1
	if g.Ny > 1 {
		d++
	}
	if g.Nz > 1 {
		d++
	}
	return d
}

// ActiveDims returns the directions the solver must sweep. The slice is
// owned by the grid (allocated once at construction — the step hot path
// calls this per RHS evaluation); callers must not mutate it.
func (g *Grid) ActiveDims() []state.Direction {
	return g.dims
}

// Idx returns the flat index of total-coordinates (i, j, k).
func (g *Grid) Idx(i, j, k int) int {
	return (k*g.TotalY+j)*g.TotalX + i
}

// NCells returns the total cell count including ghosts.
func (g *Grid) NCells() int { return g.TotalX * g.TotalY * g.TotalZ }

// Interior bounds: [IBeg, IEnd) etc. in total coordinates.
func (g *Grid) IBeg() int { return g.Ng }
func (g *Grid) IEnd() int { return g.Ng + g.Nx }
func (g *Grid) JBeg() int {
	if g.Ny > 1 {
		return g.Ng
	}
	return 0
}
func (g *Grid) JEnd() int { return g.JBeg() + g.Ny }
func (g *Grid) KBeg() int {
	if g.Nz > 1 {
		return g.Ng
	}
	return 0
}
func (g *Grid) KEnd() int { return g.KBeg() + g.Nz }

// X returns the x coordinate of the cell center with total index i.
func (g *Grid) X(i int) float64 {
	if g.GlobalDx > 0 {
		return g.GlobalX0 + (float64(g.IOffset+i-g.Ng)+0.5)*g.GlobalDx
	}
	return g.X0 + (float64(i-g.Ng)+0.5)*g.Dx
}

// Y returns the y coordinate of the cell center with total index j.
func (g *Grid) Y(j int) float64 {
	if g.Ny == 1 {
		return 0.5 * (g.Y0 + g.Y1)
	}
	if g.GlobalDy > 0 {
		return g.GlobalY0 + (float64(g.JOffset+j-g.Ng)+0.5)*g.GlobalDy
	}
	return g.Y0 + (float64(j-g.Ng)+0.5)*g.Dy
}

// Z returns the z coordinate of the cell center with total index k.
func (g *Grid) Z(k int) float64 {
	if g.Nz == 1 {
		return 0.5 * (g.Z0 + g.Z1)
	}
	return g.Z0 + (float64(k-g.Ng)+0.5)*g.Dz
}

// CellVolume returns the volume of one cell (only active dimensions
// contribute).
func (g *Grid) CellVolume() float64 {
	v := g.Dx
	if g.Ny > 1 {
		v *= g.Dy
	}
	if g.Nz > 1 {
		v *= g.Dz
	}
	return v
}

// SetAllBCs sets every face of every active dimension.
func (g *Grid) SetAllBCs(bc BC) {
	for _, d := range g.ActiveDims() {
		g.BCs[d] = [2]BC{bc, bc}
	}
}

// ForEachInterior calls fn for every interior cell with its flat index and
// total coordinates.
func (g *Grid) ForEachInterior(fn func(idx, i, j, k int)) {
	for k := g.KBeg(); k < g.KEnd(); k++ {
		for j := g.JBeg(); j < g.JEnd(); j++ {
			base := (k*g.TotalY + j) * g.TotalX
			for i := g.IBeg(); i < g.IEnd(); i++ {
				fn(base+i, i, j, k)
			}
		}
	}
}

// ApplyBCs fills the ghost zones of f according to the grid's boundary
// conditions: FillGhosts per component, the vector components (indices
// 1..3 of both conserved and primitive fields) negated across their own
// axis's Reflect faces, then the CustomFill hook of every Custom face.
func (g *Grid) ApplyBCs(f *state.Fields) {
	if f.N != g.NCells() {
		panic("grid: ApplyBCs field size mismatch")
	}
	for c := range f.Comp {
		normal := Scalar
		if c >= int(state.IVx) && c <= int(state.IVz) {
			normal = c - int(state.IVx)
		}
		FillGhosts(g, f.Comp[c], normal)
	}
	for d := 0; d < 3; d++ {
		for side := 0; side < 2; side++ {
			if g.BCs[d][side] == Custom {
				fill := g.CustomFill[d][side]
				if fill == nil {
					panic(fmt.Sprintf("grid: face %d/%d marked Custom without CustomFill", d, side))
				}
				fill(g, f)
			}
		}
	}
}

// Scalar is FillGhosts' normal for a value that no Reflect face negates:
// densities, pressures, fail-safe masks, tracers.
const Scalar = -1

// FillGhosts fills the ghost zones of f, one value per cell of g, on the
// Outflow, Periodic and Reflect faces: Outflow copies the nearest interior
// layer, Periodic wraps, Reflect mirrors and negates when f is the vector
// component along the face's axis (normal = 0, 1, 2 for x, y, z; Scalar
// otherwise). Axes go x, then y, then z, and the lower face before the
// upper, so edge and corner ghosts compose; External and Custom faces are
// left untouched. Each face's offsets are worked out once: ghost layer t
// reads layer src+step·t along the axis, copied a contiguous run at a
// time. It allocates nothing.
func FillGhosts[T ~float64 | ~uint8](g *Grid, f []T, normal int) {
	if len(f) != g.NCells() {
		panic("grid: FillGhosts field size mismatch")
	}
	ng := g.Ng
	stride := 1 // distance between neighbouring layers along the axis
	for d, total := range [3]int{g.TotalX, g.TotalY, g.TotalZ} {
		n, plane := total-2*ng, stride*total
		if d > 0 && total == 1 {
			continue // inactive axis: no ghosts, and plane == stride
		}
		for side, dst := range [2]int{0, ng + n} {
			var src, step int
			switch g.BCs[d][side] {
			case Outflow:
				src, step = [2]int{ng, ng + n - 1}[side], 0
			case Periodic:
				src, step = [2]int{n, ng}[side], 1
			case Reflect:
				src, step = [2]int{2*ng - 1, ng + n - 1}[side], -1
			default:
				continue
			}
			neg := g.BCs[d][side] == Reflect && normal == d
			if stride == 1 { // x: runs of one cell, copied without a call
				for base := 0; base < len(f); base += plane {
					row := f[base : base+plane]
					for t := 0; t < ng; t++ {
						v := row[src+step*t]
						if neg {
							v = -v
						}
						row[dst+t] = v
					}
				}
				continue
			}
			for base := 0; base < len(f); base += plane {
				for t := 0; t < ng; t++ {
					to := f[base+(dst+t)*stride:][:stride]
					from := f[base+(src+step*t)*stride:][:stride]
					if neg {
						for i, v := range from {
							to[i] = -v
						}
					} else {
						copy(to, from)
					}
				}
			}
		}
		stride = plane
	}
}

// kahanSum accumulates with Neumaier compensation so conservation
// diagnostics on large grids are not polluted by summation roundoff.
type kahanSum struct{ s, c float64 }

func (k *kahanSum) add(x float64) {
	t := k.s + x
	if absK(k.s) >= absK(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

func (k *kahanSum) value() float64 { return k.s + k.c }

func absK(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TotalMass returns Σ D·dV over the interior — the conserved baryon mass,
// used by the conservation tests and diagnostics (compensated summation).
func (g *Grid) TotalMass() float64 {
	vol := g.CellVolume()
	var sum kahanSum
	g.ForEachInterior(func(idx, _, _, _ int) {
		sum.add(g.U.Comp[state.ID][idx])
	})
	return sum.value() * vol
}

// TotalEnergy returns Σ (τ + D)·dV over the interior.
func (g *Grid) TotalEnergy() float64 {
	vol := g.CellVolume()
	var sum kahanSum
	g.ForEachInterior(func(idx, _, _, _ int) {
		sum.add(g.U.Comp[state.ITau][idx] + g.U.Comp[state.ID][idx])
	})
	return sum.value() * vol
}

// TotalMomentum returns the conserved momentum components integrated over
// the interior.
func (g *Grid) TotalMomentum() (sx, sy, sz float64) {
	vol := g.CellVolume()
	g.ForEachInterior(func(idx, _, _, _ int) {
		sx += g.U.Comp[state.ISx][idx]
		sy += g.U.Comp[state.ISy][idx]
		sz += g.U.Comp[state.ISz][idx]
	})
	return sx * vol, sy * vol, sz * vol
}
