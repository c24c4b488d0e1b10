// Package state defines the primitive and conserved variables of special
// relativistic hydrodynamics, the algebraic maps between them (except the
// iterative conserved→primitive inversion, which lives in package c2p), the
// flux vectors, and the characteristic wave speeds.
//
// Conventions (c = 1, flat spacetime, Cartesian coordinates):
//
//	primitive:  ρ (rest-mass density), v^i (coordinate velocity), p (pressure)
//	conserved:  D   = ρ W
//	            S_i = ρ h W² v_i
//	            τ   = ρ h W² − p − D
//
// with W = (1 − v²)^{−1/2} and h = 1 + ε + p/ρ.
package state

import (
	"fmt"
	"math"

	"rhsc/internal/eos"
)

// Component indices shared by the conserved and primitive 5-vectors.
const (
	// Conserved components.
	ID   = 0 // relativistic rest-mass density D
	ISx  = 1 // momentum density S_x
	ISy  = 2 // momentum density S_y
	ISz  = 3 // momentum density S_z
	ITau = 4 // energy density τ = E − D

	// Primitive components.
	IRho = 0 // rest-mass density ρ
	IVx  = 1 // velocity v^x
	IVy  = 2 // velocity v^y
	IVz  = 3 // velocity v^z
	IP   = 4 // pressure p

	// NComp is the number of evolved components.
	NComp = 5
)

// Direction labels the coordinate axis of a flux sweep.
type Direction int

// Coordinate directions.
const (
	X Direction = 0
	Y Direction = 1
	Z Direction = 2
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case X:
		return "x"
	case Y:
		return "y"
	case Z:
		return "z"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Prim is the primitive state of a single cell.
type Prim struct {
	Rho float64 // rest-mass density
	Vx  float64 // velocity components
	Vy  float64
	Vz  float64
	P   float64 // pressure
}

// Cons is the conserved state of a single cell.
type Cons struct {
	D   float64 // ρW
	Sx  float64 // momentum densities
	Sy  float64
	Sz  float64
	Tau float64 // total energy minus D
}

// VSq returns v² = v_x² + v_y² + v_z².
func (p Prim) VSq() float64 {
	return p.Vx*p.Vx + p.Vy*p.Vy + p.Vz*p.Vz
}

// Lorentz returns the Lorentz factor W = (1 − v²)^{−1/2}. It panics if the
// state is superluminal, which is always a solver bug upstream.
func (p Prim) Lorentz() float64 {
	v2 := p.VSq()
	if v2 >= 1 {
		panic(fmt.Sprintf("state: superluminal primitive state v²=%v", v2))
	}
	return 1 / math.Sqrt(1-v2)
}

// V returns the velocity component along direction d.
func (p Prim) V(d Direction) float64 {
	switch d {
	case X:
		return p.Vx
	case Y:
		return p.Vy
	default:
		return p.Vz
	}
}

// IsPhysical reports whether the primitive state is admissible: positive
// density and pressure and subluminal velocity. A NaN fails every
// comparison, so it is never admissible.
func (p Prim) IsPhysical() bool {
	return p.Rho > 0 && p.P > 0 && p.VSq() < 1
}

// ToCons converts the primitive state to conserved variables under the
// given equation of state.
func (p Prim) ToCons(e eos.EOS) Cons {
	w := p.Lorentz()
	h := e.Enthalpy(p.Rho, p.P)
	rhw2 := p.Rho * h * w * w
	d := p.Rho * w
	return Cons{
		D:   d,
		Sx:  rhw2 * p.Vx,
		Sy:  rhw2 * p.Vy,
		Sz:  rhw2 * p.Vz,
		Tau: rhw2 - p.P - d,
	}
}

// S returns the momentum component along direction d.
func (c Cons) S(d Direction) float64 {
	switch d {
	case X:
		return c.Sx
	case Y:
		return c.Sy
	default:
		return c.Sz
	}
}

// SSq returns S² = S_x² + S_y² + S_z².
func (c Cons) SSq() float64 {
	return c.Sx*c.Sx + c.Sy*c.Sy + c.Sz*c.Sz
}

// SignalSpeeds returns the smallest and largest characteristic speeds
// (λ−, λ+) of the SRHD system along a direction, from the squared sound
// speed cs2, v² and the velocity vd along the direction:
//
//	λ± = [ v_d (1−c_s²) ± c_s sqrt( (1−v²)(1 − v²c_s² − v_d²(1−c_s²)) ) ]
//	     / (1 − v² c_s²)
//
// Both lie in (−1, 1) for admissible states. Kernels evaluate the equation
// of state once per state rather than once per direction and pass c_s² in.
// The results are unnamed to fit the compiler's inlining budget.
func SignalSpeeds(cs2, v2, vd float64) (float64, float64) {
	den := 1 - v2*cs2
	disc := (1 - v2) * (1 - v2*cs2 - vd*vd*(1-cs2))
	if disc < 0 {
		disc = 0
	}
	root := math.Sqrt(disc) * math.Sqrt(cs2)
	return (vd*(1-cs2) - root) / den, (vd*(1-cs2) + root) / den
}

// Fields is a struct-of-arrays container for NComp evolved components over
// n cells, backed by one contiguous allocation so that sweeps stream through
// memory. It stores either conserved or primitive data; the component
// indices above give meaning to Comp.
type Fields struct {
	N    int // cells per component
	Comp [NComp][]float64
	back []float64 // single backing array
}

// NewFields allocates a zeroed Fields for n cells.
func NewFields(n int) *Fields {
	if n <= 0 {
		panic("state: NewFields needs n > 0")
	}
	f := &Fields{N: n, back: make([]float64, NComp*n)}
	for c := 0; c < NComp; c++ {
		f.Comp[c] = f.back[c*n : (c+1)*n : (c+1)*n]
	}
	return f
}

// Clone returns a deep copy.
func (f *Fields) Clone() *Fields {
	g := NewFields(f.N)
	copy(g.back, f.back)
	return g
}

// CopyFrom overwrites f with the contents of g. The sizes must match.
func (f *Fields) CopyFrom(g *Fields) {
	if f.N != g.N {
		panic("state: CopyFrom size mismatch")
	}
	copy(f.back, g.back)
}

// GetCons loads cell i as a Cons value.
func (f *Fields) GetCons(i int) Cons {
	return Cons{
		D:   f.Comp[ID][i],
		Sx:  f.Comp[ISx][i],
		Sy:  f.Comp[ISy][i],
		Sz:  f.Comp[ISz][i],
		Tau: f.Comp[ITau][i],
	}
}

// SetCons stores c into cell i.
func (f *Fields) SetCons(i int, c Cons) {
	f.Comp[ID][i] = c.D
	f.Comp[ISx][i] = c.Sx
	f.Comp[ISy][i] = c.Sy
	f.Comp[ISz][i] = c.Sz
	f.Comp[ITau][i] = c.Tau
}

// GetPrim loads cell i as a Prim value.
func (f *Fields) GetPrim(i int) Prim {
	return Prim{
		Rho: f.Comp[IRho][i],
		Vx:  f.Comp[IVx][i],
		Vy:  f.Comp[IVy][i],
		Vz:  f.Comp[IVz][i],
		P:   f.Comp[IP][i],
	}
}

// SetPrim stores p into cell i.
func (f *Fields) SetPrim(i int, p Prim) {
	f.Comp[IRho][i] = p.Rho
	f.Comp[IVx][i] = p.Vx
	f.Comp[IVy][i] = p.Vy
	f.Comp[IVz][i] = p.Vz
	f.Comp[IP][i] = p.P
}

// AXPY computes f ← f + a·g componentwise, the building block of
// Runge–Kutta stage combinations. The sizes must match.
func (f *Fields) AXPY(a float64, g *Fields) {
	if f.N != g.N {
		panic("state: AXPY size mismatch")
	}
	fb, gb := f.back, g.back
	for i := range fb {
		fb[i] += a * gb[i]
	}
}

// LinComb2 computes f ← a·u + b·v componentwise.
func (f *Fields) LinComb2(a float64, u *Fields, b float64, v *Fields) {
	if f.N != u.N || f.N != v.N {
		panic("state: LinComb2 size mismatch")
	}
	fb, ub, vb := f.back, u.back, v.back
	for i := range fb {
		fb[i] = a*ub[i] + b*vb[i]
	}
}

// LinComb2AXPY computes f ← a·u + b·(f + s·g) componentwise in a single
// pass. The per-element arithmetic is exactly f.AXPY(s, g) followed by
// f.LinComb2(a, u, b, f) — the SSP-RK stage combination — without the
// intermediate store/load traversal, so results are bitwise identical.
func (f *Fields) LinComb2AXPY(a float64, u *Fields, b, s float64, g *Fields) {
	if f.N != u.N || f.N != g.N {
		panic("state: LinComb2AXPY size mismatch")
	}
	fb, ub, gb := f.back, u.back, g.back
	for i := range fb {
		fb[i] = a*ub[i] + b*(fb[i]+s*gb[i])
	}
}

// Raw returns the contiguous backing slice (all components). Intended for
// checkpointing and message packing; mutating it mutates the fields.
func (f *Fields) Raw() []float64 { return f.back }
