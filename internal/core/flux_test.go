package core

import (
	"math"
	"math/rand"
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// fillFluxRef is fillFlux as it stood before the row passes replaced the
// face loop, kept verbatim: IsPhysical, Face.Eval and Kind.Flux per face.
func (m *method) fillFluxRef(d state.Direction, u [state.NComp][]float64, n, cBeg, cEnd int,
	sc *rowScratch) {

	for c := 0; c < state.NComp; c++ {
		m.recon.Reconstruct(u[c], sc.fl[c][:n+1], sc.fr[c][:n+1])
	}

	var l, r riemann.Face
	for f := cBeg; f <= cEnd; f++ {
		pl := state.Prim{
			Rho: sc.fl[state.IRho][f], Vx: sc.fl[state.IVx][f],
			Vy: sc.fl[state.IVy][f], Vz: sc.fl[state.IVz][f], P: sc.fl[state.IP][f],
		}
		pr := state.Prim{
			Rho: sc.fr[state.IRho][f], Vx: sc.fr[state.IVx][f],
			Vy: sc.fr[state.IVy][f], Vz: sc.fr[state.IVz][f], P: sc.fr[state.IP][f],
		}
		// Fall back to first-order states when high-order reconstruction
		// produced an inadmissible face state (possible near strong shocks
		// and vacuum).
		if !pl.IsPhysical() {
			pl = state.Prim{
				Rho: u[state.IRho][f-1], Vx: u[state.IVx][f-1],
				Vy: u[state.IVy][f-1], Vz: u[state.IVz][f-1], P: u[state.IP][f-1],
			}
		}
		if !pr.IsPhysical() {
			pr = state.Prim{
				Rho: u[state.IRho][f], Vx: u[state.IVx][f],
				Vy: u[state.IVy][f], Vz: u[state.IVz][f], P: u[state.IP][f],
			}
		}
		var hl, cl, hr, cr float64
		if m.ideal {
			hl, cl = m.gas.Enthalpy(pl.Rho, pl.P), m.gas.SoundSpeed2(pl.Rho, pl.P)
			hr, cr = m.gas.Enthalpy(pr.Rho, pr.P), m.gas.SoundSpeed2(pr.Rho, pr.P)
		} else {
			hl, cl = m.eos.Enthalpy(pl.Rho, pl.P), m.eos.SoundSpeed2(pl.Rho, pl.P)
			hr, cr = m.eos.Enthalpy(pr.Rho, pr.P), m.eos.SoundSpeed2(pr.Rho, pr.P)
		}
		l.Eval(hl, cl, pl, d)
		r.Eval(hr, cr, pr, d)
		sc.fx[state.ID][f], sc.fx[state.ISx][f], sc.fx[state.ISy][f], sc.fx[state.ISz][f],
			sc.fx[state.ITau][f] = m.kind.Flux(&l, &r, d)
	}
}

// seed is one face state overwritten after reconstruction.
type seed struct {
	face, comp int
	right      bool
	v          float64
}

// seededRecon reconstructs with Scheme and then overwrites the seeded face
// states, so the admissibility fallback fires at known faces: face f of
// a row through Reconstruct, and face f of every lane through Edges, where
// the cell at field index idx is cell idx/stride of lane idx%stride (a row
// has stride 1 and one lane). Both reconstruct the components in order,
// so call k is component k mod NComp.
type seededRecon struct {
	recon.Scheme
	calls int
	seeds []seed
}

func (s *seededRecon) Reconstruct(u, uL, uR []float64) {
	s.Scheme.Reconstruct(u, uL, uR)
	c := s.calls % state.NComp
	s.calls++
	for _, sd := range s.seeds {
		if sd.comp != c {
			continue
		}
		if sd.right {
			uR[sd.face] = sd.v
		} else {
			uL[sd.face] = sd.v
		}
	}
}

// Edges writes a seed on the right state of face f into cell f's left
// edge, and one on the left state into cell f−1's right edge.
func (s *seededRecon) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	s.Scheme.Edges(u, base, stride, lines, lo, hi)
	c := s.calls % state.NComp
	s.calls++
	n := len(lo) / lines
	for q := 0; q < lines; q++ {
		for i := 0; i < n; i++ {
			cell := (base + q*stride + i) / stride
			for _, sd := range s.seeds {
				switch {
				case sd.comp != c:
				case sd.right && cell == sd.face:
					lo[q*n+i] = sd.v
				case !sd.right && cell == sd.face-1:
					hi[q*n+i] = sd.v
				}
			}
		}
	}
}

// newMethod resolves a method the way Solver.resolveMethod does.
func newMethod(rc recon.Scheme, k riemann.Kind, e eos.EOS) method {
	m := method{recon: rc, kind: k, eos: e}
	m.gas, m.ideal = e.(eos.IdealGas)
	return m
}

// randomRow fills n cells with admissible primitives: smooth data with a
// strong blast jump every eighth cell.
func randomRow(rng *rand.Rand, n int) (u [state.NComp][]float64) {
	for c := range u {
		u[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		v := 0.3 * rng.Float64()
		th, ph := math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		p := state.Prim{
			Rho: 0.5 + rng.Float64(), P: 0.1 + rng.Float64(),
			Vx: v * math.Sin(th) * math.Cos(ph), Vy: v * math.Sin(th) * math.Sin(ph), Vz: v * math.Cos(th),
		}
		if i%8 == 0 {
			p.Rho, p.P = 1e-3, 1e3
		}
		for c, x := range [state.NComp]float64{p.Rho, p.Vx, p.Vy, p.Vz, p.P} {
			u[c][i] = x
		}
	}
	return u
}

// The face pipeline against the per-face loop it replaced, on a one-line
// x row and on a plane of six lanes whose faces take several EvalRow
// runs, with inadmissible edges seeded into the reconstruction — p < 0,
// p = −0, v² ≥ 1 (exactly 1, rounding to 1, infinite), NaN ρ and p,
// ρ ≤ 0 — including the first and last face, on both sides: every scheme,
// solver, closure and direction, bitwise.
func TestFillFluxMatchesFaceLoop(t *testing.T) {
	const n, ghost, lanes = 41, 3, 6
	cBeg, cEnd := ghost, n-ghost
	seeds := []seed{
		{cBeg, state.IP, false, -1},
		{cBeg, state.IVx, true, 1}, {cBeg, state.IVy, true, 0}, {cBeg, state.IVz, true, 0},
		{cBeg + 2, state.IRho, false, math.NaN()},
		{cBeg + 3, state.IP, true, math.Copysign(0, -1)},
		{cBeg + 5, state.IVx, false, 0.8}, {cBeg + 5, state.IVy, false, 0.6}, {cBeg + 5, state.IVz, false, 0},
		{cBeg + 6, state.IRho, true, 0},
		{cBeg + 9, state.IRho, false, math.Copysign(0, -1)},
		{cBeg + 7, state.IRho, false, -1e-300}, {cBeg + 7, state.IRho, true, -1e-300},
		{cBeg + 11, state.IVz, true, math.Inf(1)},
		{cBeg + 13, state.IP, false, math.NaN()},
		{cEnd, state.IP, true, -2},
		{cEnd, state.IVy, false, -1.5},
	}
	// The cells cBeg−1 … cEnd of each lane, whose faces are cBeg … cEnd.
	// Cell r of lane i is field index r·stride + i.
	row := grid.FaceBlock{Base: cBeg - 1, Stride: 1, Lines: 1, Lanes: cEnd - cBeg + 2, Next: 1}
	plane := grid.FaceBlock{Base: (cBeg - 1) * lanes, Stride: lanes, Lines: cEnd - cBeg + 2, Lanes: lanes, Next: lanes}
	scNew, scRef := newRowScratch((plane.Lines+1)*lanes, n+1), newRowScratch(n+1, n+1)
	rng := rand.New(rand.NewSource(5))
	closures := []eos.EOS{eos.NewIdealGas(5.0 / 3.0), eos.TaubMathews{}, eos.NewHybrid(0.1, 2, 5.0/3.0)}
	for _, rc := range allRecon() {
		for _, rs := range allRiemann() {
			for _, e := range closures {
				for _, d := range []state.Direction{state.X, state.Y, state.Z} {
					for _, blk := range []grid.FaceBlock{row, plane} {
						blk.D = d
						w := state.NewFields(n * blk.Stride)
						cols := make([][state.NComp][]float64, blk.Stride)
						for i := range cols {
							cols[i] = randomRow(rng, n)
							for c := range w.Comp {
								for r, v := range cols[i][c] {
									w.Comp[c][r*blk.Stride+i] = v
								}
							}
						}
						m := newMethod(&seededRecon{Scheme: rc, seeds: seeds}, rs.Kind(), e)
						m.fluxes(w, &blk, scNew)
						for i, u := range cols {
							ref := newMethod(&seededRecon{Scheme: rc, seeds: seeds}, rs.Kind(), e)
							ref.fillFluxRef(d, u, n, cBeg, cEnd, scRef)
							for c := 0; c < state.NComp; c++ {
								for f := cBeg; f <= cEnd; f++ {
									got, want := scNew.fx[c][(f-cBeg+1)*blk.Next+i], scRef.fx[c][f]
									if math.Float64bits(got) != math.Float64bits(want) {
										t.Fatalf("%s/%s/%s dir %v, %d lanes: flux[%d] at face %d of lane %d = %v, face loop %v",
											rc.Name(), rs.Name(), e.Name(), d, blk.Stride, c, f, i, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// rowCFL against maxAbsSpeed per cell and direction, for the
// inlined Γ-law sound speed and the interface one, on random states: each
// row's maximum is a different random cell.
func TestRowCFLMatchesMaxAbsSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, e := range []eos.EOS{eos.NewIdealGas(4.0 / 3.0), eos.TaubMathews{}} {
		s := newSteppedSolver(t, testprob.Blast2D, 32, 0, func(c *Config) { c.EOS = e })
		g := s.G
		for trial := 0; trial < 20; trial++ {
			for j := g.JBeg(); j < g.JEnd(); j++ {
				row := g.Idx(0, j, g.KBeg())
				want := 0.0
				for i := g.IBeg(); i < g.IEnd(); i++ {
					v := 0.99 * rng.Float64()
					th, ph := math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
					p := state.Prim{
						Rho: math.Exp(rng.Float64()*6 - 3), P: math.Exp(rng.Float64()*6 - 3),
						Vx: v * math.Sin(th) * math.Cos(ph), Vy: v * math.Sin(th) * math.Sin(ph), Vz: v * math.Cos(th),
					}
					g.W.SetPrim(row+i, p)
					sum := maxAbsSpeed(e, p, state.X)/g.Dx + maxAbsSpeed(e, p, state.Y)/g.Dy
					if sum > want {
						want = sum
					}
				}
				if got := s.rowCFL(row); got != want {
					t.Fatalf("%s row %d: rowCFL = %v, per-direction MaxAbsSpeed %v", e.Name(), j, got, want)
				}
			}
		}
	}
}

// BenchmarkFluxRow measures the face pipeline on an x row — PLM-MC
// edges, the admissibility pass, both face evaluations and the Riemann
// combine — per face, on a quiescent row (uniform gas at rest) and a
// shocked one (randomRow: smooth data with a blast jump every eighth
// cell, where the fallback and the supersonic and star branches fire).
// Rows are those of the 48³ PLM step: 48 cells and two ghosts a side.
func BenchmarkFluxRow(b *testing.B) {
	const n = 52
	sc := newRowScratch(n+1, n)
	blk := grid.FaceBlock{D: state.X, Base: 1, Stride: 1, Lines: 1, Lanes: n - 2, Next: 1}
	for _, rs := range allRiemann() {
		for _, kind := range []string{"quiescent", "shocked"} {
			w := &state.Fields{N: n, Comp: randomRow(rand.New(rand.NewSource(1)), n)}
			if kind == "quiescent" {
				for c, x := range [state.NComp]float64{1, 0, 0, 0, 0.1} {
					for i := range w.Comp[c] {
						w.Comp[c][i] = x
					}
				}
			}
			m := newMethod(recon.PLM{Lim: recon.MonotonizedCentral}, rs.Kind(), eos.NewIdealGas(5.0/3.0))
			b.Run(rs.Name()+"/"+kind, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.fluxes(w, &blk, sc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n-3), "ns/face")
			})
		}
	}
}

// maxAbsSpeed returns max(|λ−|, |λ+|) along direction d — the CFL speed.
// The builtin max inlines (math.Max is a call) and differs from it only on
// an (±Inf, NaN) pair, which finite wave speeds never form.
func maxAbsSpeed(e eos.EOS, p state.Prim, d state.Direction) float64 {
	lm, lp := state.SignalSpeeds(e.SoundSpeed2(p.Rho, p.P), p.VSq(), p.V(d))
	return max(math.Abs(lm), math.Abs(lp))
}
