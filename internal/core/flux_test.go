package core

import (
	"math"
	"math/rand"
	"testing"

	"rhsc/internal/eos"
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
// states, so the admissibility fallback fires at known faces. fillFlux
// reconstructs the components in order, so call k is component k mod
// NComp.
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

// newMethod resolves a method the way Solver.resolveMethod does.
func newMethod(rc recon.Scheme, k riemann.Kind, e eos.EOS) method {
	m := method{recon: rc, kind: k, eos: e}
	m.gas, m.ideal = e.(eos.IdealGas)
	return m
}

// newRowScratch returns row scratch for rows of up to n cells.
func newRowScratch(t testing.TB, n int) *rowScratch {
	t.Helper()
	s, err := New(testprob.Sod.NewGrid(n, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s.newScratch()
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

// The row passes against the per-face loop they replaced, with
// inadmissible reconstructed states seeded into the row — p < 0, p = −0,
// v² ≥ 1 (exactly 1, rounding to 1, infinite), NaN ρ and p, ρ ≤ 0 —
// including the first and last face, on both sides: every scheme,
// solver, closure and direction, bitwise.
func TestFillFluxMatchesFaceLoop(t *testing.T) {
	const n, ghost = 41, 3
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
	scNew, scRef := newRowScratch(t, n), newRowScratch(t, n)
	rng := rand.New(rand.NewSource(5))
	closures := []eos.EOS{eos.NewIdealGas(5.0 / 3.0), eos.TaubMathews{}, eos.NewHybrid(0.1, 2, 5.0/3.0)}
	for _, rc := range allRecon() {
		for _, rs := range allRiemann() {
			for _, e := range closures {
				for _, d := range []state.Direction{state.X, state.Y, state.Z} {
					u := randomRow(rng, n)
					m := newMethod(&seededRecon{Scheme: rc, seeds: seeds}, rs.Kind(), e)
					m.fillFlux(d, u, n, cBeg, cEnd, scNew)
					ref := newMethod(&seededRecon{Scheme: rc, seeds: seeds}, rs.Kind(), e)
					ref.fillFluxRef(d, u, n, cBeg, cEnd, scRef)
					for c := 0; c < state.NComp; c++ {
						for f := cBeg; f <= cEnd; f++ {
							got, want := scNew.fx[c][f], scRef.fx[c][f]
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s/%s/%s dir %v: flux[%d] at face %d = %v, face loop %v",
									rc.Name(), rs.Name(), e.Name(), d, c, f, got, want)
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

// BenchmarkFluxRow measures fillFlux — PLM-MC reconstruction, the
// admissibility pass, both face evaluations and the Riemann combine — per
// face, on a quiescent row (uniform gas at rest) and a shocked one
// (randomRow: smooth data with a blast jump every eighth cell, where the
// fallback and the supersonic and star branches fire). Rows are those of
// the 48³ PLM step: 48 cells and two ghosts a side.
func BenchmarkFluxRow(b *testing.B) {
	const n = 52
	sc := newRowScratch(b, n)
	for _, rs := range allRiemann() {
		for _, kind := range []string{"quiescent", "shocked"} {
			u := randomRow(rand.New(rand.NewSource(1)), n)
			if kind == "quiescent" {
				for c, x := range [state.NComp]float64{1, 0, 0, 0, 0.1} {
					for i := range u[c] {
						u[c][i] = x
					}
				}
			}
			m := newMethod(recon.PLM{Lim: recon.MonotonizedCentral}, rs.Kind(), eos.NewIdealGas(5.0/3.0))
			b.Run(rs.Name()+"/"+kind, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.fillFlux(state.X, u, n, 2, n-2, sc)
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
