package c2p

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

// stiffEOS is a test closure whose pressure exceeds every trial pressure,
// so the residual is positive wherever it is defined. It drives the
// bisection to the two failure exits no physical closure reaches: the
// bracket expansion running out ("unbounded pressure residual") and the
// bisection closing on the overflow edge of the admissible set
// ("inadmissible root").
type stiffEOS struct{ eos.IdealGas }

func (stiffEOS) Pressure(rho, eps float64) float64 { return math.Inf(1) }

// stiffRootCons is a state whose stiffEOS bisection ends on an
// inadmissible pressure: D is so small that h overflows long before the
// expansion budget runs out.
var stiffRootCons = state.Cons{D: 1e-200, Tau: 1}

// stiffUnboundedCons exhausts the expansion budget instead.
var stiffUnboundedCons = state.Cons{D: 1, Tau: 1}

// capCell is superluminal (|S| − E = 1e-4) with a guess a hair above the
// causality bound, where v² ≥ VMax² still: Newton leaves through the
// inadmissible-evaluation exit after one counted pass.
var capCell = rowCell{state.Cons{D: 1e-3, Sx: 1, Tau: 1 - 1e-4 - 1e-3}, 1e-4 * (1 + 1e-9)}

type rowCell struct {
	c     state.Cons
	guess float64
}

// exitLaneCells are the inputs of TestRecoverMatchesReference's table plus
// the stiffEOS pair: under one solver configuration or another they reach
// every way out of the kernel.
func exitLaneCells() []rowCell {
	blast := state.Prim{Rho: 1, Vx: 0.9, Vy: -0.3, Vz: 0.1, P: 1000}.ToCons(gamma53)
	hybrid := eos.NewHybrid(0.3, 2, 5.0/3.0)
	return []rowCell{
		{state.Prim{Rho: 1, P: 2.5}.ToCons(gamma53), 2.5},
		{blast, 1e-9},
		{blast, 0},
		{state.Prim{Rho: 1e-9, P: 1e-12}.ToCons(gamma53), 0},
		{state.Prim{Rho: 1e-3, Vx: math.Sqrt(1 - 1e-4), P: 10}.ToCons(gamma53), 1e-14},
		{newtonDefeatingCons(), 0},
		{state.Cons{D: -1, Tau: 2}, 0},
		{state.Cons{D: 1, Tau: math.NaN()}, 0},
		{state.Cons{D: 1, Sx: 50, Tau: 1}, 0},
		{state.Prim{Rho: 1, Vx: 0.5, P: 3}.ToCons(hybrid), 0},
		{stiffUnboundedCons, math.NaN()},
		{stiffRootCons, 0},
		capCell,
	}
}

// rowConfigs are the solver configurations of that table, Taub–Mathews and
// the stiff closure.
func rowConfigs() []*Solver {
	elevated := DefaultOptions()
	elevated.PFloor = 1e-3
	dilute := DefaultOptions()
	dilute.RhoFloor, dilute.PFloor = 1e-6, 1e-8
	noNewton := DefaultOptions()
	noNewton.MaxIter = 0
	return []*Solver{
		NewSolver(gamma53),
		{EOS: gamma53, Opts: elevated},
		{EOS: gamma53, Opts: dilute},
		{EOS: gamma53, Opts: noNewton},
		NewSolver(eos.TaubMathews{}),
		NewSolver(eos.NewHybrid(0.3, 2, 5.0/3.0)),
		NewSolver(stiffEOS{gamma53}),
	}
}

// mixedRow interleaves the exit-lane cells with random admissible states
// (Lorentz factors up to 100) recovered from the guesses a stepping solver
// passes — the exact pressure, a stale one — so fast-lane cells sit between
// every pair of slow-lane ones.
func mixedRow(e eos.EOS, seed int64) []rowCell {
	rng := rand.New(rand.NewSource(seed))
	var row []rowCell
	for _, cell := range exitLaneCells() {
		p0 := randomPrim(rng, math.Sqrt(1-1e-4))
		c := p0.ToCons(e)
		c.Tau *= 1 + 1e-3*rng.NormFloat64()
		row = append(row, rowCell{c, p0.P}, cell, rowCell{c, p0.P * math.Exp(rng.NormFloat64())})
	}
	return row
}

// bitsDiffer returns the first index at which a and b differ in bit
// pattern (NaN payloads and signed zeros included), or -1.
func bitsDiffer(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkRow recovers cells [lo, hi) of row in one RecoverRangeEx call and
// compares everything the call can change — both Fields over the whole
// row, the mask, the result and the counters — with referenceRecover run
// cell by cell.
func checkRow(cfg *Solver, row []rowCell, lo, hi int, useMask, reset bool) error {
	n := len(row)
	cons, prim := state.NewFields(n), state.NewFields(n)
	for i, cell := range row {
		cons.SetCons(i, cell.c)
		prim.SetPrim(i, state.Prim{Rho: -1, Vx: -2, Vy: -3, Vz: -4, P: cell.guess})
	}
	wantU, wantW := cons.Clone(), prim.Clone()
	var mask, wantMask []uint8
	if useMask {
		mask, wantMask = make([]uint8, n), make([]uint8, n)
		for i := range mask {
			mask[i], wantMask[i] = 2, 2 // recovered cells must keep it
		}
	}

	ref := &Solver{EOS: cfg.EOS, Opts: cfg.Opts}
	var want statDelta
	wantRes := RangeResult{FirstIdx: -1}
	for i := lo; i < hi; i++ {
		p, err := ref.referenceRecover(row[i].c, row[i].guess, ref.idealGamma(), &want)
		wantW.SetPrim(i, p)
		if err == nil {
			continue
		}
		if wantRes.Failures == 0 {
			wantRes.FirstIdx, wantRes.FirstCons = i, row[i].c
		}
		wantRes.Failures++
		if useMask {
			wantMask[i] = 1
		}
		if reset {
			wantU.SetCons(i, p.ToCons(cfg.EOS))
		}
	}

	s := &Solver{EOS: cfg.EOS, Opts: cfg.Opts}
	res := s.RecoverRangeEx(cons, prim, lo, hi, mask, reset)
	var got statDelta
	got.calls, got.iters, got.bisections, got.floorHits, got.failures = s.Stat.Snapshot()

	consBits := func(c state.Cons) [5]uint64 {
		return [5]uint64{math.Float64bits(c.D), math.Float64bits(c.Sx), math.Float64bits(c.Sy),
			math.Float64bits(c.Sz), math.Float64bits(c.Tau)}
	}
	badW, badU := bitsDiffer(prim.Raw(), wantW.Raw()), bitsDiffer(cons.Raw(), wantU.Raw())
	switch {
	case badW >= 0:
		i := badW % n
		return fmt.Errorf("cell %d: primitives %+v, reference %+v", i, prim.GetPrim(i), wantW.GetPrim(i))
	case badU >= 0:
		i := badU % n
		return fmt.Errorf("cell %d: conserved %+v after the call, reference %+v", i, cons.GetCons(i), wantU.GetCons(i))
	case string(mask) != string(wantMask):
		return fmt.Errorf("mask %v, reference %v", mask, wantMask)
	case res.Failures != wantRes.Failures || res.FirstIdx != wantRes.FirstIdx ||
		consBits(res.FirstCons) != consBits(wantRes.FirstCons):
		return fmt.Errorf("result %+v, reference %+v", res, wantRes)
	case got != want:
		return fmt.Errorf("stats %+v, reference %+v", got, want)
	}
	return nil
}

// TestRecoverRowMatchesReference pins the row kernel to the per-cell
// inversion it replaced: over rows where fast-lane cells and every exit
// lane interleave, sub-ranges with lo > 0 and odd lengths, and all four
// mask/reset modes, RecoverRangeEx must leave bit for bit the primitives,
// the conserved state (reset resync included, cells outside the range
// untouched), the mask, the RangeResult and all five Stats deltas that
// referenceRecover produces cell by cell.
func TestRecoverRowMatchesReference(t *testing.T) {
	// Every exit is reached by some configuration's row.
	var reached statDelta
	for _, cfg := range rowConfigs() {
		for _, cell := range exitLaneCells() {
			cfg.referenceRecover(cell.c, cell.guess, cfg.idealGamma(), &reached)
		}
	}
	for c, exit := range map[state.Cons]string{stiffRootCons: "inadmissible root", stiffUnboundedCons: "unbounded pressure residual"} {
		if _, err := NewSolver(stiffEOS{gamma53}).Recover(c, 0); err == nil || !strings.Contains(err.Error(), exit) {
			t.Errorf("%+v no longer reaches the %q exit: %v", c, exit, err)
		}
	}
	var capped statDelta
	NewSolver(gamma53).referenceRecover(capCell.c, capCell.guess, gamma53.GammaAd, &capped)
	if capped.iters != 1 || capped.bisections != 1 {
		t.Errorf("capCell no longer leaves Newton on its first, inadmissible evaluation: %+v", capped)
	}
	if reached.bisections == 0 || reached.floorHits == 0 || reached.failures == 0 {
		t.Errorf("exit-lane cells no longer reach every exit: %+v", reached)
	}

	for _, cfg := range rowConfigs() {
		prop := func(seed int64) bool {
			row := mixedRow(cfg.EOS, seed)
			n := len(row)
			for _, r := range [][2]int{{0, n}, {1, n - 2}, {5, 12}, {n - 3, n}, {4, 4}} {
				for mode := 0; mode < 4; mode++ {
					useMask, reset := mode&1 != 0, mode&2 != 0
					if err := checkRow(cfg, row, r[0], r[1], useMask, reset); err != nil {
						t.Errorf("%s %+v seed %d, cells [%d,%d) mask=%v reset=%v: %v",
							cfg.EOS.Name(), cfg.Opts, seed, r[0], r[1], useMask, reset, err)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	}
}

// TestRecoverRangeFailuresZeroAllocs holds the failure lane to the same
// zero-allocation contract as the rest of a step: under fail-safe flagging
// a failing cell is routine, so no exit may build an error value.
func TestRecoverRangeFailuresZeroAllocs(t *testing.T) {
	good := state.Prim{Rho: 1, Vx: 0.2, P: 1}
	for _, tc := range []struct {
		s    *Solver
		bad  []state.Cons
		want string
	}{
		{NewSolver(gamma53), []state.Cons{{D: -1, Tau: 2}, {D: 1, Sx: 50, Tau: 1}}, "hopeless and no-bracket"},
		{NewSolver(stiffEOS{gamma53}), []state.Cons{stiffRootCons, stiffUnboundedCons}, "inadmissible-root and unbounded"},
	} {
		n := 8
		cons, prim := state.NewFields(n), state.NewFields(n)
		pristine := state.NewFields(n)
		for i := 0; i < n; i++ {
			pristine.SetCons(i, good.ToCons(gamma53))
		}
		pristine.SetCons(2, tc.bad[0])
		pristine.SetCons(5, tc.bad[1])
		mask := make([]uint8, n)
		for _, reset := range []bool{false, true} {
			failures := 0
			allocs := testing.AllocsPerRun(20, func() {
				cons.CopyFrom(pristine)
				failures = tc.s.RecoverRangeEx(cons, prim, 0, n, mask, reset).Failures
			})
			if failures < 2 {
				t.Errorf("%s, reset=%v: %d failures, want at least the 2 planted", tc.want, reset, failures)
			}
			if allocs != 0 {
				t.Errorf("%s, reset=%v: %v allocations per failing row, want 0", tc.want, reset, allocs)
			}
		}
	}
}

var benchSink int

// BenchmarkRecoverRow measures the kernel on the three kinds of row a step
// hands it: quiescent (the seed is the root: one evaluation a cell), smooth
// (a stale seed: 2–3 evaluations) and shocked (smooth, with every eighth
// cell a dilute one that ends on the floors through settle).
func BenchmarkRecoverRow(b *testing.B) {
	const n = 4096
	s := NewSolver(gamma53)
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"quiescent", "smooth", "shocked"} {
		cons, prim, seed := state.NewFields(n), state.NewFields(n), make([]float64, n)
		for i := 0; i < n; i++ {
			p := randomPrim(rng, 0.9)
			seed[i] = p.P
			if kind != "quiescent" {
				seed[i] *= 1 + 0.05*rng.NormFloat64()
			}
			if kind == "shocked" && i%8 == 0 {
				p = state.Prim{Rho: 1e-14, P: 1e-16}
			}
			cons.SetCons(i, p.ToCons(gamma53))
		}
		if kind == "quiescent" {
			copy(prim.Comp[state.IP], seed)
			s.RecoverRange(cons, prim, 0, n)
			copy(seed, prim.Comp[state.IP])
		}
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(prim.Comp[state.IP], seed)
				benchSink += s.RecoverRange(cons, prim, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/zone")
		})
	}
}
