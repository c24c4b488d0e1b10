package resilience

import (
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/testprob"
)

// blastSolver builds a serial 2-D blast solver; mut tweaks the config.
func blastSolver(t *testing.T, mut func(*core.Config)) *core.Solver {
	t.Helper()
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	p := testprob.Blast2D
	g := p.NewGrid(48, cfg.Recon.Ghost())
	s, err := core.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFaultLocalRepairBeatsGlobalRetry pins the fail-safe acceptance
// criterion: on the same in-stage injected fault, the plain guard must
// restore/retry (eventually at global first-order), while the fail-safe
// guard repairs the cells locally — zero retries, no method demotion,
// and orders of magnitude fewer fallback-order zone updates.
func TestFaultLocalRepairBeatsGlobalRetry(t *testing.T) {
	const tEnd = 0.1

	// Global path: guarded solver without the fail-safe. In-stage faults
	// surface at stage validation; Count=2 outlasts the dt-halving retry
	// so the PCM+HLL fallback engages.
	global := NewGuard(blastSolver(t, nil))
	global.Inject = &Injector{AtStep: 3, Count: 2, Cell: -1, InStage: true}
	if _, err := global.Advance(tEnd); err != nil {
		t.Fatalf("global-retry run did not complete: %v", err)
	}
	gs := global.Stats.Snapshot()
	if gs.Injected == 0 || gs.Retries == 0 || gs.Fallbacks == 0 {
		t.Fatalf("global run never engaged the fallback: %+v", gs)
	}
	if gs.Repaired != 0 {
		t.Fatalf("global run reports local repairs: %+v", gs)
	}

	// Local path: same fault, fail-safe pipeline on. The corruption is
	// caught by the detector mid-step and patched with first-order fluxes
	// on the troubled faces only — the step commits on the first attempt
	// at the configured scheme order.
	local := NewGuard(blastSolver(t, func(c *core.Config) { c.FailSafe = true }))
	local.Inject = &Injector{AtStep: 3, Count: 2, Cell: -1, InStage: true}
	if _, err := local.Advance(tEnd); err != nil {
		t.Fatalf("fail-safe run did not complete: %v", err)
	}
	ls := local.Stats.Snapshot()
	if ls.Injected == 0 {
		t.Fatalf("fail-safe run never injected: %+v", ls)
	}
	if ls.Retries != 0 || ls.Fallbacks != 0 || ls.Demotions != 0 {
		t.Fatalf("fail-safe run fell back globally: %+v", ls)
	}
	if ls.Repaired == 0 || ls.Repaired != ls.Troubled {
		t.Fatalf("fail-safe run did not repair everything it flagged: %+v", ls)
	}

	// The acceptance bar is >= 2x fewer fallback-order zone updates; in
	// practice the local path pays a handful of cells against full grids.
	if ls.FallbackZones*2 > gs.FallbackZones {
		t.Fatalf("local repair not cheaper: %d fallback zones vs global %d",
			ls.FallbackZones, gs.FallbackZones)
	}
	if err := local.S.CheckState(); err != nil {
		t.Fatalf("fail-safe final state invalid: %v", err)
	}
}

// TestFaultFailSafeDemotionFallsThrough: when the troubled fraction
// exceeds Config.FailSafeMaxFrac, the fail-safe guard must demote to the
// global retry machinery — and still complete the run.
func TestFaultFailSafeDemotionFallsThrough(t *testing.T) {
	s := blastSolver(t, func(c *core.Config) {
		c.FailSafe = true
		c.FailSafeMaxFrac = 1.0 / (48.0 * 48.0 * 2.0)
	})
	g := NewGuard(s)
	// Two poisoned cells exceed the ~half-cell fraction; one attempt only,
	// so the (fail-safe-disabled) retry runs clean.
	idx := s.G.Idx(s.G.TotalX/2, s.G.TotalY/2, 0)
	g.Inject = &Injector{AtStep: 2, Cell: idx, InStage: true}
	if _, err := g.Advance(0.08); err != nil {
		t.Fatalf("demoted run did not complete: %v", err)
	}
	snap := g.Stats.Snapshot()
	if snap.Demotions == 0 {
		t.Fatalf("no demotion recorded: %+v", snap)
	}
	if snap.Retries == 0 {
		t.Fatalf("demotion did not reach the retry path: %+v", snap)
	}
	if snap.Repaired != 0 {
		t.Fatalf("demoted step must not repair: %+v", snap)
	}
	if !s.Cfg.FailSafe {
		t.Fatal("fail-safe not re-enabled after the demoted step")
	}
}
