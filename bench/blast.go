package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"rhsc"
	"rhsc/internal/core"
	"rhsc/internal/grid"
	"rhsc/internal/hetero"
	"rhsc/internal/par"
	"rhsc/internal/state"
)

// blastWL is the 3-D blast on a uniform grid: blast3d-fused,
// blast3d-generic and, with an executor attached, hetero-blast3d. A round
// restores the warmed-up state from an in-memory exact checkpoint and
// advances a fixed number of steps, so every round does bit-identical work.
type blastWL struct {
	opts       rhsc.Options
	warm       int // warm-up steps before the checkpoint
	steps      int // steps per round
	probeSteps int // steps of the allocation probe; the thread-scaling probe takes twice as many
	attach     bool
	bins       int // radial bins of the golden profile
	golden     string

	ckpt []byte
	last *rhsc.Sim

	// hetero-blast3d only.
	exec         *hetero.Executor
	tiledPerStep float64 // unattached Threads=nproc wall seconds per step
}

func newBlastWL(name string, quick bool) *blastWL {
	w := &blastWL{opts: rhsc.Options{Problem: "blast3d", N: 48}, bins: 24, golden: name}
	switch name {
	case wlFused:
		w.warm, w.steps, w.probeSteps = 8, 6, 3
	case wlGeneric:
		// No fused kernel exists for PPM+HLL, so core dispatches through
		// the recon and Riemann interfaces per face.
		w.opts.Recon, w.opts.Riemann = "ppm", "hll"
		w.warm, w.steps, w.probeSteps = 4, 3, 2
	case wlHetero:
		w.warm, w.steps, w.probeSteps = 8, 6, 3
		w.attach = true
	}
	if quick {
		w.opts.N, w.bins = 12, 6
		w.warm, w.steps, w.probeSteps = 2, 2, 1
		w.golden += ".quick"
	}
	return w
}

func step(s *rhsc.Sim, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// stepP25 advances n steps and returns the p25 wall seconds of one step.
// On a small host the second core takes a few hundred milliseconds to
// join a process that has been serial until now; the quartile reads the
// steady rate through that ramp.
func stepP25(s *rhsc.Sim, n int) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if _, err := s.Step(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0).Seconds()
	}
	return percentile(sortedCopy(ds), 25), nil
}

func simFingerprint(s *rhsc.Sim) uint64 {
	h := fpFloats(fpSeed, []float64{s.Time()})
	h = fpFloats(h, s.Grid.U.Raw())
	return fpFloats(h, s.Grid.W.Raw())
}

func (w *blastWL) setup() error {
	sim, err := rhsc.NewSim(w.opts)
	if err != nil {
		return err
	}
	if err := step(sim, w.warm); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sim.CheckpointExact(&buf); err != nil {
		return err
	}
	w.ckpt = buf.Bytes()
	if !w.attach {
		return nil
	}
	// The device set and policy of rhsc.NewHeteroSim's documented use.
	var devs []*hetero.Device
	for _, sp := range []hetero.Spec{rhsc.HostCPU(runtime.NumCPU()), rhsc.GPU()} {
		d, err := hetero.NewDevice(sp)
		if err != nil {
			return err
		}
		devs = append(devs, d)
	}
	w.exec, err = hetero.NewExecutor(hetero.Dynamic, devs...)
	return err
}

func (w *blastWL) release() { w.last = nil }

func (w *blastWL) round(tr *tracer, parent, idx int) (roundOut, error) {
	sp := tr.begin(parent, "rhsc.Restore", idx)
	sim, err := rhsc.Restore(bytes.NewReader(w.ckpt), w.opts)
	tr.end(sp)
	if err != nil {
		return roundOut{}, err
	}
	if w.attach {
		w.exec.ResetClocks()
		w.exec.Attach(sim.Solver)
	}
	sol := sim.Solver
	t0 := time.Now()
	for i := 0; i < w.steps; i++ {
		a := tr.begin(parent, "core.MaxDt", idx)
		dt := sol.MaxDt()
		tr.end(a)
		b := tr.begin(parent, "core.Step", idx)
		err := sol.Step(dt)
		tr.end(b)
		if err != nil {
			return roundOut{}, err
		}
	}
	out := roundOut{wall: time.Since(t0), steps: w.steps, zoneUpdates: sim.ZoneUpdates(), fp: simFingerprint(sim)}
	calls, iters, bis, _, fails := sol.C2P.Stat.Snapshot()
	out.c2p = [4]int64{calls, iters, bis, fails}
	if w.attach {
		out.virtual = w.exec.VirtualTime()
	}
	w.last = sim
	return out, nil
}

// radialProfile bins the density by distance from the blast centre: a
// compact picture of the solution that any change to the physics moves.
func radialProfile(g *grid.Grid, bins int) []float64 {
	sum := make([]float64, bins)
	cnt := make([]float64, bins)
	rho := g.W.Comp[state.IRho]
	g.ForEachInterior(func(idx, i, j, k int) {
		x, y, z := g.X(i), g.Y(j), g.Z(k)
		b := int(math.Sqrt(x*x+y*y+z*z) * float64(bins))
		if b < bins {
			sum[b] += rho[idx]
			cnt[b]++
		}
	})
	for b := range sum {
		if cnt[b] > 0 {
			sum[b] /= cnt[b]
		}
	}
	return sum
}

func meanAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}

// goldenTol is the committed-profile tolerance: round-off across
// toolchains, nothing a change to the numerics could hide in.
const goldenTol = 1e-9

func (w *blastWL) finish(r *result, rounds []roundOut, updateGolden bool) error {
	if w.attach {
		// The unattached solver on the tile engine with every core, from the
		// same checkpoint: the attached run must reproduce its final state
		// bit for bit, and its step time is the base of hetero.wall_vs_tiled.
		po := w.opts
		po.Threads = runtime.NumCPU()
		ref, err := rhsc.Restore(bytes.NewReader(w.ckpt), po)
		if err != nil {
			return err
		}
		if w.tiledPerStep, err = stepP25(ref, w.steps); err != nil {
			return err
		}
		refFP := simFingerprint(ref)
		r.verify(rounds[0].fp == refFP, "attached fingerprint %016x differs from unattached %016x", rounds[0].fp, refFP)
		l1 := meanAbsDiff(w.last.Grid.W.Comp[state.IRho], ref.Grid.W.Comp[state.IRho])
		r.verify(l1 == 0, "attached run differs from the unattached solver: L1(rho) = %g", l1)
		r.set("l1_rho", l1)
		for _, o := range rounds {
			r.verify(o.virtual == rounds[0].virtual, "virtual clock %v differs from first round %v", o.virtual, rounds[0].virtual)
		}
		r.set("virtual_s", rounds[0].virtual)
		return nil
	}
	prof := radialProfile(w.last.Grid, w.bins)
	want, err := readGolden(w.golden)
	if updateGolden {
		// The compiled-in copy is the one being replaced: this run vouches
		// for its own profile, the next build checks against it.
		want, err = prof, writeGolden(w.golden, prof)
	}
	if err != nil {
		return err
	}
	l1 := meanAbsDiff(prof, want)
	r.verify(l1 <= goldenTol, "radial density profile is off the golden one: L1(rho) = %g > %g", l1, goldenTol)
	r.set("l1_rho", l1)
	return nil
}

func (w *blastWL) probes(r *result, tr *tracer, rounds []roundOut, perStep float64) error {
	sim := w.last
	sol, g := sim.Solver, sim.Grid
	zones := float64(g.Nx * g.Ny * g.Nz)
	reps := 3

	// Span times: what Step and MaxDt cost inside the traced rounds.
	tot := totalTimes(tr.snapshot())
	tracedSteps := 0.0
	for _, s := range tr.snapshot() {
		if s.Name == "core.Step" {
			tracedSteps++
		}
	}
	r.set("core.step_ns_zone", float64(tot["core.Step"]+tot["core.MaxDt"])/(tracedSteps*zones))

	// Exact counters of one round (every round repeats them).
	c := rounds[0].c2p
	r.set("c2p.newton_iters_per_call", float64(c[1])/float64(c[0]))
	r.set("c2p.bisect_frac", float64(c[2])/float64(c[0]))
	r.set("c2p.failures", float64(c[3]))

	// ComputeRHS on the final state.
	rhs := state.NewFields(g.NCells())
	r.set("core.rhs_ns_zone", timeMedian(reps, func() { sol.ComputeRHS(rhs) })*1e9/zones)

	r.set("core.maxdt_us", timeMedian(5, func() {
		sol.InvalidateCFL()
		sol.MaxDt()
	})*1e6)

	// Recovery as a stage sees it: after an Euler update, so Newton has
	// real work to do; the state is put back after every repetition.
	dt := sol.MaxDt()
	u0, w0 := g.U.Clone(), g.W.Clone()
	var recS []float64
	for i := 0; i < reps; i++ {
		g.U.AXPY(dt, rhs)
		t0 := time.Now()
		sol.RecoverPrimitives()
		recS = append(recS, time.Since(t0).Seconds())
		g.U.CopyFrom(u0)
		g.W.CopyFrom(w0)
	}
	sol.InvalidateCFL()
	r.set("core.recover_ns_zone", percentile(sortedCopy(recS), 50)*1e9/zones)

	// The same inversion through c2p alone, without boundary fill.
	uu := u0.Clone()
	uu.AXPY(dt, rhs)
	r.set("c2p.ns_zone", timeMedian(reps, func() {
		ww := w0.Clone()
		for k := g.KBeg(); k < g.KEnd(); k++ {
			for j := g.JBeg(); j < g.JEnd(); j++ {
				row := g.Idx(0, j, k)
				sol.C2P.RecoverRange(uu, ww, row+g.IBeg(), row+g.IEnd())
			}
		}
	})*1e9/zones)

	reconNs, riemannNs := faceProbes(sol, reps)
	r.set("recon.ns_face", reconNs)
	r.set("riemann.ns_face", riemannNs)

	raw := len(uu.Raw())
	r.setStat("state.axpy_gb_s", 3*8*float64(raw)/timeMedian(9, func() { uu.AXPY(1e-12, rhs) })/1e9, 0,
		fmt.Sprintf("%.1f MB per array, LLC %s", 8*float64(raw)/1e6, llcSize()))

	r.set("core.bytes_per_zone_computed", bytesPerZone(sol))

	pool := par.NewPool(runtime.NumCPU())
	r.set("par.for_overhead_us", timeMedian(200, func() { pool.ParallelFor(0, 1024, 0, func(lo, hi int) {}) })*1e6)

	// Thread scaling. The uniform-grid rounds are serial, so they are the
	// base and the probe runs Threads=nproc; the attached workload already
	// timed Threads=nproc in set-up and probes the serial base instead.
	serial, threaded := perStep, w.tiledPerStep
	po := w.opts
	if !w.attach {
		po.Threads = runtime.NumCPU()
	}
	ps, err := rhsc.Restore(bytes.NewReader(w.ckpt), po)
	if err != nil {
		return err
	}
	probe, err := stepP25(ps, 2*w.probeSteps)
	if err != nil {
		return err
	}
	if w.attach {
		serial = probe
	} else {
		threaded = probe
	}
	r.setStat("par.speedup", serial/threaded, 0,
		fmt.Sprintf("base serial %.1f ms/step, %d threads", serial*1e3, runtime.NumCPU()))

	if w.attach {
		r.set("hetero.wall_vs_tiled", perStep/w.tiledPerStep)
		r.set("hetero.imbalance", w.exec.Imbalance())
		gpu := 0.0
		for _, d := range w.exec.Report() {
			if d.Kind == hetero.GPU {
				gpu += d.Share
			}
		}
		r.set("hetero.gpu_share", gpu)
		r.set("hetero.backoff_virtual_s", w.exec.BackoffVirtual())
	}

	// Steady-state allocations, last: it advances the probed state. One
	// unmeasured step after the collection refills the pools it emptied.
	var m0, m1 runtime.MemStats
	runtime.GC()
	if err := step(sim, 1); err != nil {
		return err
	}
	runtime.ReadMemStats(&m0)
	if err := step(sim, w.probeSteps); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.set("core.allocs_per_step", float64(m1.Mallocs-m0.Mallocs)/float64(w.probeSteps))
	return nil
}

// faceProbes times the configured reconstruction and Riemann solver on
// every x row of the final state, through the same interfaces core's
// generic path calls, and returns nanoseconds per face.
func faceProbes(sol *core.Solver, reps int) (reconNs, riemannNs float64) {
	g := sol.G
	rc, rs := sol.Method()
	n := g.TotalX
	var fl, fr [state.NComp][]float64
	for c := range fl {
		fl[c] = make([]float64, n+1)
		fr[c] = make([]float64, n+1)
	}
	rows := (g.JEnd() - g.JBeg()) * (g.KEnd() - g.KBeg())
	faces := float64(rows * (g.Nx + 1))
	var u [state.NComp][]float64
	forRows := func(fn func()) {
		for k := g.KBeg(); k < g.KEnd(); k++ {
			for j := g.JBeg(); j < g.JEnd(); j++ {
				base := g.Idx(0, j, k)
				for c := range u {
					u[c] = g.W.Comp[c][base : base+n]
				}
				fn()
			}
		}
	}
	reconstruct := func() {
		for c := range u {
			rc.Reconstruct(u[c], fl[c], fr[c])
		}
	}
	reconS := timeMedian(reps, func() { forRows(reconstruct) })

	prim := func(a *[state.NComp][]float64, f int) state.Prim {
		return state.Prim{Rho: a[state.IRho][f], Vx: a[state.IVx][f], Vy: a[state.IVy][f], Vz: a[state.IVz][f], P: a[state.IP][f]}
	}
	sink := 0.0
	var fluxS []float64
	for i := 0; i < reps; i++ {
		var d time.Duration
		forRows(func() {
			reconstruct()
			t0 := time.Now()
			for f := g.IBeg(); f <= g.IEnd(); f++ {
				pl, pr := prim(&fl, f), prim(&fr, f)
				// core's first-order fallback for inadmissible faces.
				if !pl.IsPhysical() {
					pl = prim(&u, f-1)
				}
				if !pr.IsPhysical() {
					pr = prim(&u, f)
				}
				sink += rs.Flux(sol.Cfg.EOS, pl, pr, state.X).D
			}
			d += time.Since(t0)
		})
		fluxS = append(fluxS, d.Seconds())
	}
	if math.IsNaN(sink) {
		return math.NaN(), math.NaN()
	}
	return reconS * 1e9 / faces, percentile(sortedCopy(fluxS), 50) * 1e9 / faces
}

// bytesPerZone is the memory traffic of one step per interior zone,
// computed from array sizes and the order of passes in core.Step; cache
// misses and reuse are not in it.
func bytesPerZone(sol *core.Solver) float64 {
	g := sol.G
	const comp = state.NComp * 8
	cells := float64(g.NCells())
	zones := float64(g.Nx * g.Ny * g.Nz)
	stages := float64(sol.Cfg.Integrator.Stages())
	b := stages * (cells*comp + zones*comp) // sweeps read W with ghosts, write rhs
	b += stages * zones * (comp + 8 + comp) // recovery reads U and the pressure guess, writes W
	b += cells * 3 * comp                   // Euler stage: U += dt*rhs
	b += (stages - 1) * cells * 4 * comp    // later stages: U = a*u0 + b*(U + dt*rhs)
	if stages > 1 {
		b += cells * 2 * comp // u0 = U
	}
	return b / zones
}
