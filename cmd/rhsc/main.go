// Command rhsc runs any catalogued problem from the command line.
//
// Examples:
//
//	rhsc -problem sod -n 800 -recon ppm -riemann hllc -out profile.csv
//	rhsc -problem blast2d -n 256 -threads 8 -tend 0.2 -out slab.csv
//	rhsc -problem sod -n 512 -amr -maxlevel 3
//	rhsc -list
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rhsc"
	"rhsc/internal/durable"
	"rhsc/internal/resilience"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list catalogued problems and exit")
		problem = flag.String("problem", "sod", "problem name (see -list)")
		n       = flag.Int("n", 256, "cells along x")
		rec     = flag.String("recon", "plm", "reconstruction: pcm|plm|plm-minmod|plm-vanleer|ppm|weno5|wenoz")
		rie     = flag.String("riemann", "hllc", "Riemann solver: llf|hll|hllc")
		integ   = flag.String("integrator", "rk2", "time integrator: rk1|rk2|rk3")
		cfl     = flag.Float64("cfl", 0.4, "Courant factor")
		threads = flag.Int("threads", runtime.NumCPU(), "worker threads")
		tend    = flag.Float64("tend", 0, "end time (0 = problem default)")
		gamma   = flag.Float64("gamma", 0, "adiabatic index override (0 = problem default)")
		tm      = flag.Bool("taub-mathews", false, "use the Taub-Mathews EOS")
		out     = flag.String("out", "", "write final profile/slab CSV to this file")
		ckpt    = flag.String("checkpoint", "", "write a binary checkpoint to this file")
		spool   = flag.String("spool", "rhsc-spool", "durable checkpoint store for interrupts and -ckpt-every")
		ckEvery = flag.Int("ckpt-every", 0, "commit a durable checkpoint every N steps (serial runs; 0 = off)")
		resume  = flag.Bool("resume", false, "resume from the spool's newest valid checkpoint of this problem")
		verify  = flag.String("verify", "", "scrub a durable checkpoint store directory and exit (nonzero on corruption)")
		useAMR  = flag.Bool("amr", false, "run with adaptive mesh refinement")
		maxLev  = flag.Int("maxlevel", 2, "AMR: maximum refinement level")
		blocks  = flag.Int("rootblocks", 8, "AMR: root blocks along x")
		ranks   = flag.Int("ranks", 0, "run distributed over this many ranks (virtual cluster)")
		px      = flag.Int("px", 0, "process-grid columns (with -ranks)")
		py      = flag.Int("py", 0, "process-grid rows (with -ranks)")
		async   = flag.Bool("async", false, "overlap halo exchange (with -ranks)")
		network = flag.String("network", "ib", "virtual network: ideal|gige|ib (with -ranks)")
		devices = flag.String("devices", "", "heterogeneous devices, comma list of cpu<N>|gpu|staged (e.g. cpu8,gpu)")
		dynamic = flag.Bool("dynamic", false, "dynamic tile scheduling (with -devices)")
		steps   = flag.Int("steps", 0, "fixed step count for -ranks/-devices performance runs")
	)
	flag.Parse()

	if *list {
		for _, name := range rhsc.Problems() {
			fmt.Println(name)
		}
		return
	}
	if *verify != "" {
		os.Exit(runScrub(*verify))
	}

	opts := rhsc.Options{
		Problem: *problem, N: *n, Recon: *rec, Riemann: *rie,
		Integrator: *integ, CFL: *cfl, Threads: *threads,
		Gamma: *gamma, TaubMathews: *tm,
	}

	if *useAMR {
		runAMR(opts, *tend, *maxLev, *blocks, *spool)
		return
	}
	if *ranks > 0 {
		runCluster(opts, *ranks, *px, *py, *async, *network, *steps, *tend)
		return
	}
	if *devices != "" {
		runHetero(opts, *devices, *dynamic, *steps, *tend)
		return
	}

	var sim *rhsc.Sim
	var err error
	if *resume {
		sim, err = resumeSerial(*spool, *problem, opts)
	} else {
		sim, err = rhsc.NewSim(opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	tEnd := sim.Problem.TEnd
	if *tend > 0 {
		tEnd = *tend
	}
	start := time.Now()
	interrupted, err := runSerial(sim, tEnd, *spool, *ckEvery)
	if err != nil {
		log.Fatal(err)
	}
	if interrupted {
		return
	}
	elapsed := time.Since(start)
	fmt.Printf("%s N=%d t=%.4g: %v wall, %.2f Mzups, mass %.6g\n",
		sim.Problem.Name, *n, sim.Time(), elapsed.Round(time.Millisecond),
		rhsc.Mzups(sim.ZoneUpdates(), elapsed), sim.Mass())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if sim.Grid.Ny > 1 {
			err = sim.WriteSlab(f)
		} else {
			err = sim.WriteProfile(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *out)
	}
	if *ckpt != "" {
		f, err := os.Create(*ckpt)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := sim.Checkpoint(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("checkpoint written to", *ckpt)
	}
}

func runCluster(opts rhsc.Options, ranks, px, py int, async bool, network string, steps int, tend float64) {
	res, err := rhsc.RunCluster(opts, rhsc.ClusterOptions{
		Ranks: ranks, Px: px, Py: py, Async: async,
		Network: network, Steps: steps, TEnd: tend,
	})
	if err != nil {
		log.Fatal(err)
	}
	mode := "sync"
	if async {
		mode = "async"
	}
	fmt.Printf("%s over %d ranks (%s, %s): %d steps, %v wall, %.4g ms virtual, mass %.6g\n",
		opts.Problem, res.Ranks, mode, network, res.Steps,
		res.RealTime.Round(time.Millisecond), res.VirtualTime*1e3, res.TotalMass)
}

func parseDevices(spec string) ([]rhsc.DeviceSpec, error) {
	var out []rhsc.DeviceSpec
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "gpu":
			out = append(out, rhsc.GPU())
		case tok == "staged":
			out = append(out, rhsc.StagedGPU())
		case strings.HasPrefix(tok, "cpu"):
			// Atoi alone would take a sign: "cpu+3" is not a device.
			cores, err := strconv.Atoi(tok[3:])
			if err != nil || cores < 1 || strings.HasPrefix(tok, "cpu+") {
				return nil, fmt.Errorf("bad device %q (want cpu<N>)", tok)
			}
			out = append(out, rhsc.HostCPU(cores))
		default:
			return nil, fmt.Errorf("unknown device %q", tok)
		}
	}
	return out, nil
}

func runHetero(opts rhsc.Options, devices string, dynamic bool, steps int, tend float64) {
	specs, err := parseDevices(devices)
	if err != nil {
		log.Fatal(err)
	}
	policy := rhsc.StaticSchedule
	if dynamic {
		policy = rhsc.DynamicSchedule
	}
	h, err := rhsc.NewHeteroSim(opts, policy, specs...)
	if err != nil {
		log.Fatal(err)
	}
	if steps <= 0 {
		steps = 10
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		if tend > 0 && h.Time() >= tend {
			break
		}
		if _, err := h.Step(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%s on [%s] %s: %d steps, %v wall, %.4g ms virtual\n",
		opts.Problem, devices, policy, steps,
		time.Since(start).Round(time.Millisecond), h.VirtualSeconds()*1e3)
}

func runAMR(opts rhsc.Options, tend float64, maxLevel, rootBlocks int, spool string) {
	a, err := rhsc.NewAMRSim(opts, rhsc.AMROptions{
		MaxLevel: maxLevel, RootBlocks: rootBlocks,
	})
	if err != nil {
		log.Fatal(err)
	}
	tEnd := a.Problem.TEnd
	if tend > 0 {
		tEnd = tend
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	start := time.Now()
	for a.Tree.Time() < tEnd-1e-14 {
		select {
		case sig := <-sigc:
			exitSpooled(spool, a.Problem.Name+"-amr", sig, a.Tree.Time(), a.CheckpointExact)
		default:
		}
		dt := a.Tree.MaxDt()
		if a.Tree.Time()+dt > tEnd {
			dt = tEnd - a.Tree.Time()
		}
		if err := a.Tree.Step(dt); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	leaves, zones, level, updates := a.Stats()
	fmt.Printf("%s AMR L%d: %v wall, %d leaves, %d active zones, %d zone-updates\n",
		a.Problem.Name, level, elapsed.Round(time.Millisecond), leaves, zones, updates)
}

// runSerial advances the simulation to tEnd with a signal-aware step
// loop (numerically identical to Sim.RunTo): on SIGINT/SIGTERM the
// run is checkpointed exactly into the spool's durable store and the
// process exits 0 — nonzero only when that checkpoint cannot be
// committed. With ckEvery > 0 a durable checkpoint is also committed
// every ckEvery steps, so even a SIGKILL or power loss costs at most
// ckEvery steps of progress (-resume picks the run back up).
func runSerial(sim *rhsc.Sim, tEnd float64, spool string, ckEvery int) (bool, error) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var periodic *resilience.DurableCheckpointer
	if ckEvery > 0 && spool != "" {
		st, err := durable.Open(durable.OS, spool, nil)
		if err != nil {
			return false, err
		}
		periodic = &resilience.DurableCheckpointer{Store: st, Name: sim.Problem.Name, Every: ckEvery}
	}
	sim.Solver.RecoverPrimitives() // Advance's first-step recovery
	step := 0
	for sim.Time() < tEnd-1e-14 {
		select {
		case sig := <-sigc:
			exitSpooled(spool, sim.Problem.Name, sig, sim.Time(), sim.CheckpointExact)
		default:
		}
		dt := sim.Solver.MaxDt()
		if sim.Time()+dt > tEnd {
			dt = tEnd - sim.Time()
		}
		if err := sim.Solver.Step(dt); err != nil {
			return false, err
		}
		step++
		if periodic != nil {
			if _, err := periodic.Tick(step, sim.CheckpointExact); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

// resumeSerial rebuilds a serial run from the spool store's newest
// fully-valid checkpoint of the problem; corrupt generations are
// quarantined and skipped automatically.
func resumeSerial(spool, problem string, opts rhsc.Options) (*rhsc.Sim, error) {
	var sim *rhsc.Sim
	gen, err := resilience.RecoverLatest(durable.OS, spool, problem, func(r io.Reader) error {
		var err error
		sim, err = rhsc.Restore(r, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("rhsc: resume %s from %s: %w", problem, spool, err)
	}
	fmt.Printf("resumed %s from generation %d (t=%.6g)\n", problem, gen, sim.Time())
	return sim, nil
}

// exitSpooled commits an exact checkpoint into the spool's durable
// store and terminates the process: exit 0 on success, 1 when
// in-flight state could not be saved. Restart later with -resume and
// matching -problem/-n (or resubmit to rhscd).
func exitSpooled(dir, name string, sig os.Signal, t float64, save func(io.Writer) error) {
	st, err := durable.Open(durable.OS, dir, nil)
	if err == nil {
		_, err = st.Commit(name, save)
	}
	if err != nil {
		log.Printf("rhsc: %v: spool checkpoint failed: %v", sig, err)
		os.Exit(1)
	}
	fmt.Printf("%v: checkpointed t=%.6g to %s (resume with -resume -spool %s)\n",
		sig, t, filepath.Join(dir, name+".g*.dur"), dir)
	os.Exit(0)
}

// runScrub verifies every record of a durable store byte for byte and
// prints the report; returns the process exit code (1 when any file
// failed verification).
func runScrub(dir string) int {
	st, err := durable.Open(durable.OS, dir, nil)
	if err != nil {
		log.Printf("rhsc: verify %s: %v", dir, err)
		return 1
	}
	rep, err := st.Scrub()
	if err != nil {
		log.Printf("rhsc: verify %s: %v", dir, err)
		return 1
	}
	for _, r := range rep.Results {
		if r.OK {
			fmt.Printf("ok   %s g%d (%d bytes)\n", r.File, r.Gen, r.Bytes)
		} else {
			fmt.Printf("BAD  %s g%d: %s\n", r.File, r.Gen, r.Error)
		}
	}
	for _, name := range rep.ManifestDrift {
		fmt.Printf("DRIFT %s: manifest head has no valid file\n", name)
	}
	fmt.Printf("%s: %d checked, %d bad\n", dir, rep.Checked, rep.Bad)
	if rep.Bad > 0 || len(rep.ManifestDrift) > 0 {
		return 1
	}
	return 0
}
