package damr

import (
	"math"
	"testing"

	"rhsc/internal/cluster"
	"rhsc/internal/testprob"
)

// TestFaultRankFailureRecovery is the acceptance test of the recovery
// protocol: a rank dies mid-run, the survivors restore the latest buddy
// checkpoint, re-partition the Morton curve among themselves, replay,
// and the final solution matches the fault-free reference to round-off.
func TestFaultRankFailureRecovery(t *testing.T) {
	p := testprob.Blast2D
	cfg := blastConfig()
	const nbx, steps = 4, 12

	ref := referenceRun(t, p, nbx, steps, cfg)
	res, err := Run(p, nbx, cfg, Options{
		Ranks:           3,
		Net:             cluster.Infiniband(),
		Steps:           steps,
		CheckpointEvery: 4,
		Fault:           &RankFault{Rank: 1, AfterStep: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.Survivors != 2 {
		t.Errorf("Survivors = %d, want 2", res.Survivors)
	}
	// Checkpoint at step 4, death detected at step 6: two steps replayed.
	if res.RecomputedSteps != 2 {
		t.Errorf("RecomputedSteps = %d, want 2", res.RecomputedSteps)
	}
	if res.Checkpoints < 3 || res.CheckpointBytes <= 0 || res.CheckpointVirtual <= 0 {
		t.Errorf("checkpoint accounting: n=%d bytes=%d virtual=%v",
			res.Checkpoints, res.CheckpointBytes, res.CheckpointVirtual)
	}
	if res.RecoveryVirtual <= 0 || res.RecoveryReal <= 0 {
		t.Errorf("recovery accounting: virtual=%v real=%v", res.RecoveryVirtual, res.RecoveryReal)
	}
	if res.Steps != steps {
		t.Errorf("Steps = %d, want %d", res.Steps, steps)
	}

	if res.Leaves != ref.NumLeaves() {
		t.Errorf("%d leaves, reference %d", res.Leaves, ref.NumLeaves())
	}
	refMass := ref.TotalMass()
	if rel := math.Abs(res.TotalMass-refMass) / refMass; rel > 1e-12 {
		t.Errorf("mass %v vs reference %v (rel %.3e)", res.TotalMass, refMass, rel)
	}
	linf, l1 := sampleL1(res.Tree, ref, p, 64)
	if linf > 1e-12 || l1 > 1e-12 {
		t.Errorf("faulted run diverged from reference: Linf=%.3e L1=%.3e", linf, l1)
	}
}

// TestFaultRankZeroFailure kills the root: detection must survive the
// dead collective root, and the final gather must move to the lowest
// surviving rank.
func TestFaultRankZeroFailure(t *testing.T) {
	p := testprob.Blast2D
	cfg := blastConfig()
	const nbx, steps = 4, 8

	ref := referenceRun(t, p, nbx, steps, cfg)
	res, err := Run(p, nbx, cfg, Options{
		Ranks:           3,
		Net:             cluster.GigE(),
		Steps:           steps,
		CheckpointEvery: 2,
		Fault:           &RankFault{Rank: 0, AfterStep: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || res.Survivors != 2 {
		t.Fatalf("recoveries=%d survivors=%d", res.Recoveries, res.Survivors)
	}
	refMass := ref.TotalMass()
	if rel := math.Abs(res.TotalMass-refMass) / refMass; rel > 1e-12 {
		t.Errorf("mass off by %.3e after root death", rel)
	}
	linf, _ := sampleL1(res.Tree, ref, p, 48)
	if linf > 1e-12 {
		t.Errorf("density Linf %.3e after root death", linf)
	}
}

// TestFaultAcrossRegrid places the failure window across a regrid, so
// the replay must redo the regrid (and any migration) deterministically.
func TestFaultAcrossRegrid(t *testing.T) {
	p := testprob.Blast2D
	cfg := blastConfig() // RegridEvery = 4
	const nbx, steps = 4, 10

	ref := referenceRun(t, p, nbx, steps, cfg)
	res, err := Run(p, nbx, cfg, Options{
		Ranks: 2,
		Net:   cluster.Infiniband(),
		Steps: steps,
		// Checkpoint at step 6, death detected at step 8 — right after
		// the regrid that fires on step 8 — so the replayed window
		// re-executes that regrid on the survivor partition.
		CheckpointEvery: 3,
		Fault:           &RankFault{Rank: 1, AfterStep: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.RecomputedSteps != 2 {
		t.Errorf("RecomputedSteps = %d, want 2", res.RecomputedSteps)
	}
	linf, l1 := sampleL1(res.Tree, ref, p, 64)
	if linf > 1e-12 || l1 > 1e-12 {
		t.Errorf("replay across regrid diverged: Linf=%.3e L1=%.3e", linf, l1)
	}
}

// TestFaultFreeCheckpointingInvariant: checkpointing alone must not
// perturb the run — same physics as the reference, overhead accounted.
func TestFaultFreeCheckpointingInvariant(t *testing.T) {
	p := testprob.Blast2D
	cfg := blastConfig()
	const nbx, steps = 4, 8

	ref := referenceRun(t, p, nbx, steps, cfg)
	res, err := Run(p, nbx, cfg, Options{
		Ranks:           3,
		Net:             cluster.Infiniband(),
		Steps:           steps,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 || res.Survivors != 3 {
		t.Fatalf("phantom recovery: %+v", res)
	}
	if res.Checkpoints != 4 { // steps 0, 2, 4, 6
		t.Errorf("Checkpoints = %d, want 4", res.Checkpoints)
	}
	refMass := ref.TotalMass()
	if rel := math.Abs(res.TotalMass-refMass) / refMass; rel > 1e-12 {
		t.Errorf("checkpointing perturbed the run: rel mass %.3e", rel)
	}
	linf, _ := sampleL1(res.Tree, ref, p, 48)
	if linf > 1e-12 {
		t.Errorf("checkpointing perturbed the density: Linf %.3e", linf)
	}
}

// TestFaultOptionsValidation covers the resilience-specific error paths.
func TestFaultOptionsValidation(t *testing.T) {
	cfg := blastConfig()
	fault := &RankFault{Rank: 0, AfterStep: 1}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{
		Ranks: 2, Steps: 2, Fault: fault,
	}); err == nil {
		t.Error("accepted fault injection without checkpointing")
	}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{
		Ranks: 1, Steps: 2, CheckpointEvery: 1, Fault: fault,
	}); err == nil {
		t.Error("accepted single-rank fault injection")
	}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{
		Ranks: 2, Steps: 2, CheckpointEvery: 1, Fault: &RankFault{Rank: 5},
	}); err == nil {
		t.Error("accepted out-of-range fault rank")
	}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{
		Ranks: 2, Steps: 2, CheckpointEvery: 1, Fault: &RankFault{Rank: 0, AfterStep: -1},
	}); err == nil {
		t.Error("accepted negative fault step")
	}
}
