package rhsc

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestJet2DInflowOnEveryDriver: jet2d's nozzle is a Custom x-lo face
// (testprob.Jet2D.SetupGrid). Every driver builds its blocks through the
// problem's one face rule, so the beam enters under AMR and under any
// rank count exactly as on the uniform grid, and a restored checkpoint
// gets its hook back; the tracer, which the hook cannot fill, refuses the
// face.
func TestJet2DInflowOnEveryDriver(t *testing.T) {
	o := Options{Problem: "jet2d", N: 64}

	t.Run("amr", func(t *testing.T) {
		a, err := NewAMRSim(o, AMROptions{RootBlocks: 4, BlockN: 8, MaxLevel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RunTo(0.2); err != nil {
			t.Fatal(err)
		}
		if w := a.At(0.02, 0); w.Vx <= 0.9 {
			t.Errorf("AMR jet2d at (0.02, 0), t = 0.2: %+v, want the beam (Vx > 0.9)", w)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		const steps = 20
		s, err := NewSim(o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want := s.Mass()
		for _, ranks := range []int{1, 2, 4} {
			res, err := RunCluster(o, ClusterOptions{Ranks: ranks, Steps: steps})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(res.TotalMass-want) / want; rel > 1e-12 {
				t.Errorf("%d ranks: total mass %.15g, serial %.15g (rel %.3g)", ranks, res.TotalMass, want, rel)
			}
		}
	})

	// A checkpoint stores the face kinds but not the nozzle's hook; the
	// restored run must rebuild it and continue bitwise.
	t.Run("restore", func(t *testing.T) {
		s, err := NewSim(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		var ckpt bytes.Buffer
		if err := s.CheckpointExact(&ckpt); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(&ckpt, o)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		for _, sim := range []*Sim{s, r} {
			for i := 0; i < 3; i++ {
				if _, err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.CheckpointExact(&want); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckpointExact(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Error("restored jet2d run differs from the uninterrupted one")
		}
	})

	t.Run("tracer", func(t *testing.T) {
		s, err := NewSim(o)
		if err != nil {
			t.Fatal(err)
		}
		err = s.EnableTracer(func(x, _, _ float64) float64 { return 1 })
		if err == nil || !strings.Contains(err.Error(), "Custom") {
			t.Errorf("EnableTracer on jet2d = %v, want a Custom-face error", err)
		}
	})
}
