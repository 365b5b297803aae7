package perfmodel

import (
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/domain"
	"repro/internal/units"
)

func TestMeasureSingleNode(t *testing.T) {
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	m, err := core.New(cfg, nil, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	sys := data.WaterBox(rand.New(rand.NewPCG(3, 4)), 2, 2, 2)
	meas := MeasureSingleNode(m, sys, 3)
	if meas.Atoms != sys.NumAtoms() {
		t.Fatalf("atoms %d vs %d", meas.Atoms, sys.NumAtoms())
	}
	if meas.Pairs <= 0 || meas.PairsPerSec <= 0 || meas.TimePerAtom <= 0 {
		t.Fatalf("degenerate measurement: %+v", meas)
	}
	if meas.Workers < 1 {
		t.Fatalf("workers %d", meas.Workers)
	}
	// Steady state must stay far below one allocation per pair — the
	// regression guard for the zero-allocation pipeline.
	if meas.AllocsPerOp > float64(meas.Pairs) {
		t.Errorf("allocs/op %.0f exceeds pair count %d: steady-state reuse broken", meas.AllocsPerOp, meas.Pairs)
	}
}

func TestCalibrateMachine(t *testing.T) {
	mach := cluster.Perlmutter()
	meas := Measurement{TimePerAtom: 3.3e-6}
	cal := CalibrateMachine(mach, meas)
	if cal.TimePerAtom != 3.3e-6 {
		t.Fatalf("calibration not applied: %g", cal.TimePerAtom)
	}
	if cal.GhostBandwidth != mach.GhostBandwidth || cal.SyncPerLog2 != mach.SyncPerLog2 {
		t.Fatalf("communication terms must be preserved")
	}
	// A degenerate measurement must not zero the machine model.
	if CalibrateMachine(mach, Measurement{}).TimePerAtom != mach.TimePerAtom {
		t.Fatalf("zero measurement should leave machine untouched")
	}
	// The calibrated machine steps faster at the same scale when measured
	// compute is faster than the frozen constant.
	w := cluster.Water("water", 1_000_000)
	if cal.StepTime(w, 16) >= mach.StepTime(w, 16) {
		t.Fatalf("faster compute did not reduce modeled step time")
	}
}

// measuredFixture builds a small decomposable model + water box (cutoff
// 3 A on the 3x3x3 cell, so a 2x1x1 grid satisfies the halo constraint).
func measuredFixture(t *testing.T) (*core.Model, *atoms.System) {
	t.Helper()
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	cfg.LMax = 1
	cfg.NumLayers = 2
	cfg.NumChannels = 2
	cfg.LatentDim = 8
	cfg.TwoBodyHidden = []int{8}
	cfg.LatentHidden = []int{8}
	cfg.EdgeHidden = 4
	cfg.NumBessel = 4
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	m, err := core.New(cfg, nil, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	return m, data.WaterBox(rand.New(rand.NewPCG(3, 4)), 3, 3, 3)
}

// TestMeasureRuntimeOverlapAndCalibration checks the decomposed
// measurement's pipeline numbers — phase breakdown and overlap fraction —
// and that CalibrateMachineDecomposed threads both the compute anchor and
// the overlap discount into the cluster model.
func TestMeasureRuntimeOverlapAndCalibration(t *testing.T) {
	m, sys := measuredFixture(t)
	meas, err := MeasureDecomposed(m, sys, domain.RuntimeOptions{Grid: [3]int{2, 1, 1}, Skin: 0.5, Overlap: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if meas.OverlapFraction < 0 || meas.OverlapFraction > 1 {
		t.Fatalf("overlap fraction %g out of [0,1]", meas.OverlapFraction)
	}
	// Interior time is rank-self-timed and legitimately zero when the grid
	// leaves no interior region on this small box; the other phases always
	// do work.
	if meas.InteriorNsStep < 0 || meas.FrontierNsStep <= 0 || meas.ReduceNsStep <= 0 {
		t.Fatalf("phase breakdown did not populate: %+v", meas)
	}
	mach := cluster.Perlmutter()
	cal := CalibrateMachineDecomposed(mach, meas)
	if cal.TimePerAtom != meas.TimePerAtom {
		t.Fatalf("compute anchor not applied: %g vs %g", cal.TimePerAtom, meas.TimePerAtom)
	}
	if meas.OverlapFraction > 0 && cal.Overlap != meas.OverlapFraction {
		t.Fatalf("overlap fraction not applied: %g vs %g", cal.Overlap, meas.OverlapFraction)
	}
	// Against the same compute anchor, the overlap discount must never
	// make a step slower, and must strictly help when positive.
	w := cluster.Water("water-1M", 1_000_000)
	calSync := CalibrateMachine(mach, meas.Measurement)
	if s0, s1 := calSync.StepTime(w, 64), cal.StepTime(w, 64); s1 > s0 {
		t.Fatalf("calibrated overlapped step %g slower than synchronous %g", s1, s0)
	}
	ov := mach
	ov.Overlap = 0.9
	if s0, s1 := mach.StepTime(w, 64), ov.StepTime(w, 64); s1 >= s0 {
		t.Fatalf("overlap 0.9 did not reduce the step time: %g vs %g", s1, s0)
	}
}

// TestDegenerateMeasurementDoesNotCalibrate checks the anchor-hygiene
// contract of the decomposed overlay: a measurement without a compute anchor
// must not push its overlap fraction onto an anchor it did not produce.
func TestDegenerateMeasurementDoesNotCalibrate(t *testing.T) {
	mach := CalibrateMachine(cluster.Perlmutter(), Measurement{TimePerAtom: 1e-6})
	mach = CalibrateMachineDecomposed(mach, DecomposedMeasurement{OverlapFraction: 0.5})
	if mach.Overlap == 0.5 || mach.TimePerAtom != 1e-6 {
		t.Fatalf("degenerate measurement calibrated the machine: overlap %g, s/atom %g", mach.Overlap, mach.TimePerAtom)
	}
}
