package core

import (
	"math"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"repro/internal/atoms"
	"repro/internal/groundtruth"
	"repro/internal/neighbor"
	"repro/internal/o3"
	"repro/internal/tensor"
	"repro/internal/units"
)

func testSpecies() []units.Species { return []units.Species{units.H, units.O} }

func tinyConfig() Config {
	cfg := DefaultConfig(testSpecies())
	cfg.LMax = 1
	cfg.NumLayers = 2
	cfg.NumChannels = 2
	cfg.LatentDim = 8
	cfg.TwoBodyHidden = []int{8}
	cfg.LatentHidden = []int{8}
	cfg.EdgeHidden = 4
	cfg.NumBessel = 4
	cfg.AvgNumNeighbors = 4
	return cfg
}

func newTinyModel(t *testing.T, seed uint64) *Model {
	t.Helper()
	m, err := New(tinyConfig(), nil, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waterCluster builds nw water molecules scattered without overlap.
func waterCluster(rng *rand.Rand, nw int) *atoms.System {
	sys := atoms.NewSystem(3 * nw)
	for w := 0; w < nw; w++ {
		base := [3]float64{float64(w%3) * 3.1, float64((w/3)%3) * 3.1, float64(w/9) * 3.1}
		jit := func() float64 { return rng.NormFloat64() * 0.05 }
		sys.Species[3*w] = units.O
		sys.Species[3*w+1] = units.H
		sys.Species[3*w+2] = units.H
		sys.Pos[3*w] = [3]float64{base[0] + jit(), base[1] + jit(), base[2] + jit()}
		sys.Pos[3*w+1] = [3]float64{base[0] + 0.98 + jit(), base[1] + jit(), base[2] + jit()}
		sys.Pos[3*w+2] = [3]float64{base[0] - 0.30 + jit(), base[1] + 0.93 + jit(), base[2] + jit()}
	}
	return sys
}

func TestModelConstructionAndSize(t *testing.T) {
	m := newTinyModel(t, 1)
	if m.NumWeights() == 0 {
		t.Fatal("model has no weights")
	}
	// Production config should land near the paper's 7.85M weights.
	prod := ProductionConfig([]units.Species{units.H, units.C, units.N, units.O, units.P, units.S})
	pm, err := New(prod, nil, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	n := pm.NumWeights()
	if n < 3_000_000 || n > 20_000_000 {
		t.Fatalf("production weight count %d implausibly far from paper's 7.85M", n)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.LMax = 9
	if _, err := New(cfg, nil, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Fatal("LMax=9 must be rejected")
	}
	cfg = tinyConfig()
	cfg.NumLayers = 0
	if _, err := New(cfg, nil, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Fatal("zero layers must be rejected")
	}
	cfg = tinyConfig()
	cfg.Species = nil
	if _, err := New(cfg, nil, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Fatal("empty species must be rejected")
	}
}

func TestEnergyInvariance(t *testing.T) {
	m := newTinyModel(t, 3)
	rng := rand.New(rand.NewPCG(4, 5))
	sys := waterCluster(rng, 3)
	e0 := m.Evaluate(sys).Energy

	// Translation.
	tr := sys.Clone()
	for i := range tr.Pos {
		for k := 0; k < 3; k++ {
			tr.Pos[i][k] += 2.34
		}
	}
	if d := math.Abs(m.Evaluate(tr).Energy - e0); d > 1e-9 {
		t.Fatalf("translation changed energy by %g", d)
	}
	// Rotation.
	r := o3.RandomRotation(rng)
	rot := sys.Clone()
	for i := range rot.Pos {
		rot.Pos[i] = o3.ApplyRotation(r, rot.Pos[i])
	}
	if d := math.Abs(m.Evaluate(rot).Energy - e0); d > 1e-8 {
		t.Fatalf("rotation changed energy by %g", d)
	}
	// Mirror (O(3) includes parity).
	mir := sys.Clone()
	for i := range mir.Pos {
		mir.Pos[i][0] = -mir.Pos[i][0]
	}
	if d := math.Abs(m.Evaluate(mir).Energy - e0); d > 1e-8 {
		t.Fatalf("mirror changed energy by %g", d)
	}
}

// evalFunc is one way of evaluating a model: the tape oracle or the
// compiled path. The physics checks below run over both.
type evalFunc func(sys *atoms.System) (float64, [][3]float64)

// checkForceEquivariance: forces must rotate with the system, F(Rx) = R F(x).
func checkForceEquivariance(t *testing.T, eval evalFunc, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 8))
	sys := waterCluster(rng, 2)
	_, f0 := eval(sys)
	r := o3.RandomRotation(rng)
	rot := sys.Clone()
	for i := range rot.Pos {
		rot.Pos[i] = o3.ApplyRotation(r, rot.Pos[i])
	}
	_, f1 := eval(rot)
	for i := range f0 {
		want := o3.ApplyRotation(r, f0[i])
		for k := 0; k < 3; k++ {
			if math.Abs(want[k]-f1[i][k]) > tol {
				t.Fatalf("force equivariance violated at atom %d: %v vs %v", i, want, f1[i])
			}
		}
	}
}

// checkForcesMatchFiniteDifference: forces are the negative energy gradient
// by central differences.
func checkForcesMatchFiniteDifference(t *testing.T, eval evalFunc) {
	t.Helper()
	rng := rand.New(rand.NewPCG(10, 11))
	sys := waterCluster(rng, 2)
	_, forces := eval(sys)
	const h = 1e-5
	for _, i := range []int{0, 1, 3, 5} {
		for k := 0; k < 3; k++ {
			sp := sys.Clone()
			sm := sys.Clone()
			sp.Pos[i][k] += h
			sm.Pos[i][k] -= h
			ep, _ := eval(sp)
			em, _ := eval(sm)
			fd := -(ep - em) / (2 * h)
			if math.Abs(fd-forces[i][k]) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("force[%d][%d]: fd=%g model=%g", i, k, fd, forces[i][k])
			}
		}
	}
}

func TestForceEquivariance(t *testing.T) {
	checkForceEquivariance(t, newTinyModel(t, 6).EnergyForces, 1e-7)
}

func TestForcesMatchFiniteDifference(t *testing.T) {
	checkForcesMatchFiniteDifference(t, newTinyModel(t, 9).EnergyForces)
}

func TestStrictLocality(t *testing.T) {
	// Moving an atom beyond every cutoff must not change forces on a distant
	// cluster at all — the property that makes Allegro decomposable.
	m := newTinyModel(t, 12)
	rng := rand.New(rand.NewPCG(13, 14))
	sys := waterCluster(rng, 2)
	// Place a far probe molecule 100 A away.
	far := atoms.NewSystem(sys.NumAtoms() + 1)
	copy(far.Species, sys.Species)
	copy(far.Pos, sys.Pos)
	far.Species[sys.NumAtoms()] = units.O
	far.Pos[sys.NumAtoms()] = [3]float64{100, 100, 100}
	f1 := m.Evaluate(far).Forces
	far2 := far.Clone()
	far2.Pos[sys.NumAtoms()] = [3]float64{120, 90, 110}
	f2 := m.Evaluate(far2).Forces
	for i := 0; i < sys.NumAtoms(); i++ {
		for k := 0; k < 3; k++ {
			if f1[i][k] != f2[i][k] {
				t.Fatalf("distant atom affected local force (atom %d): %g vs %g", i, f1[i][k], f2[i][k])
			}
		}
	}
}

func TestSmoothnessAtCutoff(t *testing.T) {
	// Energy must go smoothly to a constant as a pair crosses the cutoff:
	// no discontinuity when the neighbor list changes.
	m := newTinyModel(t, 15)
	sys := atoms.NewSystem(2)
	sys.Species = []units.Species{units.O, units.O}
	rc := m.Cuts.Get(units.O, units.O)
	e := func(r float64) float64 {
		s := sys.Clone()
		s.Pos[1] = [3]float64{r, 0, 0}
		return m.Evaluate(s).Energy
	}
	eps := 1e-6
	below := e(rc - eps)
	above := e(rc + eps)
	if math.Abs(below-above) > 1e-6 {
		t.Fatalf("energy discontinuous at cutoff: %g vs %g", below, above)
	}
}

func TestPaddingPairsAreInert(t *testing.T) {
	m := newTinyModel(t, 16)
	rng := rand.New(rand.NewPCG(17, 18))
	sys := waterCluster(rng, 2)
	pairs := neighbor.Build(sys, m.Cuts)
	r1 := m.EvaluatePairs(sys, pairs)
	padded := neighbor.Build(sys, m.Cuts)
	padded.Pad(1.5)
	r2 := m.EvaluatePairs(sys, padded)
	if math.Abs(r1.Energy-r2.Energy) > 1e-10 {
		t.Fatalf("padding changed energy: %g vs %g", r1.Energy, r2.Energy)
	}
	for i := range r1.Forces {
		for k := 0; k < 3; k++ {
			if math.Abs(r1.Forces[i][k]-r2.Forces[i][k]) > 1e-10 {
				t.Fatal("padding changed forces")
			}
		}
	}
	if r2.PairWork <= r1.PairWork {
		t.Fatal("padding should increase pair work")
	}
}

func TestZBLRepulsionAtShortRange(t *testing.T) {
	m := newTinyModel(t, 19)
	sys := atoms.NewSystem(2)
	sys.Species = []units.Species{units.O, units.O}
	sys.Pos[1] = [3]float64{0.5, 0, 0}
	withZBL := m.Evaluate(sys).Energy
	m.Cfg.ZBL = false
	withoutZBL := m.Evaluate(sys).Energy
	if withZBL-withoutZBL < 1 {
		t.Fatalf("ZBL at 0.5 A should add strong repulsion; delta=%g", withZBL-withoutZBL)
	}
}

func TestAtomicEnergiesSumToTotal(t *testing.T) {
	m := newTinyModel(t, 20)
	rng := rand.New(rand.NewPCG(21, 22))
	sys := waterCluster(rng, 2)
	per := m.AtomicEnergies(sys)
	sum := 0.0
	for _, e := range per {
		sum += e
	}
	total := m.Evaluate(sys).Energy
	if math.Abs(sum-total) > 1e-8 {
		t.Fatalf("atomic energies sum %g != total %g", sum, total)
	}
}

func makeTrainingFrames(rng *rand.Rand, oracle *groundtruth.Oracle, n int) []*atoms.Frame {
	frames := make([]*atoms.Frame, 0, n)
	for i := 0; i < n; i++ {
		sys := waterCluster(rng, 2)
		// Perturb to sample off-equilibrium configurations.
		for a := range sys.Pos {
			for k := 0; k < 3; k++ {
				sys.Pos[a][k] += rng.NormFloat64() * 0.08
			}
		}
		e, f := oracle.EnergyForces(sys)
		frames = append(frames, &atoms.Frame{Sys: sys, Energy: e, Forces: f})
	}
	return frames
}

func TestTrainingReducesForceError(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	oracle := groundtruth.New()
	train := makeTrainingFrames(rng, oracle, 12)
	test := makeTrainingFrames(rng, oracle, 4)

	m := newTinyModel(t, 25)
	tc := DefaultTrainConfig()
	tc.Epochs = 12
	tc.BatchSize = 4
	tc.LR = 5e-3
	tr := NewTrainer(m, tc)

	tr.FitScaleShift(train)
	before := tr.Evaluate(test)
	tr.Train(train)
	after := tr.Evaluate(test)
	if after.ForceRMSE >= before.ForceRMSE {
		t.Fatalf("training did not reduce force RMSE: %v -> %v", before, after)
	}
	if after.ForceRMSE > 0.9*before.ForceRMSE {
		t.Fatalf("training improvement marginal: %v -> %v", before, after)
	}
}

func TestForceLossGradientDirection(t *testing.T) {
	// One training step on a single frame must reduce that frame's loss
	// (sanity check of the R-operator force gradient sign).
	rng := rand.New(rand.NewPCG(26, 27))
	oracle := groundtruth.New()
	frames := makeTrainingFrames(rng, oracle, 1)
	m := newTinyModel(t, 28)
	tc := DefaultTrainConfig()
	tc.LR = 1e-3
	tr := NewTrainer(m, tc)
	tr.FitScaleShift(frames)
	l0 := tr.Step(frames)
	var l1 float64
	for i := 0; i < 20; i++ {
		l1 = tr.Step(frames)
	}
	if l1 >= l0 {
		t.Fatalf("repeated steps on one frame should overfit it: %g -> %g", l0, l1)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := newTinyModel(t, 29)
	rng := rand.New(rand.NewPCG(30, 31))
	sys := waterCluster(rng, 2)
	m.SetScaleShift(2.5, []float64{-1.0, -2.0})
	e0 := m.Evaluate(sys).Energy
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m2.Evaluate(sys).Energy
	if e0 != e1 {
		t.Fatalf("round trip changed energy: %g vs %g", e0, e1)
	}
}

func TestMixedPrecisionCloseToF64(t *testing.T) {
	// A TF32-compute model must produce nearly identical energies to the
	// same weights in F64 (Table IV: accuracy unaffected).
	cfg := tinyConfig()
	m64, err := New(cfg, nil, rand.New(rand.NewPCG(32, 33)))
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := cfg
	cfg32.Precision = ProductionPrecision()
	m32, err := New(cfg32, nil, rand.New(rand.NewPCG(32, 33))) // same seed = same weights
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(34, 35))
	sys := waterCluster(rng, 3)
	e64 := m64.Evaluate(sys).Energy
	e32 := m32.Evaluate(sys).Energy
	if e64 == e32 {
		t.Fatal("TF32 evaluation should differ in ulps from F64")
	}
	if math.Abs(e64-e32) > 1e-2*(1+math.Abs(e64)) {
		t.Fatalf("TF32 energy error too large: %g vs %g", e32, e64)
	}
}

func TestFinalStagePrecisionMatters(t *testing.T) {
	// With F32 final stage the energy is f32-rounded.
	cfg := tinyConfig()
	cfg.Precision.Final = tensor.F32
	m, err := New(cfg, nil, rand.New(rand.NewPCG(36, 37)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(38, 39))
	sys := waterCluster(rng, 2)
	e := m.Evaluate(sys).Energy
	if float64(float32(e)) != e {
		t.Fatalf("final F32 energy %v not f32-representable", e)
	}
}

func TestBioCutoffsFor(t *testing.T) {
	ct := BioCutoffsFor([]units.Species{units.H, units.C, units.O})
	if ct.Get(units.H, units.C) != 1.25 || ct.Get(units.C, units.H) != 4.0 {
		t.Fatal("BioCutoffsFor must install ordered paper cutoffs")
	}
}
