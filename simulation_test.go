package allegro

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/data"
	"repro/internal/domain"
	"repro/internal/md"
	"repro/internal/perfmodel"
)

// testModelAndBox builds the small Allegro model and relaxed water box the
// API-equivalence tests run on (the water-parallel example configuration).
func testModelAndBox(t testing.TB) (*Model, *System) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 8))
	sys := data.WaterBox(rng, 3, 3, 3)
	cfg := DefaultConfig([]Species{H, O})
	cfg.LMax = 1
	cfg.NumChannels = 2
	cfg.LatentDim = 12
	cfg.TwoBodyHidden = []int{12}
	cfg.LatentHidden = []int{12}
	cfg.EdgeHidden = 6
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	model, err := NewModel(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return model, sys
}

// legacyRNG reproduces the engine RNG so legacy constructors can be driven
// with the exact velocity and thermostat streams of NewSimulation.
func legacyRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, md.SeedStream))
}

func samePositions(t *testing.T, what string, a, b *atoms.System) {
	t.Helper()
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("%s: trajectories diverged at atom %d: %v vs %v", what, i, a.Pos[i], b.Pos[i])
		}
	}
}

// TestNewSimulationMatchesLegacySerial checks that the default (serial)
// backend reproduces hand-wired md.NewSim over a core.Evaluator bit-for-bit,
// thermostat and velocity streams included.
func TestNewSimulationMatchesLegacySerial(t *testing.T) {
	model, box := testModelAndBox(t)
	const seed, tempK, dt, steps = 9, 300.0, 0.4, 12

	sysNew := box.Clone()
	sim, err := NewSimulation(sysNew, model,
		WithTimestep(dt), WithTemperature(tempK), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Decomposed() {
		t.Fatal("default options selected the decomposed backend")
	}

	sysOld := box.Clone()
	ev := NewEvaluator(model)
	defer ev.Close()
	legacy := md.NewSim(sysOld, ev, dt)
	rng := legacyRNG(seed)
	legacy.Thermostat = &Langevin{TempK: tempK, Gamma: md.DefaultLangevinGamma, Rng: rng}
	legacy.InitVelocities(tempK, rng)

	if err := sim.Run(context.Background(), steps); err != nil {
		t.Fatal(err)
	}
	legacy.Run(steps)

	samePositions(t, "serial", sysNew, sysOld)
	if got := sim.Report().PotentialEnergy; got != legacy.Energy {
		t.Fatalf("energies diverged: %.17g vs %.17g", got, legacy.Energy)
	}
}

// TestNewSimulationMatchesLegacyDecomposed checks that WithGrid reproduces
// hand-wired md.NewDecomposedSim over a domain.Runtime bit-for-bit across rank
// grids — and therefore (transitively, via the runtime's grid-invariance)
// that every grid agrees with every other.
func TestNewSimulationMatchesLegacyDecomposed(t *testing.T) {
	model, box := testModelAndBox(t)
	const seed, tempK, dt, skin, steps = 9, 300.0, 0.4, 0.5, 12

	var firstGrid *atoms.System
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}} {
		sysNew := box.Clone()
		sim, err := NewSimulation(sysNew, model,
			WithTimestep(dt), WithTemperature(tempK), WithSeed(seed),
			WithGrid(grid[0], grid[1], grid[2]), WithSkin(skin))
		if err != nil {
			t.Fatal(err)
		}
		if !sim.Decomposed() || sim.Grid() != grid {
			t.Fatalf("WithGrid(%v) backend: decomposed=%v grid=%v", grid, sim.Decomposed(), sim.Grid())
		}

		sysOld := box.Clone()
		rt, err := domain.NewRuntime(model, sysOld, RuntimeOptions{Grid: grid, Skin: skin})
		if err != nil {
			t.Fatal(err)
		}
		legacy := md.NewDecomposedSim(sysOld, rt, dt)
		rng := legacyRNG(seed)
		legacy.Thermostat = &Langevin{TempK: tempK, Gamma: md.DefaultLangevinGamma, Rng: rng}
		legacy.InitVelocities(tempK, rng)

		if err := sim.Run(context.Background(), steps); err != nil {
			t.Fatal(err)
		}
		legacy.Run(steps)

		samePositions(t, sim.Backend(), sysNew, sysOld)
		if got := sim.Report().PotentialEnergy; got != legacy.Energy {
			t.Fatalf("grid %v: energies diverged: %.17g vs %.17g", grid, got, legacy.Energy)
		}

		if firstGrid == nil {
			firstGrid = sysNew
		} else {
			samePositions(t, "across grids", firstGrid, sysNew)
		}

		legacy.Close()
		if err := sim.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimulationCloseIdempotentBothBackends exercises the uniform Close
// contract: safe, idempotent, and usable on serial and decomposed alike.
func TestSimulationCloseIdempotentBothBackends(t *testing.T) {
	model, box := testModelAndBox(t)
	for _, opts := range [][]Option{
		nil, // serial
		{WithGrid(2, 1, 1)},
	} {
		sim, err := NewSimulation(box.Clone(), model, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sim.Step()
		for i := 0; i < 3; i++ {
			if err := sim.Close(); err != nil {
				t.Fatalf("%s Close #%d: %v", sim.Backend(), i+1, err)
			}
		}
		if err := sim.Run(context.Background(), 1); err == nil {
			t.Fatalf("%s: Run after Close succeeded", sim.Backend())
		}
	}
}

func TestNewSimulationOptionErrors(t *testing.T) {
	model, box := testModelAndBox(t)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"grid+auto", []Option{WithGrid(2, 1, 1), WithAutoDecompose()}},
		{"bad grid", []Option{WithGrid(0, 1, 1)}},
		{"bad skin", []Option{WithSkin(-1)}},
		{"bad halo", []Option{WithHalo(-2)}},
		{"bad workers", []Option{WithWorkers(-1)}},
		{"bad timestep", []Option{WithTimestep(0)}},
		{"nil extra", []Option{WithExtraPotential(nil)}},
		{"extra on decomposed", []Option{WithGrid(2, 1, 1), WithExtraPotential(NewWaterLongRange())}},
		{"grid too fine", []Option{WithGrid(8, 8, 8)}},
	} {
		if sim, err := NewSimulation(box.Clone(), model, tc.opts...); err == nil {
			sim.Close()
			t.Errorf("%s: invalid options accepted", tc.name)
		}
	}
}

// TestNewSimulationAutoDecompose checks the perfmodel-informed dispatch:
// the picked backend runs, respects the machine budget, and agrees with an
// explicitly configured simulation of the same grid bit-for-bit.
func TestNewSimulationAutoDecompose(t *testing.T) {
	model, box := testModelAndBox(t)
	auto, err := NewSimulation(box.Clone(), model,
		WithAutoDecompose(), WithTemperature(300), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	g := auto.Grid()
	if auto.Decomposed() != (g != [3]int{1, 1, 1}) {
		t.Fatalf("inconsistent auto dispatch: decomposed=%v grid=%v", auto.Decomposed(), g)
	}

	var ref *Simulation
	if auto.Decomposed() {
		ref, err = NewSimulation(box.Clone(), model,
			WithGrid(g[0], g[1], g[2]), WithTemperature(300), WithSeed(4))
	} else {
		ref, err = NewSimulation(box.Clone(), model, WithTemperature(300), WithSeed(4))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	if err := auto.Run(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	samePositions(t, "auto vs explicit", auto.System(), ref.System())
}

// TestNewSimulationExtraPotential checks potential composition through the
// in-place Combined path: the reported energy is the sum of the members'.
func TestNewSimulationExtraPotential(t *testing.T) {
	model, box := testModelAndBox(t)
	lr := NewWaterLongRange()

	sim, err := NewSimulation(box.Clone(), model, WithExtraPotential(lr))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	eModel, _ := model.EnergyForces(box.Clone())
	eLR, _ := lr.EnergyForces(box.Clone())
	if got := sim.Report().PotentialEnergy; math.Abs(got-(eModel+eLR)) > 1e-9 {
		t.Fatalf("composed energy %g, want %g + %g", got, eModel, eLR)
	}
}

// TestSimulationCheckpointResumeFacade round-trips a checkpoint through
// the facade on the decomposed backend: the resumed NVE trajectory is
// bit-identical to the uninterrupted one.
func TestSimulationCheckpointResumeFacade(t *testing.T) {
	model, box := testModelAndBox(t)
	mk := func() *Simulation {
		sim, err := NewSimulation(box.Clone(), model,
			WithGrid(2, 1, 1), WithTemperature(250), WithSeed(6), WithThermostat(nil))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	ref := mk()
	defer ref.Close()
	if err := ref.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}

	half := mk()
	defer half.Close()
	if err := half.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := half.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	resumed := mk()
	defer resumed.Close()
	if err := resumed.Resume(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	samePositions(t, "checkpoint/resume", ref.System(), resumed.System())
}

// TestSimulationCompiledBitIdentical is the trajectory-level half of the
// compiled-engine correctness bar: serial MD driven by compiled plan replay
// (at two worker counts) must be bit-identical to the same engine driven by
// the tape oracle (Model.EnergyForces) — positions and reports exactly equal
// after thermostatted steps. (The chunk-level property sweep, which is what
// the decomposed backend's ranks run, lives in core's
// TestCompiledMatchesTape.)
func TestSimulationCompiledBitIdentical(t *testing.T) {
	model, box := testModelAndBox(t)
	const steps = 25
	tapeSys := box.Clone()
	tape, err := md.NewSimulation(tapeSys, model,
		md.WithTimestep(0.4), md.WithTemperature(300), md.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := tape.Run(context.Background(), steps); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		comp, err := NewSimulation(box.Clone(), model,
			WithTimestep(0.4), WithTemperature(300), WithSeed(9), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := comp.Run(context.Background(), steps); err != nil {
			t.Fatal(err)
		}
		if a, b := tape.Report(), comp.Report(); a != b {
			t.Fatalf("workers %d: reports diverged:\n tape: %+v\n comp: %+v", workers, a, b)
		}
		samePositions(t, "compiled vs tape", tapeSys, comp.System())
		comp.Close()
	}
}

// TestSimulationOverlapBitIdentical pins the public-API form of the
// exchange-hiding invariant: the deprecated WithOverlap option changes
// nothing — bit-identical positions and energy with it on or off,
// thermostat stream included — and the ranks' interior/frontier split and
// overlap fraction reach the facade's Stats.
func TestSimulationOverlapBitIdentical(t *testing.T) {
	model, _ := testModelAndBox(t)
	// A box elongated along x so each 2x1x1 subdomain is deeper than
	// halo+skin from its faces: the split then has a genuine interior.
	box := data.WaterBox(rand.New(rand.NewPCG(7, 8)), 6, 3, 3)
	run := func(opts ...Option) *Simulation {
		base := []Option{WithTimestep(0.4), WithSkin(0.4), WithTemperature(300), WithSeed(9)}
		sim, err := NewSimulation(box.Clone(), model, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(context.Background(), 30); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	syncSim := run(WithGrid(2, 1, 1))
	defer syncSim.Close()
	ovSim := run(WithGrid(2, 1, 1), WithOverlap())
	defer ovSim.Close()
	if a, b := syncSim.Report(), ovSim.Report(); a != b {
		t.Fatalf("reports diverged:\n sync: %+v\n  ovl: %+v", a, b)
	}
	samePositions(t, "overlap vs sync", syncSim.System(), ovSim.System())

	st, ok := ovSim.Stats()
	if !ok {
		t.Fatal("decomposed backend must expose stats")
	}
	if st.InteriorPairs <= 0 || st.InteriorPairs >= st.PairWork {
		t.Fatalf("expected a genuine interior/frontier split on 2x1x1, got %d/%d", st.InteriorPairs, st.PairWork)
	}
	if f := st.OverlapFraction(); f < 0 || f > 1 {
		t.Fatalf("measured overlap fraction %g out of [0,1]", f)
	}
}

// TestDriftProbeExactEngineIsZero pins the zero point of the drift probe
// (the model-vs-reference comparison behind the benchmark's force-error
// rows): probing an engine against its own model, at the states its
// trajectory visited, reads exactly zero force and energy deviation — the
// probe and the engine evaluate the same model the same way. The
// decomposed backend reads zero too: it orders each center's pairs as the
// serial list does and sums rows exactly, so it gives the serial bits.
func TestDriftProbeExactEngineIsZero(t *testing.T) {
	model, box := testModelAndBox(t)
	probe := perfmodel.NewDriftProbe(model)
	defer probe.Close()
	for _, c := range []struct {
		opts []Option
		tol  float64 // eV/A and eV/atom
	}{
		{[]Option{WithWorkers(1)}, 0},
		{[]Option{WithGrid(2, 1, 1)}, 0},
	} {
		sim, err := NewSimulation(box.Clone(), model, append(c.opts, WithTemperature(300), WithSeed(3))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
		s := probe.Measure(sim.System(), sim.Forces(), sim.Report().PotentialEnergy)
		if s.MaxForceErrEvA > c.tol || s.RMSForceErrEvA > c.tol || s.EnergyErrEvAtom > c.tol {
			t.Errorf("%s: exact engine probed deviation %+v, want <= %g", sim.Backend(), s, c.tol)
		}
		sim.Close()
	}
}
