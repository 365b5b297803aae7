package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/neighbor"
	"repro/internal/units"
)

func testModel(t testing.TB, workers int) *Model {
	t.Helper()
	cfg := DefaultConfig([]units.Species{units.H, units.O})
	cfg.Workers = workers
	m, err := New(cfg, nil, rand.New(rand.NewPCG(11, 13)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testWater(seed uint64) *atoms.System {
	return data.WaterBox(rand.New(rand.NewPCG(seed, 1)), 2, 2, 2)
}

// sameBits fails the test unless energy and every force component are
// exactly equal.
func sameBits(t *testing.T, what string, gotE, wantE float64, got, want [][3]float64) {
	t.Helper()
	if gotE != wantE {
		t.Errorf("%s: energy %.17g vs %.17g", what, gotE, wantE)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: atom %d force %v vs %v", what, i, got[i], want[i])
			return
		}
	}
}

// TestEvaluateIntoMatchesEvaluate checks the scratch path against the
// allocating path bit for bit in the serial case.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	m := testModel(t, 1)
	sys := testWater(3)
	want := m.Evaluate(sys)
	es := NewEvalScratch()
	defer es.Close()
	got := m.EvaluateInto(es, sys)
	if got.Energy != want.Energy {
		t.Fatalf("energy %.17g vs %.17g", got.Energy, want.Energy)
	}
	for i := range want.Forces {
		if got.Forces[i] != want.Forces[i] {
			t.Fatalf("force %d: %v vs %v", i, got.Forces[i], want.Forces[i])
		}
	}
	if got.PairWork != want.PairWork {
		t.Fatalf("pair work %d vs %d", got.PairWork, want.PairWork)
	}
}

// TestEvaluateIntoReuse checks that repeated scratch evaluations are stable.
func TestEvaluateIntoReuse(t *testing.T) {
	m := testModel(t, 2)
	sys := testWater(4)
	es := NewEvalScratch()
	defer es.Close()
	first := m.EvaluateInto(es, sys)
	e0 := first.Energy
	f0 := append([][3]float64(nil), first.Forces...)
	for it := 0; it < 5; it++ {
		r := m.EvaluateInto(es, sys)
		if r.Energy != e0 {
			t.Fatalf("iteration %d: energy drifted %.17g vs %.17g", it, r.Energy, e0)
		}
		for i := range f0 {
			if r.Forces[i] != f0[i] {
				t.Fatalf("iteration %d: force %d drifted", it, i)
			}
		}
	}
}

// TestEvaluateIntoDeterminismAcrossWorkers is the determinism test of the
// full scratch path (parallel neighbor build + chunked evaluation + the one
// pair-order reduction): results are bitwise reproducible across fresh
// scratches and bitwise equal to the single-worker evaluation.
func TestEvaluateIntoDeterminismAcrossWorkers(t *testing.T) {
	sys := testWater(5)

	mSerial := testModel(t, 1)
	serial := mSerial.EvaluateInto(NewEvalScratch(), sys)

	mPar := testModel(t, 4)
	esA, esB := NewEvalScratch(), NewEvalScratch()
	defer esA.Close()
	defer esB.Close()
	a := mPar.EvaluateInto(esA, sys)
	b := mPar.EvaluateInto(esB, sys)
	sameBits(t, "workers=4, fresh scratch", b.Energy, a.Energy, b.Forces, a.Forces)
	sameBits(t, "workers=4 vs workers=1", a.Energy, serial.Energy, a.Forces, serial.Forces)
}

// TestEvaluatorPaddingNeutral checks that fake-pair padding changes neither
// energies nor forces.
func TestEvaluatorPaddingNeutral(t *testing.T) {
	m := testModel(t, 1)
	sys := testWater(6)
	want := m.Evaluate(sys)

	e := NewEvaluator(m)
	defer e.Close()
	e.PadFactor = 1.25
	energy := 0.0
	forces := make([][3]float64, sys.NumAtoms())
	energy = e.EnergyForcesInto(sys, forces)
	if energy != want.Energy {
		t.Fatalf("padded energy %.17g vs %.17g", energy, want.Energy)
	}
	for i := range forces {
		if forces[i] != want.Forces[i] {
			t.Fatalf("padded force %d: %v vs %v", i, forces[i], want.Forces[i])
		}
	}
	if e.PairWork() <= want.PairWork {
		t.Fatalf("padding did not grow pair work (%d vs %d)", e.PairWork(), want.PairWork)
	}
}

// TestEvaluatorPadToRunningMax checks shape stabilization: pair work is
// monotone non-decreasing across evaluations even as real pair counts
// fluctuate.
func TestEvaluatorPadToRunningMax(t *testing.T) {
	m := testModel(t, 1)
	e := NewEvaluator(m)
	defer e.Close()
	forces := make([][3]float64, testWater(7).NumAtoms())
	prev := 0
	for it := 0; it < 4; it++ {
		sys := testWater(uint64(7 + it)) // different boxes, fluctuating pairs
		e.EnergyForcesInto(sys, forces)
		if e.PairWork() < prev {
			t.Fatalf("pair work shrank: %d -> %d", prev, e.PairWork())
		}
		prev = e.PairWork()
	}
}

// TestSimStepDeterminismParallel runs the full MD step (parallel neighbor
// build + chunked evaluation) twice from identical initial conditions
// and requires bitwise-identical trajectories.
func TestSimStepDeterminismParallel(t *testing.T) {
	run := func() *md.Sim {
		m := testModel(t, 4)
		sys := testWater(9)
		sim := md.NewSim(sys, NewEvaluator(m), 0.25)
		sim.InitVelocities(300, rand.New(rand.NewPCG(21, 22)))
		sim.Run(3)
		return sim
	}
	a, b := run(), run()
	if a.Energy != b.Energy {
		t.Fatalf("energies diverged: %.17g vs %.17g", a.Energy, b.Energy)
	}
	for i := range a.Sys.Pos {
		if a.Sys.Pos[i] != b.Sys.Pos[i] {
			t.Fatalf("positions diverged at atom %d", i)
		}
		if a.Vel[i] != b.Vel[i] {
			t.Fatalf("velocities diverged at atom %d", i)
		}
	}
}

// TestEvaluatorSteadyStateAllocs pins the steady-state allocation rate of
// the full force call on all cores — neighbor build, chunked plan replay,
// reduction — to zero: every buffer is recycled once the shape is warm.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	m := testModel(t, 0) // all cores
	sys := testWater(10)
	e := NewEvaluator(m)
	defer e.Close()
	forces := make([][3]float64, sys.NumAtoms())
	for i := 0; i < 3; i++ {
		e.EnergyForcesInto(sys, forces) // warm up plans and pools
	}
	if allocs := testing.AllocsPerRun(10, func() {
		e.EnergyForcesInto(sys, forces)
	}); allocs != 0 {
		t.Errorf("steady-state force call allocates %.0f allocs/op, want 0", allocs)
	}
}

// TestChunkedEvaluationBitwiseAcrossWorkers checks the chunked parallel
// evaluation against the single-worker one and against the tape oracle:
// energy and every force component are exactly equal for every worker
// count, with and without padding (which lands in the tail chunk), with and
// without the ZBL core, at exact and production precision.
func TestChunkedEvaluationBitwiseAcrossWorkers(t *testing.T) {
	sys := testWater(12)
	for _, pc := range []PrecisionConfig{ExactPrecision(), ProductionPrecision()} {
		for _, zbl := range []bool{true, false} {
			cfg := DefaultConfig([]units.Species{units.H, units.O})
			cfg.Precision = pc
			cfg.ZBL = zbl
			m, err := New(cfg, nil, rand.New(rand.NewPCG(11, 13)))
			if err != nil {
				t.Fatal(err)
			}
			m.SetScaleShift(1.25, []float64{-0.5, -1.75})
			oracle := m.Evaluate(sys)
			for _, pad := range []float64{1, 1.10} {
				var want [][3]float64
				var wantE float64
				for _, workers := range []int{1, 2, 3, 5, 8} {
					what := fmt.Sprintf("%v zbl=%v pad=%g workers=%d", pc, zbl, pad, workers)
					e := NewEvaluator(m)
					e.Scratch.Workers = workers
					e.PadFactor = pad
					forces := make([][3]float64, sys.NumAtoms())
					energy := e.EnergyForcesInto(sys, forces)
					e.Close()
					if workers == 1 {
						want, wantE = forces, energy
						sameBits(t, what+" vs tape oracle", energy, oracle.Energy, forces, oracle.Forces)
					}
					sameBits(t, what+" vs workers=1", energy, wantE, forces, want)
				}
			}
		}
	}
}

// TestEvaluateRowsIntoReducesToForces checks the row-level entry point (the
// domain runtime's rank evaluation) against a hand-written pair-order
// reduction: rows[z] (+center, -neighbor) plus pair energies and species
// shifts must reproduce EvaluatePairsInto bit for bit — serial and
// chunked-parallel alike, since per-pair rows are independent of the chunk
// layout.
func TestEvaluateRowsIntoReducesToForces(t *testing.T) {
	for _, workers := range []int{1, 3} {
		m := testModel(t, workers)
		m.SetScaleShift(1.25, []float64{-0.5, -1.75})
		sys := testWater(9)
		es := NewEvalScratch()
		var pairs neighbor.Pairs
		es.ensure(m)
		es.builder.BuildInto(&pairs, sys, m.Cuts)

		ref := NewEvalScratch()
		want := m.EvaluatePairsInto(ref, sys, &pairs)
		wantForces := append([][3]float64(nil), want.Forces...)
		ref.Close()

		rows := make([][3]float64, pairs.Len())
		pairE := make([]float64, pairs.Len())
		m.EvaluateRowsInto(es, sys, &pairs, rows, pairE)
		es.Close()

		forces := make([][3]float64, sys.NumAtoms())
		energy := 0.0
		for z := 0; z < pairs.NumReal; z++ {
			i, j := pairs.I[z], pairs.J[z]
			for k := 0; k < 3; k++ {
				forces[i][k] += rows[z][k]
				forces[j][k] -= rows[z][k]
			}
			energy += pairE[z]
		}
		for _, sp := range sys.Species {
			energy += m.EnergyShift[m.Idx.Index(sp)]
		}
		if energy != want.Energy {
			t.Fatalf("workers=%d: row energy %.17g vs %.17g", workers, energy, want.Energy)
		}
		for i := range forces {
			if forces[i] != wantForces[i] {
				t.Fatalf("workers=%d: row-reduced force mismatch at atom %d", workers, i)
			}
		}
	}
}

// TestEvaluateRowsSkinPairsExactlyZero pins the Verlet-reuse identity: rows
// and pair energies of skin-shell pairs (Dist >= Cut) are exactly zero, so
// a skin list evaluates to bit-identical totals as the exact list.
func TestEvaluateRowsSkinPairsExactlyZero(t *testing.T) {
	m := testModel(t, 1)
	sys := testWater(10)
	es := NewEvalScratch()
	defer es.Close()
	es.ensure(m)
	es.builder.Skin = 0.8
	var pairs neighbor.Pairs
	es.builder.BuildInto(&pairs, sys, m.Cuts)
	skinPairs := 0
	rows := make([][3]float64, pairs.Len())
	pairE := make([]float64, pairs.Len())
	m.EvaluateRowsInto(es, sys, &pairs, rows, pairE)
	for z := 0; z < pairs.NumReal; z++ {
		if pairs.Dist[z] < pairs.Cut[z] {
			continue
		}
		skinPairs++
		if rows[z] != [3]float64{} || pairE[z] != 0 {
			t.Fatalf("skin pair %d (r=%.3f, rc=%.3f) contributes: row %v, e %g",
				z, pairs.Dist[z], pairs.Cut[z], rows[z], pairE[z])
		}
	}
	if skinPairs == 0 {
		t.Fatal("expected skin-shell pairs in the inflated list")
	}
}
