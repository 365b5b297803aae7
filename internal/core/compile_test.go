package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/neighbor"
	"repro/internal/tensor"
	"repro/internal/units"
)

// mixedCluster builds nm three-atom molecules cycling through the given
// species, scattered on a jittered grid (>= 3 species exercises the one-hot
// and per-pair cutoff paths of the compiled plans).
func mixedCluster(rng *rand.Rand, species []units.Species, nm int) *atoms.System {
	sys := atoms.NewSystem(3 * nm)
	for w := 0; w < 3*nm; w++ {
		sys.Species[w] = species[w%len(species)]
	}
	for w := 0; w < nm; w++ {
		base := [3]float64{float64(w%3) * 3.1, float64((w/3)%3) * 3.1, float64(w/9) * 3.1}
		jit := func() float64 { return rng.NormFloat64() * 0.05 }
		sys.Pos[3*w] = [3]float64{base[0] + jit(), base[1] + jit(), base[2] + jit()}
		sys.Pos[3*w+1] = [3]float64{base[0] + 0.98 + jit(), base[1] + jit(), base[2] + jit()}
		sys.Pos[3*w+2] = [3]float64{base[0] - 0.30 + jit(), base[1] + 0.93 + jit(), base[2] + jit()}
	}
	return sys
}

// TestCompiledMatchesTape is the correctness bar of the compiled inference
// engine: across precision configs, species mixes, worker counts (serial,
// chunked, ragged chunk tails), and pair-list padding, compiled replay must
// reproduce the tape oracle's energies, forces, and row harvests exactly —
// the two perform operation-for-operation identical arithmetic and share
// one reduction (ReduceRows).
func TestCompiledMatchesTape(t *testing.T) {
	precisions := []struct {
		name string
		pc   PrecisionConfig
	}{
		{"exact", ExactPrecision()},
		{"production", ProductionPrecision()},
		// Off-diagonal combinations: narrow tiles over unrounded storage
		// (the fused-SiLU rounding chain differs per pair) and a narrowed
		// final stage (exercises the final-quantize op).
		{"tf32-over-f64", PrecisionConfig{Final: tensor.F64, Weights: tensor.F64, Compute: tensor.TF32}},
		{"f32-final", PrecisionConfig{Final: tensor.F32, Weights: tensor.F32, Compute: tensor.F32}},
	}
	speciesSets := [][]units.Species{
		{units.H, units.O},
		{units.H, units.C, units.O}, // >= 3 species
	}
	for _, pr := range precisions {
		for si, species := range speciesSets {
			cfg := DefaultConfig(species)
			cfg.LMax = 2
			cfg.NumChannels = 2
			cfg.LatentDim = 8
			cfg.TwoBodyHidden = []int{8}
			cfg.LatentHidden = []int{8}
			cfg.EdgeHidden = 4
			cfg.NumBessel = 4
			cfg.AvgNumNeighbors = 4
			cfg.Precision = pr.pc
			m, err := New(cfg, nil, rand.New(rand.NewPCG(uint64(si)+7, 1)))
			if err != nil {
				t.Fatal(err)
			}
			m.SetScaleShift(0.37, make([]float64, m.Idx.Len()))
			rng := rand.New(rand.NewPCG(uint64(si)+11, 5))
			sys := mixedCluster(rng, species, 9)

			for _, pad := range []int{0, 17} { // 17 forces a ragged padded tail
				pairs := neighbor.Build(sys, m.Cuts)
				if pad > 0 {
					pairs.PadTo(pairs.Len() + pad)
				}
				rt := m.EvaluatePairs(sys, pairs)
				rowsT, peT := m.tapeRows(sys, pairs)
				for _, workers := range []int{1, 3, 8} {
					name := fmt.Sprintf("%s/species=%d/pad=%d/workers=%d", pr.name, len(species), pad, workers)

					comp := NewEvalScratch()
					comp.Workers = workers

					rc := m.EvaluatePairsInto(comp, sys, pairs)
					if rc.Energy != rt.Energy {
						t.Fatalf("%s: energy tape %v vs compiled %v", name, rt.Energy, rc.Energy)
					}
					for i := range rt.Forces {
						if rc.Forces[i] != rt.Forces[i] {
							t.Fatalf("%s: force[%d] tape %v vs compiled %v", name, i, rt.Forces[i], rc.Forces[i])
						}
					}

					// Row-level entry point (the domain runtime's path).
					rowsC := make([][3]float64, pairs.Len())
					peC := make([]float64, pairs.Len())
					m.EvaluateRowsInto(comp, sys, pairs, rowsC, peC)
					for z := range rowsT {
						if rowsC[z] != rowsT[z] || peC[z] != peT[z] {
							t.Fatalf("%s: row %d tape (%v,%v) vs compiled (%v,%v)",
								name, z, rowsT[z], peT[z], rowsC[z], peC[z])
						}
					}
					comp.Close()
				}
			}
		}
	}
}

// TestKernKernelsMatchReference drives the same compiled plans through both
// kernel sets — the register-blocked/packed kern layer (what every caller
// runs) and the pre-kern reference kernels (planCache.refKernels, reachable
// only from here) — and requires exact agreement in energies, forces, and
// row harvests. Together with TestCompiledMatchesTape (tape vs kern) this
// pins all three implementations to the same bits.
func TestKernKernelsMatchReference(t *testing.T) {
	for _, pr := range []struct {
		name string
		pc   PrecisionConfig
	}{
		{"exact", ExactPrecision()},
		{"production", ProductionPrecision()},
		{"tf32-over-f64", PrecisionConfig{Final: tensor.F64, Weights: tensor.F64, Compute: tensor.TF32}},
	} {
		t.Run(pr.name, func(t *testing.T) {
			species := []units.Species{units.H, units.C, units.O}
			cfg := DefaultConfig(species)
			cfg.LMax = 2
			cfg.NumChannels = 2
			cfg.LatentDim = 8
			cfg.TwoBodyHidden = []int{8}
			cfg.LatentHidden = []int{8}
			cfg.EdgeHidden = 4
			cfg.NumBessel = 4
			cfg.AvgNumNeighbors = 4
			cfg.Precision = pr.pc
			m, err := New(cfg, nil, rand.New(rand.NewPCG(19, 1)))
			if err != nil {
				t.Fatal(err)
			}
			m.SetScaleShift(0.37, make([]float64, m.Idx.Len()))
			rng := rand.New(rand.NewPCG(23, 5))
			sys := mixedCluster(rng, species, 9)
			pairs := neighbor.Build(sys, m.Cuts)
			pairs.PadTo(pairs.Len() + 11) // ragged tiles and tail batches

			ref := NewEvalScratch()
			ref.Workers = 1 // chunk workers own their caches; the oracle runs serial
			ref.plans.refKernels = true
			kernScr := NewEvalScratch()
			defer ref.Close()
			defer kernScr.Close()

			rr := m.EvaluatePairsInto(ref, sys, pairs)
			eR := rr.Energy
			fR := append([][3]float64(nil), rr.Forces...)
			rk := m.EvaluatePairsInto(kernScr, sys, pairs)
			if rk.Energy != eR {
				t.Fatalf("energy ref %v vs kern %v", eR, rk.Energy)
			}
			for i := range fR {
				if rk.Forces[i] != fR[i] {
					t.Fatalf("force[%d] ref %v vs kern %v", i, fR[i], rk.Forces[i])
				}
			}

			rowsR := make([][3]float64, pairs.Len())
			peR := make([]float64, pairs.Len())
			rowsK := make([][3]float64, pairs.Len())
			peK := make([]float64, pairs.Len())
			m.EvaluateRowsInto(ref, sys, pairs, rowsR, peR)
			m.EvaluateRowsInto(kernScr, sys, pairs, rowsK, peK)
			for z := range rowsR {
				if rowsK[z] != rowsR[z] || peK[z] != peR[z] {
					t.Fatalf("row %d ref (%v,%v) vs kern (%v,%v)", z, rowsR[z], peR[z], rowsK[z], peK[z])
				}
			}
		})
	}
}

// TestPlanCacheReuse checks the plan-cache ownership contract: repeated
// evaluations of one shape replay the same Program pointer with zero heap
// allocations, and a parameter mutation (version bump) recompiles.
func TestPlanCacheReuse(t *testing.T) {
	for _, pr := range []struct {
		name string
		pc   PrecisionConfig
	}{
		{"exact", ExactPrecision()},
		{"production", ProductionPrecision()},
	} {
		t.Run(pr.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Precision = pr.pc
			m, err := New(cfg, nil, rand.New(rand.NewPCG(3, 1)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(4, 5))
			sys := waterCluster(rng, 6)
			pairs := neighbor.Build(sys, m.Cuts)

			es := NewEvalScratch()
			es.Workers = 1
			defer es.Close()
			m.EvaluatePairsInto(es, sys, pairs)

			key := planKey{pairs.Len(), pairs.NAtoms}
			pg1 := es.plans.plans[key]
			if pg1 == nil {
				t.Fatal("no plan cached after a compiled evaluation")
			}
			m.EvaluatePairsInto(es, sys, pairs)
			if es.plans.plans[key] != pg1 {
				t.Fatal("same shape recompiled on the second call")
			}
			if allocs := testing.AllocsPerRun(10, func() {
				m.EvaluatePairsInto(es, sys, pairs)
			}); allocs != 0 {
				t.Fatalf("steady-state compiled evaluation allocates %v/op, want 0", allocs)
			}

			// Parameter mutation must invalidate the cached fold.
			m.Params.Bump()
			m.EvaluatePairsInto(es, sys, pairs)
			if es.plans.plans[key] == pg1 {
				t.Fatal("plan survived a parameter version bump")
			}
		})
	}
}

// TestCompiledForcesArePhysical runs the tape's two physics checks
// (TestForcesMatchFiniteDifference, TestForceEquivariance) on the path
// callers actually run: through EvaluatePairsInto, forces are the negative
// energy gradient by central differences and rotate with the system.
func TestCompiledForcesArePhysical(t *testing.T) {
	m := newTinyModel(t, 9)
	es := NewEvalScratch()
	defer es.Close()
	eval := func(sys *atoms.System) (float64, [][3]float64) {
		r := m.EvaluateInto(es, sys)
		return r.Energy, append([][3]float64(nil), r.Forces...)
	}
	checkForcesMatchFiniteDifference(t, eval)
	checkForceEquivariance(t, eval, 1e-8)
}
