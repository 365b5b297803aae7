package allegro

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/md"
	"repro/internal/neighbor"
	"repro/internal/o3"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// One benchmark per table/figure of the paper's evaluation. Heavy training
// experiments run once per benchmark iteration at Quick scale; the scaling
// benchmarks exercise the cluster model and are fast.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.Print(io.Discard)
	}
}

// BenchmarkTableI regenerates the rMD17-like model-family comparison.
func BenchmarkTableI(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTableII regenerates the water/ice sample-efficiency comparison.
func BenchmarkTableII(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTableIII regenerates the tight-binding time-to-solution table.
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTableIV regenerates the mixed-precision ablation.
func BenchmarkTableIV(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFigure1 regenerates the system inventory.
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFigure3 regenerates the fused-vs-separated tensor product
// measurement.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates the protein-stability MD experiment.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates the allocator-padding experiment.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates the strong-scaling sweeps.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates the weak-scaling sweeps.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// --- kernel micro-benchmarks underlying the figures ---

// BenchmarkFusedTensorProduct measures the paper's central fused contraction
// at the production lmax=2 over a realistic pair batch.
func BenchmarkFusedTensorProduct(b *testing.B) {
	tp := o3.NewTensorProduct(o3.FullIrreps(2), o3.SphericalIrreps(2), o3.FullIrreps(2))
	rng := rand.New(rand.NewPCG(1, 2))
	z, u := 256, 4
	x := tensor.New(z, u, tp.In1.Width)
	y := tensor.New(z, u, tp.In2.Width)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	w := make([]float64, tp.NumPaths())
	for i := range w {
		w[i] = 1
	}
	tp.Fuse(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.ApplyFused(x, y, nil, tensor.F64)
	}
}

// BenchmarkFusedTensorProductInto measures the steady-state inner loop of
// the force evaluation — the fused contraction writing into a preallocated
// output: 0 allocs/op.
func BenchmarkFusedTensorProductInto(b *testing.B) {
	tp := o3.NewTensorProduct(o3.FullIrreps(2), o3.SphericalIrreps(2), o3.FullIrreps(2))
	rng := rand.New(rand.NewPCG(1, 2))
	z, u := 256, 4
	x := tensor.New(z, u, tp.In1.Width)
	y := tensor.New(z, u, tp.In2.Width)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	w := make([]float64, tp.NumPaths())
	for i := range w {
		w[i] = 1
	}
	tp.Fuse(w)
	out := tensor.New(z, u, tp.Out.Width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		tp.ApplyFusedInto(out, x, y, nil, tensor.F64, nil)
	}
}

// BenchmarkSeparatedTensorProduct measures the per-path reference kernel
// (the Fig. 3 comparison baseline).
func BenchmarkSeparatedTensorProduct(b *testing.B) {
	tp := o3.NewTensorProduct(o3.FullIrreps(2), o3.SphericalIrreps(2), o3.FullIrreps(2))
	rng := rand.New(rand.NewPCG(1, 2))
	z, u := 256, 4
	x := tensor.New(z, u, tp.In1.Width)
	y := tensor.New(z, u, tp.In2.Width)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	w := make([]float64, tp.NumPaths())
	for i := range w {
		w[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.ApplySeparated(x, y, w, tensor.F64)
	}
}

// BenchmarkNeighborBuild measures cell-list neighbor construction on the
// 192-atom water cell with the paper's per-species cutoffs.
func BenchmarkNeighborBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	sys := data.WaterBox(rng, 4, 4, 4)
	cuts := neighbor.PaperBioCutoffs(atoms.NewSpeciesIndex([]Species{H, O}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neighbor.Build(sys, cuts)
	}
}

// BenchmarkNeighborBuildSteadyState measures the reusable Builder (the MD
// steady-state path): 0 allocs/op after warm-up at any worker count, with
// achieved pairs/s reported — the number the CI benchmark-smoke job guards.
func BenchmarkNeighborBuildSteadyState(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	sys := data.WaterBox(rng, 4, 4, 4)
	cuts := neighbor.PaperBioCutoffs(atoms.NewSpeciesIndex([]Species{H, O}))
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			bld := neighbor.Builder{Workers: workers}
			defer bld.Close()
			var p neighbor.Pairs
			bld.BuildInto(&p, sys, cuts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld.BuildInto(&p, sys, cuts)
			}
			b.ReportMetric(float64(p.NumReal)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkEvaluatorSteadyState measures the full zero-allocation force
// pipeline — parallel neighbor build, chunked compiled-plan replay, the
// pair-order reduction — at exact precision on one and on all workers, and
// at the paper's production operating point (F64 final, F32 weights, TF32
// compute, 64 tensor channels, so the fused tensor product and the
// narrow-precision scratch carry their production share). The backend is
// wired through allegro.NewSimulation (the one simulation API), so the guard
// covers exactly what production MD runs: every case must report 0
// allocs/op (the CI bench-smoke job enforces this).
func BenchmarkEvaluatorSteadyState(b *testing.B) {
	exact := DefaultConfig([]Species{H, O})
	production := DefaultConfig([]Species{H, O})
	production.Precision = core.ProductionPrecision()
	production.NumChannels = 64
	rng := rand.New(rand.NewPCG(7, 9))
	sys := data.WaterBox(rng, 2, 2, 2)
	for _, c := range []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"workers=1", exact, 1},
		{"workers=max", exact, 0},
		{"production", production, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			model, err := NewModel(c.cfg, 5)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := NewSimulation(sys.Clone(), model, WithWorkers(c.workers))
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			pot := sim.Potential().(perfmodel.InstrumentedPotential)
			run := sim.System()
			forces := make([][3]float64, run.NumAtoms())
			pot.EnergyForcesInto(run, forces)
			pot.EnergyForcesInto(run, forces)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pot.EnergyForcesInto(run, forces)
			}
			b.ReportMetric(float64(pot.PairWork())*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkReuseSteadyState measures the displacement-gated temporal-reuse
// engine in its replay steady state: positions alternate between two fixed
// configurations (a subset of atoms displaced well past eps, the rest
// still), so every timed call advances the bounds, gathers the active
// sub-chunk, replays it through the compiled plans, scatters it back, and
// reduces — the full partial-replay cycle, with a recurring active-set
// shape. mode=reuse must stay 0 allocs/op — the gather/pad/scatter
// machinery runs entirely from preallocated scratch — alongside the exact
// mode=off baseline evaluating the identical alternation (the CI
// bench-smoke job enforces both). The trajectory-level A/B speedup is
// measured separately by allegro-bench -reuse (BENCH_reuse.json).
func BenchmarkReuseSteadyState(b *testing.B) {
	cfg := DefaultConfig([]Species{H, O})
	cfg.Workers = 1
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	rng := rand.New(rand.NewPCG(7, 9))
	sys := data.WaterBox(rng, 3, 3, 3)
	for _, mode := range []string{"off", "reuse"} {
		b.Run("mode="+mode, func(b *testing.B) {
			model, err := NewModel(cfg, 5)
			if err != nil {
				b.Fatal(err)
			}
			opts := []Option{WithWorkers(1)}
			if mode == "reuse" {
				opts = append(opts, WithReuse(0.05))
			}
			sim, err := NewSimulation(sys.Clone(), model, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			pot := sim.Potential().(perfmodel.InstrumentedPotential)
			run := sim.System()
			posA := make([][3]float64, len(run.Pos))
			posB := make([][3]float64, len(run.Pos))
			copy(posA, run.Pos)
			copy(posB, run.Pos)
			for i := 0; i < len(posB); i += 32 {
				posB[i][0] += 0.06 // past eps, far under the skin trigger
			}
			forces := make([][3]float64, run.NumAtoms())
			step := func(i int) {
				if i%2 == 0 {
					copy(run.Pos, posB)
				} else {
					copy(run.Pos, posA)
				}
				pot.EnergyForcesInto(run, forces)
			}
			for i := 0; i < 4; i++ {
				step(i) // warm both configurations and the active-set shape
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			b.StopTimer()
			if mode == "reuse" {
				st, ok := sim.ReuseStats()
				if !ok {
					b.Fatal("reuse stats missing")
				}
				if st.ActivePairs >= st.PairSteps {
					b.Fatal("alternation never hit the cache: reuse path unexercised")
				}
				b.ReportMetric(st.ReuseFraction(), "reuse-frac")
			}
		})
	}
}

// BenchmarkEvaluateAllocating is the tape oracle (fresh neighbor list, heap
// tape, fresh force buffers every call) for comparison with
// BenchmarkEvaluatorSteadyState.
func BenchmarkEvaluateAllocating(b *testing.B) {
	model, err := NewModel(DefaultConfig([]Species{H, O}), 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 9))
	sys := data.WaterBox(rng, 2, 2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Evaluate(sys)
	}
}

// BenchmarkClusterStepTime measures the throughput model itself.
func BenchmarkClusterStepTime(b *testing.B) {
	m := cluster.Perlmutter()
	w := cluster.Biosystem("Capsid", 44_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepTime(w, 1280)
	}
}

// BenchmarkMixedPrecisionMatmul compares the emulated precisions on a GEMM.
func BenchmarkMixedPrecisionMatmul(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := tensor.New(64, 64)
	c := tensor.New(64, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		c.Data[i] = rng.NormFloat64()
	}
	for _, p := range []tensor.Precision{tensor.F64, tensor.F32, tensor.TF32} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMul(a, c, p)
			}
		})
	}
	_ = perfmodel.PeakTF32
}

// BenchmarkRuntimeStep measures the steady-state decomposed MD step: warm
// Verlet lists, no rebuild, incremental ghost exchange and canonical
// reduction across persistent rank workers, at exact precision on 1 and 8
// ranks and at production precision on 8 (every rank replays its own
// per-shape plan cache) — 0 allocs/op in every case (the CI bench-smoke job
// enforces this), with achieved pairs/s reported. The runtime is wired
// through allegro.NewSimulation, the one simulation API.
func BenchmarkRuntimeStep(b *testing.B) {
	exact := DefaultConfig([]Species{H, O})
	exact.Workers = 1
	exact.DefaultCutoff = 3.0
	exact.AvgNumNeighbors = 10
	production := exact
	production.Precision = core.ProductionPrecision()
	rng := rand.New(rand.NewPCG(7, 9))
	sys := data.WaterBox(rng, 3, 3, 3)
	for _, c := range []struct {
		name string
		cfg  Config
		grid [3]int
	}{
		{"ranks=1", exact, [3]int{1, 1, 1}},
		{"ranks=8", exact, [3]int{2, 2, 2}},
		{"ranks=8/production", production, [3]int{2, 2, 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			model, err := NewModel(c.cfg, 5)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := NewSimulation(sys.Clone(), model,
				WithGrid(c.grid[0], c.grid[1], c.grid[2]), WithSkin(0.5))
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			pot := sim.Potential().(perfmodel.InstrumentedPotential)
			run := sim.System()
			forces := make([][3]float64, run.NumAtoms())
			pot.EnergyForcesInto(run, forces)
			pot.EnergyForcesInto(run, forces)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pot.EnergyForcesInto(run, forces)
			}
			st, _ := sim.Stats()
			b.ReportMetric(float64(st.PairWork)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkRuntimeStepOverlap measures the same steady-state decomposed
// step with the communication-hiding pipeline enabled: asynchronous ghost
// exchange hidden behind the interior block, split force reduction, and
// the pipelined ready path (driven with a live callback, so batch delivery
// is inside the timed, allocation-guarded loop). Compare against
// BenchmarkRuntimeStep/ranks=8 (the bulk-synchronous schedule of the
// identical workload): overlapped step time must not exceed synchronous.
// The measured overlap fraction is reported as a metric, and the step must
// stay 0 allocs/op (the CI bench-smoke job enforces this).
func BenchmarkRuntimeStepOverlap(b *testing.B) {
	cfg := DefaultConfig([]Species{H, O})
	cfg.Workers = 1
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	rng := rand.New(rand.NewPCG(7, 9))
	sys := data.WaterBox(rng, 3, 3, 3)
	for _, grid := range [][3]int{{2, 2, 2}} {
		b.Run(fmt.Sprintf("ranks=%d", grid[0]*grid[1]*grid[2]), func(b *testing.B) {
			model, err := NewModel(cfg, 5)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := NewSimulation(sys.Clone(), model,
				WithGrid(grid[0], grid[1], grid[2]), WithSkin(0.5), WithOverlap())
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			pot := sim.Potential().(interface {
				perfmodel.InstrumentedPotential
				md.PipelinedPotential
			})
			run := sim.System()
			forces := make([][3]float64, run.NumAtoms())
			delivered := 0
			ready := func(atoms []int32) { delivered += len(atoms) }
			pot.EnergyForcesOverlap(run, forces, ready)
			pot.EnergyForcesOverlap(run, forces, ready)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pot.EnergyForcesOverlap(run, forces, ready)
			}
			b.StopTimer()
			if want := (b.N + 2) * run.NumAtoms(); delivered != want {
				b.Fatalf("ready delivered %d atom entries, want %d", delivered, want)
			}
			st, _ := sim.Stats()
			b.ReportMetric(float64(st.PairWork)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
			b.ReportMetric(st.OverlapFraction(), "overlap-frac")
		})
	}
}

// BenchmarkSimulationStep measures the one-API engine loop end to end —
// NewSimulation, observers detached, Step driving integration plus the
// backend force call — on both backends. Positions and velocities are
// restored after every step so the trajectory stays in the runtime's
// steady state (no Verlet rebuilds, stable pair counts): what remains is
// the engine's own overhead, which must be 0 allocs/op (CI-enforced).
func BenchmarkSimulationStep(b *testing.B) {
	cfg := DefaultConfig([]Species{H, O})
	cfg.Workers = 1
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	rng := rand.New(rand.NewPCG(7, 9))
	sys := data.WaterBox(rng, 3, 3, 3)
	for _, bk := range []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"ranks=8", []Option{WithGrid(2, 2, 2), WithSkin(0.5)}},
	} {
		b.Run(bk.name, func(b *testing.B) {
			model, err := NewModel(cfg, 5)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := NewSimulation(sys.Clone(), model, bk.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			run := sim.System()
			pos0 := make([][3]float64, len(run.Pos))
			copy(pos0, run.Pos)
			vel := sim.Velocities()
			reset := func() {
				copy(run.Pos, pos0)
				for j := range vel {
					vel[j] = [3]float64{}
				}
			}
			sim.Step()
			reset()
			sim.Step()
			reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
				reset()
			}
		})
	}
}
