package allegro

import (
	"io"
	"math/rand/v2"
	"runtime"
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

// pairWorker is the in-place force backend behind a Simulation (a
// core.Evaluator or a domain.Runtime) together with the pair count of its
// last evaluation, which the steady-state benchmarks report as pairs/s.
type pairWorker interface {
	EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64
	PairWork() int
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
			pot := sim.Potential().(pairWorker)
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

// warmSteadyState calls step until a window of calls allocates nothing (at
// most 50 windows of 20). The steady-state paths allocate nothing themselves,
// but a blocked channel operation borrows a wait record from the Go
// runtime's pool, and the pool grows to the deepest concurrent blocking the
// rank goroutines have reached so far: on an 8-rank runtime that takes a few
// hundred steps, and a short timed loop would otherwise count the runtime's
// growth against the code under test. The GC first completes any cycle the
// set-up's allocation started, since a GC empties the shared part of that
// pool.
func warmSteadyState(step func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	for w := 0; w < 50; w++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < 20; i++ {
			step()
		}
		runtime.ReadMemStats(&m1)
		if m1.Mallocs == m0.Mallocs {
			return
		}
	}
}

// BenchmarkRuntimeStep measures the steady-state decomposed MD step: warm
// Verlet lists, no rebuild, the ghost exchange hidden behind each rank's
// interior block, and the canonical reduction across persistent rank
// servers, at exact precision on 1 and 8 ranks and at production precision
// on 8 (every rank replays its own per-shape plan cache). The step is
// driven through the pipelined ready path with a live callback, so batch
// delivery is inside the timed, allocation-guarded loop: 0 allocs/op in
// every case (the CI bench-smoke job enforces this), with achieved pairs/s
// and the measured overlap fraction reported. The runtime is wired through
// allegro.NewSimulation, the one simulation API.
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
			pot := sim.Potential().(interface {
				pairWorker
				md.PipelinedPotential
			})
			run := sim.System()
			forces := make([][3]float64, run.NumAtoms())
			delivered := 0
			ready := func(atoms []int32) { delivered += len(atoms) }
			warmSteadyState(func() { pot.EnergyForcesOverlap(run, forces, ready) })
			delivered = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pot.EnergyForcesOverlap(run, forces, ready)
			}
			b.StopTimer()
			if want := b.N * run.NumAtoms(); delivered != want {
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
			warmSteadyState(func() {
				sim.Step()
				reset()
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
				reset()
			}
			b.StopTimer() // the deferred Close is not part of a step
		})
	}
}
