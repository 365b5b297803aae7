// Capsid: build a scaled-down virus-capsid assembly (the paper's 44M-atom
// HIV capsid workload), run a few MD steps on it with a trained potential
// through the domain-decomposed backend, whose ranks hide the ghost
// exchange behind their interior blocks — asserting the decomposition is exact (drift against
// the single-rank backend is exactly 0 A) — and project full-scale
// Perlmutter throughput with the cluster model.
package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	allegro "repro"
	"repro/internal/cluster"
	"repro/internal/data"
)

func main() {
	rng := rand.New(rand.NewPCG(11, 12))
	oracle := allegro.Oracle()

	// Scaled-down capsid: protein subunits on a shell, solvated.
	shell := data.CapsidShell(6, 2, 11)
	sys := data.Solvate(shell, 3.0, rng)
	data.Relax(oracle, sys, 60, 0.05)
	fmt.Printf("capsid assembly: %d subunits, %d atoms solvated, composition %v\n",
		6, sys.NumAtoms(), sys.Composition())

	// Train a quick potential on frames of this assembly.
	frames := data.MDSampledFrames(oracle, sys, 6, 8, 0.25, 320, rng)
	cfg := allegro.DefaultConfig([]allegro.Species{allegro.H, allegro.C, allegro.N, allegro.O})
	cfg.LMax = 1
	cfg.NumChannels = 2
	cfg.LatentDim = 16
	cfg.TwoBodyHidden = []int{16}
	cfg.LatentHidden = []int{16}
	cfg.EdgeHidden = 8
	cfg.AvgNumNeighbors = 12
	model, err := allegro.NewModel(cfg, 11)
	if err != nil {
		panic(err)
	}
	tc := allegro.DefaultTrainConfig()
	tc.Epochs = 6
	tc.BatchSize = 2
	allegro.Train(model, frames, tc)

	// Strong Langevin coupling: the demo potential sees minutes of training,
	// not the paper's 7 days, so the thermostat carries more of the load.
	// WithThermostat overrides the default friction; the engine RNG (seeded
	// by WithSeed) is wired into the thermostat automatically. The
	// production run uses the decomposed backend (grid picked by the
	// performance model), whose ranks hide the ghost exchange behind their
	// interior blocks; a single-rank twin with identical seeds proves the
	// decomposition exact: the position drift between the two must be
	// exactly 0 A (one per-center pair order and exact integer force sums
	// make trajectories bit-identical across rank grids and the serial
	// engine).
	mkSim := func(opts ...allegro.Option) *allegro.Simulation {
		base := []allegro.Option{
			allegro.WithTimestep(0.25),
			allegro.WithTemperature(300),
			allegro.WithThermostat(&allegro.Langevin{TempK: 300, Gamma: 0.5}),
			allegro.WithSeed(11),
		}
		s, err := allegro.NewSimulation(sys.Clone(), model, append(base, opts...)...)
		if err != nil {
			panic(err)
		}
		return s
	}
	sim := mkSim(allegro.WithAutoDecompose())
	if !sim.Decomposed() {
		// The performance model decomposes only when the core budget pays
		// for it; on a small machine force a minimal grid so the exchange
		// hiding (and its exactness) is demonstrated regardless.
		sim.Close()
		sim = mkSim(allegro.WithGrid(2, 1, 1))
	}
	defer sim.Close()
	single := mkSim(allegro.WithGrid(1, 1, 1))
	defer single.Close()
	fmt.Printf("backend: %s (%d ranks)\n", sim.Backend(), sim.NumRanks())
	if err := sim.Run(context.Background(), 20); err != nil {
		panic(err)
	}
	if err := single.Run(context.Background(), 20); err != nil {
		panic(err)
	}
	fmt.Println("after 20 NVT steps:", sim)

	maxDrift := 0.0
	for i, p := range sim.System().Pos {
		q := single.System().Pos[i]
		for k := 0; k < 3; k++ {
			if d := p[k] - q[k]; d > maxDrift {
				maxDrift = d
			} else if -d > maxDrift {
				maxDrift = -d
			}
		}
	}
	fmt.Printf("max position drift vs single-rank backend: %g A\n", maxDrift)
	if maxDrift != 0 {
		panic("decomposed trajectory diverged from the single-rank backend")
	}
	if st, ok := sim.Stats(); ok {
		fmt.Printf("exchange hiding: %d/%d interior pairs, overlap fraction %.0f%%\n",
			st.InteriorPairs, st.PairWork, 100*st.OverlapFraction())
	}

	// Full-scale projection: the 44M-atom capsid on Perlmutter.
	m := cluster.Perlmutter()
	w := cluster.Biosystem("Capsid", 44_000_000)
	fmt.Println("\nfull-scale projection (44M-atom capsid, paper: 3.9-8.7 steps/s on 512-1280 nodes):")
	for _, nodes := range []int{512, 768, 1024, 1280} {
		fmt.Printf("  %4d nodes: %5.2f steps/s\n", nodes, m.StepsPerSecond(w, nodes))
	}
}
