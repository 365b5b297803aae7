// Command allegro-bench regenerates the paper's tables and figures, and
// measures this node's achieved evaluation throughput.
//
// Usage:
//
//	allegro-bench -exp all            # run every experiment
//	allegro-bench -exp table2,fig6    # run a subset
//	allegro-bench -list               # list experiment IDs
//	allegro-bench -exp fig4 -full     # full (slower) scale
//	allegro-bench -measure            # measure single-node pairs/sec and
//	                                  # allocs/op of the parallel pipeline,
//	                                  # then print a cluster model
//	                                  # calibrated from the measurement
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	allegro "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		full    = flag.Bool("full", false, "run at full scale (slower, larger datasets)")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		list    = flag.Bool("list", false, "list available experiments and exit")
		measure = flag.Bool("measure", false, "measure single-node throughput and exit")
		workers = flag.Int("workers", 0, "worker pool size for -measure (0: all cores)")
		steps   = flag.Int("steps", 5, "timed force calls for -measure")
		kernels = flag.Bool("kernels", false, "print a per-kernel wall-time breakdown of the compiled replay (serial, one worker)")
	)
	flag.Parse()
	if *kernels {
		if err := runKernels(*steps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "allegro-bench:", err)
			os.Exit(1)
		}
		if !*measure {
			return
		}
	}
	if *list {
		for _, id := range experiments.All() {
			fmt.Println(id)
		}
		return
	}
	if *measure {
		if err := runMeasure(*workers, *steps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "allegro-bench:", err)
			os.Exit(1)
		}
		return
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	ids := experiments.All()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		r, err := experiments.Run(strings.TrimSpace(id), scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allegro-bench:", err)
			os.Exit(1)
		}
		r.Print(os.Stdout)
	}
}

// runKernels replays the compiled plans on one worker with per-op timing
// enabled and prints where each replay's wall time goes, kernel class by
// kernel class — the CPU analogue of the paper's per-kernel GPU profile. The
// per-op timers cost a few percent, so the breakdown is for attribution, not
// absolute throughput (use -measure for that).
func runKernels(steps int, seed uint64) error {
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	model, err := core.New(cfg, nil, rand.New(rand.NewPCG(seed, 0xBE9C)))
	if err != nil {
		return err
	}
	sys := data.WaterBox(rand.New(rand.NewPCG(seed, 2)), 3, 3, 3)
	var kp core.KernelProfile
	sim, err := allegro.NewSimulation(sys, model,
		allegro.WithWorkers(1), allegro.WithKernelProfile(&kp))
	if err != nil {
		return err
	}
	defer sim.Close()
	sim.Measure(steps) // warm-up happens inside; kp accumulates every replay
	total := kp.Total()
	perReplay := func(d time.Duration) time.Duration {
		return d / time.Duration(kp.Replays)
	}
	share := func(d time.Duration) float64 {
		return 100 * float64(d) / float64(total)
	}
	fmt.Printf("kernel breakdown (compiled replay, 1 worker, %d replays):\n", kp.Replays)
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"linear (fwd, fused tiles)", kp.Linear},
		{"tensor product (fwd)", kp.TP},
		{"linear (bwd)", kp.BwdLin},
		{"tensor product (bwd)", kp.BwdTP},
		{"env rows (scatter/gather/outer)", kp.EnvRows},
		{"radial basis (norm/cutoff/Bessel/Ylm)", kp.Radial},
		{"other (broadcast/copy/reduce)", kp.Other},
	} {
		fmt.Printf("  %-40s %12v/replay  %5.1f%%\n", row.name, perReplay(row.d), share(row.d))
	}
	fmt.Printf("  %-40s %12v/replay\n", "total", perReplay(total))
	return nil
}

// runMeasure times the force backend behind the one simulation API on a
// water box and prints the cluster throughput model re-anchored at the
// measured per-atom time (instead of the frozen A100 calibration
// constants). The same allegro.NewSimulation + Measure pair serves the
// decomposed backend in allegro-md -measure.
func runMeasure(workers, steps int, seed uint64) error {
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	model, err := core.New(cfg, nil, rand.New(rand.NewPCG(seed, 0xBE9C)))
	if err != nil {
		return err
	}
	sys := data.WaterBox(rand.New(rand.NewPCG(seed, 2)), 3, 3, 3)
	sim, err := allegro.NewSimulation(sys, model, allegro.WithWorkers(workers))
	if err != nil {
		return err
	}
	meas := sim.Measure(steps).Measurement
	sim.Close()
	fmt.Println(meas)
	fmt.Printf("  atoms/s            %12.4g\n", meas.AtomsPerSec)
	fmt.Printf("  bytes/op           %12.0f\n", meas.BytesPerOp)

	mach := perfmodel.CalibrateMachine(cluster.Perlmutter(), meas)
	fmt.Println("calibrated cluster model (measured compute, configured interconnect):")
	for _, w := range []cluster.Workload{
		cluster.Water("water-1M", 1_000_000),
		cluster.Biosystem("Capsid", 44_000_000),
	} {
		nodes := mach.MinNodes(w)
		fmt.Printf("  %-12s %9d atoms  >= %4d nodes  %8.3g steps/s\n",
			w.Name, w.Atoms, nodes, mach.StepsPerSecond(w, nodes))
	}
	return nil
}
