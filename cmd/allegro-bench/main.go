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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	allegro "repro"
	"repro/internal/atoms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/groundtruth"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		full     = flag.Bool("full", false, "run at full scale (slower, larger datasets)")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		list     = flag.Bool("list", false, "list available experiments and exit")
		measure  = flag.Bool("measure", false, "measure single-node throughput and exit")
		workers  = flag.Int("workers", 0, "worker pool size for -measure (0: all cores)")
		steps    = flag.Int("steps", 5, "timed force calls for -measure")
		kernels  = flag.Bool("kernels", false, "print a per-kernel wall-time breakdown of the compiled replay (serial, one worker)")
		reuse    = flag.Bool("reuse", false, "sweep the temporal-reuse engine over eps on a thermostatted water trajectory and emit BENCH_reuse.json")
		reuseOut = flag.String("reuse-out", "BENCH_reuse.json", "output path of the -reuse sweep report")
	)
	flag.Parse()
	if *reuse {
		if err := runReuseSweep(*reuseOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "allegro-bench:", err)
			os.Exit(1)
		}
		return
	}
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

// runReuseSweep measures what displacement-gated temporal reuse actually
// buys on a moving system. Fixed-position measurement loops cannot see it
// (nothing moves, so after warm-up every center reuses and the speedup is
// fictitious); the honest experiment is trajectory A/B — the same
// thermostatted water trajectory, same velocity seed, same thermostat RNG
// stream, run once exactly and once per (eps, RESPA k) setting — timing the
// post-equilibration window and recording the final-state drift the
// approximation introduced. The sweep is the BENCH_reuse.json artifact; CI
// gates on the report's GatedSpeedup (best drift-bounded eps point).
func runReuseSweep(out string, seed uint64) error {
	const (
		equil = 30   // thermostatted steps before the timed window
		timed = 100  // timed MD steps per point
		dt    = 0.25 // fs: resolves the stiff H motion, halves per-step drift
		temp  = 300  // K
		skin  = 0.5  // A
	)
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	model, err := core.New(cfg, nil, rand.New(rand.NewPCG(seed, 0xBE9C)))
	if err != nil {
		return err
	}
	buildWater := func() *atoms.System {
		sys := data.WaterBox(rand.New(rand.NewPCG(seed, 2)), 3, 3, 3)
		data.Relax(groundtruth.New(), sys, 40, 0.05)
		return sys
	}

	type setting struct {
		eps float64
		k   int
	}
	settings := []setting{{0, 1}, {0.05, 1}, {0.1, 1}, {0.2, 1}, {0.1, 4}}

	rep := perfmodel.ReuseReport{
		System:            "water 3x3x3",
		EquilSteps:        equil,
		TimestepFs:        dt,
		TempK:             temp,
		RMSForceBoundEvA:  0.2,
		EnergyBoundEvAtom: 0.002,
	}
	probe := perfmodel.NewDriftProbe(model)
	defer probe.Close()
	for _, st := range settings {
		sys := buildWater()
		rep.Atoms = sys.NumAtoms()
		opts := []allegro.Option{
			allegro.WithWorkers(1),
			allegro.WithTimestep(dt),
			allegro.WithTemperature(temp),
			allegro.WithSeed(seed),
			allegro.WithSkin(skin),
		}
		if st.eps > 0 {
			opts = append(opts, allegro.WithReuse(st.eps))
		}
		if st.k > 1 {
			opts = append(opts, allegro.WithRESPA(st.k))
		}
		sim, err := allegro.NewSimulation(sys, model, opts...)
		if err != nil {
			return err
		}
		if err := sim.Run(context.Background(), equil); err != nil {
			sim.Close()
			return err
		}
		start := time.Now()
		if err := sim.Run(context.Background(), timed); err != nil {
			sim.Close()
			return err
		}
		wall := time.Since(start)
		p := perfmodel.ReusePoint{
			Eps:    st.eps,
			RespaK: st.k,
			Steps:  timed,
			StepNs: wall.Nanoseconds() / timed,
		}
		p.StepsPerSec = float64(timed) / wall.Seconds()
		if rs, ok := sim.ReuseStats(); ok {
			p.ReuseFraction = rs.ReuseFraction()
			p.FullEvals = rs.FullEvals
			if rs.Steps > 0 {
				p.ActivePerStep = float64(rs.ActiveCenters) / float64(rs.Steps)
			}
		}
		// Probe drift outside the timed window: after each short burst the
		// engine's Forces/PotentialEnergy describe the current positions,
		// so the exact re-evaluation at those same positions isolates the
		// approximation error from chaotic trajectory divergence.
		if st.eps > 0 || st.k > 1 {
			var worst perfmodel.DriftSample
			for j := 0; j < 10; j++ {
				if err := sim.Run(context.Background(), 2); err != nil {
					sim.Close()
					return err
				}
				worst.Max(probe.Measure(sys, sim.Forces(), sim.Report().PotentialEnergy))
			}
			p.MaxForceErrEvA = worst.MaxForceErrEvA
			p.RMSForceErrEvA = worst.RMSForceErrEvA
			p.EnergyErrEvAtom = worst.EnergyErrEvAtom
		}
		if len(rep.Points) > 0 {
			p.Speedup = float64(rep.Points[0].StepNs) / float64(p.StepNs)
		} else {
			p.Speedup = 1
		}
		sim.Close()
		rep.Points = append(rep.Points, p)
		fmt.Printf("eps %.2f k %d: %.2f steps/s (%.2fx), reuse %.0f%%, err rms %.3g / max %.3g eV/A, %.3g eV/atom\n",
			p.Eps, p.RespaK, p.StepsPerSec, p.Speedup, 100*p.ReuseFraction, p.RMSForceErrEvA, p.MaxForceErrEvA, p.EnergyErrEvAtom)
	}
	rep.Gate()
	fmt.Printf("gated speedup %.2fx at eps %.2f (bounds rms %.2f eV/A, %.4f eV/atom)\n",
		rep.GatedSpeedup, rep.GatedEps, rep.RMSForceBoundEvA, rep.EnergyBoundEvAtom)
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
