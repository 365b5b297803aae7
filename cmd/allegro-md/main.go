// Command allegro-md runs molecular dynamics with a trained Allegro model
// through the one simulation API: the same allegro.NewSimulation call
// serves the serial zero-allocation evaluator and the spatially decomposed
// persistent rank runtime (the LAMMPS pattern) — the backend is picked by
// flags, not by a different code path.
//
// Usage:
//
//	allegro-md -model model.json -system water -steps 200 -temp 300
//	allegro-md -model model.json -system water -steps 200 -grid 2x1x1 -skin 0.5
//	allegro-md -model model.json -auto-grid -steps 200
//	allegro-md -model model.json -grid 2x2x1 -skin 0.5 -workers-per-rank 2
//	allegro-md -model model.json -traj traj.xyz -traj-every 10
//
// Multi-process mode: with -transport tcp the ranks run as allegro-rankd
// processes (one per subdomain, possibly on other hosts) and this process
// is the driver — it ships the model over the wire, drives the trajectory,
// re-runs it in-process as a reference, and asserts the two agree bit for
// bit (drift 0):
//
//	allegro-md -transport tcp -hosts r0:7301,r1:7302,driver:7300 -grid 2x1x1 -demo-model -steps 50
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"os/signal"
	"strings"
	"time"

	allegro "repro"
	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/domain"
	"repro/internal/groundtruth"
	"repro/internal/md"
	"repro/internal/perfmodel"
	"repro/internal/transport"
	"repro/internal/units"
)

func main() {
	var (
		modelPath = flag.String("model", "allegro-model.json", "trained model file")
		system    = flag.String("system", "water", "system: water | protein")
		steps     = flag.Int("steps", 100, "MD steps")
		dt        = flag.Float64("dt", 0.5, "timestep (fs)")
		temp      = flag.Float64("temp", 300, "thermostat temperature (K); 0 = NVE")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		grid      = flag.String("grid", "", "spatial decomposition grid, e.g. 2x1x1 (empty = serial)")
		autoGrid  = flag.Bool("auto-grid", false, "let the performance model pick the rank grid")
		skin      = flag.Float64("skin", 0.5, "Verlet skin (A) for the decomposed path; 0 rebuilds every step")
		wpr       = flag.Int("workers-per-rank", 1, "worker pool size inside each rank")
		traj      = flag.String("traj", "", "write an XYZ trajectory to this file")
		trajEvery = flag.Int("traj-every", 10, "steps between trajectory frames")
		transp    = flag.String("transport", "", "rank transport: empty = in-process goroutines, tcp = drive an allegro-rankd fleet")
		hosts     = flag.String("hosts", "", "tcp transport: comma-separated host:port per rank, driver (this process) last")
		demoModel = flag.Bool("demo-model", false, "use a small deterministic randomly-initialized model instead of -model (smoke tests)")
		benchOut  = flag.String("bench-out", "", "tcp transport: write a perfmodel.TransportReport (BENCH_transport.json) here")

		hbEvery     = flag.Duration("hb-interval", 0, "tcp transport: heartbeat probe period (0: transport default 250ms)")
		hbTimeout   = flag.Duration("hb-timeout", 0, "tcp transport: peer silence threshold before a death notice is synthesized (0: transport default 5s)")
		replEvery   = flag.Int("replicate-every", 10, "tcp transport: steps between fleet replication points (peer-redundant in-memory state; 0 disables elastic recovery)")
		rejoinWait  = flag.Duration("rejoin-timeout", 30*time.Second, "tcp transport: how long the driver waits for a replacement rankd after a rank death")
		recoveryOut = flag.String("recovery-out", "", "tcp transport: write a perfmodel.RecoveryReport (BENCH_recovery.json) here")
	)
	flag.Parse()
	model, err := loadModel(*modelPath, *demoModel, *seed)
	if err != nil {
		log.Fatal(err)
	}

	if *transp != "" {
		if *transp != "tcp" {
			log.Fatalf("unknown -transport %q (want tcp or empty)", *transp)
		}
		runDistributed(model, *system, *grid, *hosts, *steps, *dt, *temp, *seed, *skin, distOpts{
			benchOut: *benchOut, recoveryOut: *recoveryOut,
			hbEvery: *hbEvery, hbTimeout: *hbTimeout,
			replicateEvery: *replEvery, rejoinTimeout: *rejoinWait,
		})
		return
	}

	sys := buildSystem(*system, *seed)
	fmt.Println("system:", sys)

	report := *steps / 10
	if report < 1 {
		report = 1
	}
	opts := []allegro.Option{
		allegro.WithTimestep(*dt),
		allegro.WithSeed(*seed),
		allegro.WithSkin(*skin),
		allegro.WithObserver(report, func(r allegro.Report) { fmt.Println(r) }),
	}
	if *temp > 0 {
		opts = append(opts, allegro.WithTemperature(*temp))
	}
	if *grid != "" && *autoGrid {
		log.Fatal("-grid and -auto-grid are mutually exclusive")
	}
	switch {
	case *grid != "":
		var g [3]int
		if _, err := fmt.Sscanf(strings.ReplaceAll(*grid, "x", " "), "%d %d %d", &g[0], &g[1], &g[2]); err != nil {
			log.Fatalf("bad -grid %q: %v", *grid, err)
		}
		opts = append(opts, allegro.WithGrid(g[0], g[1], g[2]), allegro.WithWorkers(*wpr))
	case *autoGrid:
		opts = append(opts, allegro.WithAutoDecompose(), allegro.WithWorkers(*wpr))
	}
	if *traj != "" {
		f, err := os.Create(*traj)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		opts = append(opts, allegro.WithTrajectoryWriter(f, *trajEvery))
	}

	sim, err := allegro.NewSimulation(sys, model, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	fmt.Printf("backend: %s (%d ranks, halo %.1f A + skin %.1f A)\n",
		sim.Backend(), sim.NumRanks(), model.Cuts.Max(), *skin)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	if err := sim.Run(ctx, *steps); err != nil {
		log.Fatal(err)
	}
	el := time.Since(start).Seconds()
	fmt.Printf("done: %d steps in %.2f s (%.2f steps/s, %.3f ns/day at this dt)\n",
		*steps, el, float64(*steps)/el, float64(*steps)/el*(*dt)*1e-6*86400)
	if st, ok := sim.Stats(); ok {
		fmt.Printf("runtime: %d rebuilds over %d steps (%.1f steps/rebuild), %d migrations, ghost exchange %d B/step forward + %d B/step reverse\n",
			st.Rebuilds, st.Steps, float64(st.Steps)/float64(st.Rebuilds), st.Migrations,
			st.ForwardBytesPerStep, st.ReverseBytesPerStep)
		perStep := func(ns int64) float64 { return float64(ns) / float64(st.Steps) / 1e3 }
		fmt.Printf("phases: exchange %.1f us exposed, interior %.1f us (%d pairs), frontier %.1f us (%d pairs), reduce %.1f us per step; overlap fraction %.0f%%\n",
			perStep(st.ExchangeWaitNs), perStep(st.InteriorNs), st.InteriorPairs,
			perStep(st.FrontierNs), st.PairWork-st.InteriorPairs,
			perStep(st.ReduceNs), 100*st.OverlapFraction())
	}
}

// loadModel loads the trained model, or builds the small deterministic
// demo model (no file required; rankd fleets receive whatever the driver
// ships, so smoke tests run model-free end to end).
func loadModel(path string, demo bool, seed uint64) (*core.Model, error) {
	if !demo {
		return core.Load(path)
	}
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
	m, err := core.New(cfg, nil, rand.New(rand.NewPCG(seed, 0xA11E)))
	if err != nil {
		return nil, err
	}
	m.SetScaleShift(1.5, []float64{-0.5, -1.5})
	return m, nil
}

// buildSystem constructs the named benchmark system deterministically from
// the seed (two calls with the same arguments yield bit-identical systems —
// the distributed drift check depends on that).
func buildSystem(system string, seed uint64) *atoms.System {
	rng := rand.New(rand.NewPCG(seed, 7))
	oracle := groundtruth.New()
	var sys *atoms.System
	switch system {
	case "water":
		sys = data.WaterBox(rng, 3, 3, 3)
		data.Relax(oracle, sys, 40, 0.05)
	case "protein":
		prot := data.ProteinChain(4)
		sys = data.Solvate(prot, 4.0, rng)
		data.Relax(oracle, sys, 60, 0.05)
	default:
		log.Fatalf("unknown system %q", system)
	}
	return sys
}

// parseGrid parses a AxBxC decomposition spec.
func parseGrid(spec string) [3]int {
	var g [3]int
	if _, err := fmt.Sscanf(strings.ReplaceAll(spec, "x", " "), "%d %d %d", &g[0], &g[1], &g[2]); err != nil {
		log.Fatalf("bad -grid %q: %v", spec, err)
	}
	return g
}

// distOpts bundles the distributed driver's robustness knobs.
type distOpts struct {
	benchOut, recoveryOut string
	hbEvery, hbTimeout    time.Duration
	replicateEvery        int
	rejoinTimeout         time.Duration
}

// runDistributed is the -transport tcp driver path: drive an allegro-rankd
// fleet through the remote protocol, then replay the identical trajectory
// on the in-process channel transport and assert the two agree bit for bit.
// The driver is also the fleet supervisor: it records a replication point
// every -replicate-every steps, and when a rank dies it quiesces the
// survivors, waits for a replacement rankd, reships the configuration,
// rewinds to the last replication point when the death poisoned a step, and
// resumes — the final trajectory must still be bit-identical (drift 0).
// The wall-time ratio of the two runs and the transport's measured per-link
// statistics are written as a perfmodel.TransportReport for allegro-scale;
// recovery timings go into a perfmodel.RecoveryReport.
func runDistributed(model *core.Model, system, gridSpec, hostList string, steps int, dt, temp float64, seed uint64, skin float64, opt distOpts) {
	if gridSpec == "" {
		log.Fatal("-transport tcp requires -grid")
	}
	g := parseGrid(gridSpec)
	nr := g[0] * g[1] * g[2]
	list := strings.Split(hostList, ",")
	if hostList == "" || len(list) != nr+1 {
		log.Fatalf("-transport tcp with grid %s needs %d -hosts entries (%d ranks + driver last), got %d",
			gridSpec, nr+1, nr, len(list))
	}

	// In-process reference first: same system, same velocity seeds, chan
	// transport — the bits the wire run must reproduce.
	refSys := buildSystem(system, seed)
	rt, err := domain.NewRuntime(model, refSys, domain.RuntimeOptions{Grid: g, Skin: skin})
	if err != nil {
		log.Fatal(err)
	}
	refSim := md.NewDecomposedSim(refSys, rt, dt)
	refSim.InitVelocities(temp, rand.New(rand.NewPCG(seed, 33)))
	refStart := time.Now()
	refSim.Run(steps)
	chanNs := time.Since(refStart).Nanoseconds() / int64(steps)
	refSim.Close()
	fmt.Printf("reference (chan, in-process): %d steps, E = %.10f eV, %.2f ms/step\n",
		steps, refSim.Energy, float64(chanNs)/1e6)

	// The wire run: this process takes the last transport rank (the driver).
	tr, err := transport.NewTCP(transport.TCPConfig{
		Rank: nr, Hosts: list,
		HeartbeatEvery: opt.hbEvery, HeartbeatTimeout: opt.hbTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys := buildSystem(system, seed)
	fmt.Printf("driver: connecting to %d rank processes\n", nr)
	rr, err := domain.NewRemoteRuntime(model, sys, domain.RemoteOptions{Grid: g, Skin: skin, Transport: tr})
	if err != nil {
		log.Fatal(err)
	}
	sim := md.NewDecomposedSim(sys, rr, dt)
	sim.InitVelocities(temp, rand.New(rand.NewPCG(seed, 33)))

	report := steps / 10
	if report < 1 {
		report = 1
	}
	start := time.Now()
	if opt.replicateEvery > 0 {
		// A replication point at step 0: a death before the first cadence
		// point must still be recoverable.
		superviseCall(rr, sim, opt, func() error {
			return rr.Replicate(uint64(sim.StepNum), sys.Pos, sim.Vel)
		})
	}
	for sim.StepNum < steps {
		sim.Step()
		if rr.Err() != nil {
			superviseRecovery(rr, sim, opt)
			continue
		}
		if opt.replicateEvery > 0 && sim.StepNum%opt.replicateEvery == 0 {
			superviseCall(rr, sim, opt, func() error {
				return rr.Replicate(uint64(sim.StepNum), sys.Pos, sim.Vel)
			})
		}
		if sim.StepNum%report == 0 {
			fmt.Printf("driver: step %d/%d, E = %.6f eV\n", sim.StepNum, steps, sim.Energy)
		}
	}
	wireNs := time.Since(start).Nanoseconds() / int64(steps)
	links := rr.LinkStats()
	recoveries := rr.Recoveries()
	rr.Close()
	fmt.Printf("distributed (tcp, %d ranks): %d steps, E = %.10f eV, %.2f ms/step\n",
		nr, steps, sim.Energy, float64(wireNs)/1e6)

	// Bitwise drift: any nonzero count means the wire perturbed the physics.
	drift := 0
	for i := range refSys.Pos {
		if sys.Pos[i] != refSys.Pos[i] {
			drift++
		}
	}
	if sim.Energy != refSim.Energy {
		drift++
	}
	fmt.Printf("drift %d (positions and energy vs in-process reference, bitwise)\n", drift)
	fmt.Printf("recoveries: %d\n", len(recoveries))
	for _, rec := range recoveries {
		fmt.Printf("  rank %d (%s phase, generation %d): detect %.0f ms, quiesce %.0f ms, restore %.0f ms, resume %.0f ms, rewound %d steps\n",
			rec.DeadRank, rec.Phase, rec.Generation,
			float64(rec.DetectNs)/1e6, float64(rec.QuiesceNs)/1e6,
			float64(rec.RestoreNs)/1e6, float64(rec.ResumeNs)/1e6, rec.RewindSteps)
	}

	lat, bw := perfmodel.SummarizeLinks(links)
	fmt.Printf("links: %d measured, worst latency %.1f us, worst bandwidth %.2f MB/s\n",
		len(links), lat*1e6, bw/1e6)
	if opt.benchOut != "" {
		rep := perfmodel.TransportReport{
			Transport: "tcp", Ranks: nr, Steps: steps, Atoms: len(sys.Pos),
			ChanNsOp: chanNs, WireNsOp: wireNs, Links: links,
			LinkLatencySec: lat, LinkBandwidthBps: bw,
		}
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(opt.benchOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", opt.benchOut)
	}
	if opt.recoveryOut != "" {
		rep := perfmodel.RecoveryReport{
			Transport: "tcp", Ranks: nr, Atoms: len(sys.Pos), Steps: steps,
			ReplicateEvery: opt.replicateEvery,
			Drift:          float64(drift),
			Recoveries:     recoveries,
		}
		fo, err := os.Create(opt.recoveryOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(fo); err != nil {
			log.Fatal(err)
		}
		fo.Close()
		fmt.Println("wrote", opt.recoveryOut)
	}
	if drift != 0 {
		os.Exit(1)
	}
}

// superviseCall runs a fleet operation and, when it latches a failure,
// drives recovery and retries until the call succeeds. Used for replication
// points, which are retriable without touching integrator state.
func superviseCall(rr *domain.RemoteRuntime, sim *md.DecomposedSim, opt distOpts, call func() error) {
	for err := call(); err != nil; err = call() {
		if rr.Err() == nil {
			log.Fatalf("fleet call failed: %v", err)
		}
		superviseRecovery(rr, sim, opt)
	}
}

// superviseRecovery repairs the fleet after a latched rank failure: quiesce
// the survivors into a new generation, wait for a replacement rankd for the
// dead rank (a fresh process started with -generation > its predecessor's),
// reship the configuration, and — when the failure poisoned a step — rewind
// the integrator to the last replication point reassembled from the
// survivors' buddy shards. Unrecoverable situations are fatal.
func superviseRecovery(rr *domain.RemoteRuntime, sim *md.DecomposedSim, opt distOpts) {
	rf, ok := domain.AsRankFailure(rr.Err())
	if !ok {
		log.Fatalf("distributed run failed: %v", rr.Err())
	}
	if rf.Rank < 0 {
		log.Fatalf("distributed run failed in %s phase with no identified rank: %v", rf.Phase, rf.Err)
	}
	if opt.replicateEvery <= 0 {
		log.Fatalf("rank %d died and -replicate-every is 0 (recovery disabled): %v", rf.Rank, rf.Err)
	}
	fmt.Printf("driver: rank %d failed during %s phase (%v); recovering\n", rf.Rank, rf.Phase, rf.Err)
	if err := rr.Quiesce(rf.Rank); err != nil {
		log.Fatalf("quiesce after rank %d death: %v", rf.Rank, err)
	}
	fmt.Printf("driver: fleet quiesced into generation %d; waiting %v for a replacement rank %d\n",
		rr.Generation(), opt.rejoinTimeout, rf.Rank)
	if err := rr.Rejoin(rf.Rank, opt.rejoinTimeout); err != nil {
		log.Fatalf("rank %d did not rejoin: %v", rf.Rank, err)
	}
	fmt.Printf("driver: rank %d rejoined at generation %d\n", rf.Rank, rr.Generation())
	// Failures inside a force call (step or the rebuild it triggered) left
	// the integrator advanced on stale forces: rewind to the newest complete
	// replication point. Failures outside (replication itself) left the
	// integrator untouched.
	if rf.Phase == domain.PhaseStep || rf.Phase == domain.PhaseRebuild {
		sys := sim.Sys
		pos := make([][3]float64, len(sys.Pos))
		vel := make([][3]float64, len(sim.Vel))
		step, err := rr.RecoverState(rf.Rank, pos, vel)
		if err != nil {
			log.Fatalf("recovering replicated state: %v", err)
		}
		rewind := sim.StepNum - int(step)
		rr.ClearFailure(rewind)
		sim.SetState(int(step), pos, vel)
		fmt.Printf("driver: rewound %d steps to replication point %d; resuming\n", rewind, step)
	} else {
		rr.ClearFailure(0)
		fmt.Printf("driver: %s phase failure needs no rewind; resuming\n", rf.Phase)
	}
}
