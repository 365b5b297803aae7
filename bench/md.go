package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	allegro "repro"
	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/md"
	"repro/internal/transport"
)

// Frozen integration settings. The random-weight model is far from the
// relaxed geometry's minimum and heats the box within a few steps at a
// production timestep, which rebuilds neighbor lists every 2-4 steps — a
// cadence no MD user sees. dt was tuned once, at seed state, so that
// protein-ranks rebuilds about once per 10-25 steps, and is fixed since.
const (
	mdTimestep    = 0.1 // fs
	mdTemperature = 300 // K
	mdSkin        = 0.5 // A
)

// Correctness thresholds: the final-state error of the F64/F32/TF32 model
// against the f64 reference model, frozen at ten times the seed-state value
// (README.md has the measured values) with a floor of 1 meV/A.
const (
	maxForceRMSEmeVA   = 1.0 // seed state: 0.026-0.031
	maxEnergyErrMeVAtm = 0.5 // seed state: 0.011-0.038
)

// countWindow is the number of timed operations the exact-count metrics
// (rebuilds, migrations) are taken over, so that they repeat exactly from
// run to run however many operations the time box admits.
const countWindow = 20

// stepper is what the timed loop needs of a simulation; *allegro.Simulation
// and *md.Simulation both are one.
type stepper interface {
	Step()
	Report() md.Report
	System() *atoms.System
	Forces() [][3]float64
	Velocities() [][3]float64
	SetState(step int, pos, vel [][3]float64) error
	Close() error
}

// mdInstance is one set-up workload: a simulation ready to step, and the
// handles the traced run reads counters from.
type mdInstance struct {
	sim   stepper
	model *core.Model
	seed  uint64
	err   func() error // backend failure latch (the remote fleet), or nil
	close func() error // closes sim and waits for every helper goroutine

	rt     *domain.Runtime       // protein-ranks
	rr     *domain.RemoteRuntime // water-wire
	wire   *tracedTransport      // water-wire, traced
	serial *serialPot            // protein-serial, traced
}

// mdSpec is what distinguishes the three MD workloads.
type mdSpec struct {
	name   string
	system func(seed uint64) *atoms.System
	// setups is how many times a run sets the workload up; setup_s is the
	// median, the last instance is the one that is timed.
	setups int
	// rssOps is the timed operation after which VmHWM is read.
	rssOps int
	// start builds the force backend and the simulation over it (which makes
	// the first force call). tr is nil in untraced runs.
	start func(sys *atoms.System, model *core.Model, seed uint64, tr *tracer) (*mdInstance, error)
	// layers fills the per-layer metrics only this workload can see.
	layers func(inst *mdInstance, win *mdWindow, spans []span, out map[string]float64) error
}

func engineOptions(seed uint64, thermostat bool) []allegro.Option {
	opts := []allegro.Option{
		allegro.WithTimestep(mdTimestep),
		allegro.WithTemperature(mdTemperature),
		allegro.WithSeed(seed),
	}
	if !thermostat {
		opts = append(opts, allegro.WithThermostat(nil)) // NVE from thermal velocities
	}
	return opts
}

func mdEngineOptions(seed uint64, thermostat bool) []md.SimOption {
	opts := []md.SimOption{md.WithTimestep(mdTimestep), md.WithTemperature(mdTemperature), md.WithSeed(seed)}
	if !thermostat {
		opts = append(opts, md.WithThermostat(nil))
	}
	return opts
}

// presizeShrink is the factor the serial workload's box and positions are
// scaled by for the very first force call: 0.3% smaller gives about 0.9%
// more pairs.
const presizeShrink = 0.997

// startPresized constructs the serial simulation on a slightly compressed
// copy of the system and then moves it to the real one. The serial evaluator
// pads its pair list to a running maximum and compiles a new 0.4 GB plan
// whenever the real pair count sets a record, which in the first steps of a
// trajectory happens 0 to 4 times depending on the seed, and in the long run
// a user sees, practically never. Sizing the shape once, 0.9% above the
// starting count, puts the timed window in that long-run state: one plan,
// one shape, for every seed.
func startPresized(sys *atoms.System, build func() (stepper, error)) (stepper, error) {
	target, cell := append([][3]float64(nil), sys.Pos...), sys.Cell
	for k := 0; k < 3; k++ {
		sys.Cell[k] *= presizeShrink
		for i := range sys.Pos {
			sys.Pos[i][k] *= presizeShrink
		}
	}
	sim, err := build()
	sys.Cell = cell
	if err != nil {
		return nil, err
	}
	if err := sim.SetState(0, target, sim.Velocities()); err != nil {
		sim.Close()
		return nil, err
	}
	return sim, nil
}

var proteinSerial = mdSpec{
	name:   "protein-serial",
	system: proteinSystem,
	setups: 3,
	rssOps: 25,
	start: func(sys *atoms.System, model *core.Model, seed uint64, tr *tracer) (*mdInstance, error) {
		inst := &mdInstance{model: model}
		sim, err := startPresized(sys, func() (stepper, error) {
			if tr == nil {
				return allegro.NewSimulation(sys, model, append(engineOptions(seed, true), allegro.WithWorkers(1))...)
			}
			inst.serial = newSerialPot(model, 1, tr)
			sim, err := md.NewSimulation(sys, inst.serial, mdEngineOptions(seed, true)...)
			if err != nil {
				inst.serial.Close()
			}
			return sim, err
		})
		if err != nil {
			return nil, err
		}
		inst.sim, inst.close = sim, sim.Close
		return inst, nil
	},
	layers: func(inst *mdInstance, win *mdWindow, spans []span, out map[string]float64) error {
		notEntered(out, "domain.", "transport.", "serve.")
		return nil
	},
}

var proteinRanks = mdSpec{
	name:   "protein-ranks",
	system: proteinSystem,
	setups: 3,
	rssOps: 38, // between the rebuilds at operations 31 and 45
	start: func(sys *atoms.System, model *core.Model, seed uint64, tr *tracer) (*mdInstance, error) {
		if tr == nil {
			sim, err := allegro.NewSimulation(sys, model, append(engineOptions(seed, true),
				allegro.WithGrid(2, 1, 1), allegro.WithOverlap(), allegro.WithSkin(mdSkin), allegro.WithWorkers(1))...)
			if err != nil {
				return nil, err
			}
			return &mdInstance{sim: sim, model: model, close: sim.Close}, nil
		}
		rt, err := domain.NewRuntime(model, sys, domain.RuntimeOptions{
			Grid: [3]int{2, 1, 1}, Skin: mdSkin, WorkersPerRank: 1, Overlap: true,
		})
		if err != nil {
			return nil, err
		}
		pot := &tracedPipelined{tracedPot: tracedPot{inner: rt, tr: tr, layer: "domain"}, pp: rt}
		pot.before, pot.after = runtimePhases(tr, rt)
		sim, err := md.NewSimulation(sys, pot, mdEngineOptions(seed, true)...)
		if err != nil {
			rt.Close()
			return nil, err
		}
		return &mdInstance{sim: sim, model: model, close: sim.Close, rt: rt}, nil
	},
	layers: rankLayers,
}

var waterWire = mdSpec{
	name:   "water-wire",
	system: waterSystem,
	setups: 5,
	rssOps: 68, // between the rebuilds at operations 63 and 73
	start:  startWire,
	layers: wireLayers,
}

// startWire assembles the remote fleet in one process the way cmd/allegro-md
// runDistributed and allegro-rankd assemble it across processes: one TCP
// transport per rank on loopback, a RankServer per grid rank, and the
// RemoteRuntime driving them from the last transport rank.
func startWire(sys *atoms.System, model *core.Model, seed uint64, tr *tracer) (*mdInstance, error) {
	const nr = 2
	group, err := loopbackTCP(nr + 1)
	if err != nil {
		return nil, err
	}
	var fleet transport.Transport = group
	inst := &mdInstance{model: model}
	if tr != nil {
		inst.wire = &tracedTransport{inner: group, tr: tr, driver: nr}
		fleet = inst.wire
		for r := 0; r < nr; r++ {
			tr.nameTrack(trackRank0+r, fmt.Sprintf("rank %d", r))
		}
	}
	served := make(chan error, nr)
	started := 0
	waitRanks := func() error {
		var first error
		for ; started > 0; started-- {
			if err := <-served; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for r := 0; r < nr; r++ {
		ep, err := fleet.Endpoint(r)
		if err != nil {
			fleet.Close() // unblocks rank servers still waiting for their config
			waitRanks()
			return nil, err
		}
		started++
		go func() {
			srv, err := domain.NewRankServer(ep, nil)
			if err != nil {
				served <- err
				return
			}
			defer srv.Close()
			served <- srv.Serve()
		}()
	}
	rr, err := domain.NewRemoteRuntime(model, sys, domain.RemoteOptions{
		Grid: [3]int{nr, 1, 1}, Skin: mdSkin, WorkersPerRank: 1, Transport: fleet,
	})
	if err != nil {
		fleet.Close()
		waitRanks()
		return nil, err
	}
	var pot md.InPlacePotential = rr
	if tr != nil {
		pot = &tracedPot{inner: rr, tr: tr, layer: "domain"}
	}
	sim, err := md.NewSimulation(sys, pot, mdEngineOptions(seed, false)...)
	if err != nil {
		rr.Close()
		waitRanks()
		return nil, err
	}
	inst.sim = sim
	inst.rr = rr
	inst.err = rr.Err
	inst.close = func() error {
		err := sim.Close() // RemoteRuntime.Close: shutdown broadcast, transport close
		return errors.Join(err, waitRanks())
	}
	return inst, nil
}

// mdWindow is the timed window of an MD run.
type mdWindow struct {
	atoms    int
	ms       []float64 // wall time per operation
	traced   []bool    // per operation: were spans recorded
	rebuilt  []bool    // per operation: did the backend rebuild its lists
	wall     time.Duration
	failed   int
	allocs   uint64 // heap allocations over the window
	frames   int64  // transport frames and bytes over the first countWindow operations (wire, traced run)
	bytes    int64
	before   domain.RuntimeStats
	after    domain.RuntimeStats
	atCount  domain.RuntimeStats // after countWindow operations
	firstErr error
	rssMB    float64 // VmHWM after rssOps operations (at the end if there were fewer)
	rssErr   error
}

func (w *mdWindow) ops() int { return len(w.ms) }

func (inst *mdInstance) stats() domain.RuntimeStats {
	switch {
	case inst.rt != nil:
		return inst.rt.Stats()
	case inst.rr != nil:
		return inst.rr.Stats()
	}
	return domain.RuntimeStats{}
}

// timedSteps steps the simulation until the time box is used up. With a
// tracer every second operation is recorded, so traced and untraced
// operations sample the same stretch of trajectory and their medians give
// the tracing overhead without a drift term.
func timedSteps(inst *mdInstance, seconds float64, rssOps int, tr *tracer) *mdWindow {
	win := &mdWindow{atoms: inst.sim.System().NumAtoms()}
	win.before = inst.stats()
	var frames0, bytes0 int64
	if inst.wire != nil {
		frames0, bytes0 = inst.wire.frames.Load(), inst.wire.bytes.Load()
	}
	box := time.Duration(seconds * float64(time.Second))
	allocs0 := mallocs()
	start := time.Now()
	for i := 0; time.Since(start) < box; i++ {
		rebuilds := inst.stats().Rebuilds
		traced := tr != nil && i%2 == 1
		var id int
		t0 := time.Now()
		if traced {
			tr.op.Store(int64(i))
			tr.on.Store(true)
			id = tr.begin(trackMain, "step", "md")
		}
		inst.sim.Step()
		if traced {
			tr.end(id)
			tr.on.Store(false)
		}
		win.ms = append(win.ms, float64(time.Since(t0))/1e6)
		win.traced = append(win.traced, traced)
		win.rebuilt = append(win.rebuilt, inst.stats().Rebuilds > rebuilds)
		if i+1 == countWindow {
			win.atCount = inst.stats()
			if inst.wire != nil {
				win.frames = inst.wire.frames.Load() - frames0
				win.bytes = inst.wire.bytes.Load() - bytes0
			}
		}
		if i+1 == rssOps {
			win.rssMB, win.rssErr = peakRSSMB()
		}
		var err error
		if e := inst.sim.Report().PotentialEnergy; math.IsNaN(e) || math.IsInf(e, 0) {
			err = fmt.Errorf("step %d: potential energy is %v", i, e)
		}
		if inst.err != nil && err == nil {
			err = inst.err()
		}
		if err != nil {
			win.failed++
			if win.firstErr == nil {
				win.firstErr = err
			}
			if inst.err != nil && inst.err() != nil {
				break // a latched fleet failure does not clear; stop counting it
			}
		}
	}
	win.wall = time.Since(start)
	win.allocs = mallocs() - allocs0
	win.after = inst.stats()
	if len(win.ms) < countWindow {
		win.atCount = win.after
	}
	if len(win.ms) < rssOps || rssOps == 0 {
		win.rssMB, win.rssErr = peakRSSMB()
	}
	return win
}

// setUp builds model, system and backend, and runs the warm-up step.
func (s *mdSpec) setUp(seed uint64, tr *tracer) (*mdInstance, time.Duration, error) {
	t0 := time.Now()
	model, err := newModel(seed)
	if err != nil {
		return nil, 0, err
	}
	inst, err := s.start(s.system(seed), model, seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", s.name, err)
	}
	inst.seed = seed
	inst.sim.Step()
	return inst, time.Since(t0), nil
}

// checkFinalState compares the simulation's last forces and energy with the
// f64 reference model at the same positions.
func checkFinalState(inst *mdInstance) (rmse, eErr float64, err error) {
	ref, err := refModelOf(inst.model)
	if err != nil {
		return 0, 0, err
	}
	rmse, eErr = forceError(ref, inst.sim.System(), inst.sim.Forces(), inst.sim.Report().PotentialEnergy)
	if !(rmse <= maxForceRMSEmeVA) || !(eErr <= maxEnergyErrMeVAtm) {
		err = fmt.Errorf("final state off the f64 reference: force RMSE %.4g meV/A (max %g), energy %.4g meV/atom (max %g)",
			rmse, maxForceRMSEmeVA, eErr, maxEnergyErrMeVAtm)
	}
	return rmse, eErr, err
}

// run is the untraced run: the end-to-end metrics.
func (s *mdSpec) run(cfg runConfig) (*runResult, error) {
	if cfg.Trace {
		return s.runTraced(cfg)
	}
	var inst *mdInstance
	setups := make([]float64, 0, s.setups)
	for k := 0; k < s.setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
			releaseMemory()
		}
		var d time.Duration
		var err error
		if inst, d, err = s.setUp(cfg.Seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	win := timedSteps(inst, cfg.Seconds, s.rssOps, nil)
	res := &runResult{Workload: s.name, Seed: cfg.Seed, Attempted: win.ops(), Failed: win.failed, Info: map[string]any{}}
	if win.rssErr != nil {
		return nil, win.rssErr
	}
	rmse, eErr, checkErr := checkFinalState(inst)
	if err := inst.close(); err != nil {
		return nil, err
	}
	if checkErr != nil {
		res.Failed++
		res.Info["check_error"] = checkErr.Error()
	}
	if win.firstErr != nil {
		res.Info["first_error"] = win.firstErr.Error()
	}
	res.Correct = res.Failed == 0
	res.Info["atoms"] = win.atoms
	res.Info["force_rmse_mev_a"] = rmse
	res.Info["energy_err_mev_atom"] = eErr
	rate := float64(win.atoms) * float64(win.ops()) / win.wall.Seconds()
	return res, res.setEndToEnd(setups, win.ms, rate, win.rssMB)
}

// runTraced is the traced run: the per-layer metrics and the Chrome trace.
func (s *mdSpec) runTraced(cfg runConfig) (*runResult, error) {
	out := map[string]float64{}
	tr := newTracer()
	tr.nameTrack(trackMain, "md loop")
	inst, _, err := s.setUp(cfg.Seed, tr)
	if err != nil {
		return nil, err
	}
	if err := microAll(inst.model, out); err != nil {
		inst.close()
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	startPairs := exactPairs(inst.model, inst.sim.System())
	// Half the time box goes to the workload itself, the rest to the serial
	// probe and the other same-system reference runs below.
	win := timedSteps(inst, cfg.Seconds/2, 0, tr)
	res := &runResult{Workload: s.name, Seed: cfg.Seed, Attempted: win.ops(), Failed: win.failed, Info: map[string]any{}}
	if win.firstErr != nil {
		res.Info["first_error"] = win.firstErr.Error()
	}
	spans := tr.snapshot()

	// md: what a step costs beyond its force call.
	stepSelf := spanSelf(spans, "step")
	kicks := perOpSum(spans, "kick", func(int) bool { return true })
	out["md.step_self_ms"] = median(stepSelf) + mean(kicks)
	if steps := spanDurations(spans, "step"); len(steps) > 0 {
		out["md.step_self_frac"] = out["md.step_self_ms"] / median(steps)
	} else {
		out["md.step_self_frac"] = 0
	}

	var tracedMs, plainMs []float64
	for i, ms := range win.ms {
		if win.traced[i] {
			tracedMs = append(tracedMs, ms)
		} else {
			plainMs = append(plainMs, ms)
		}
	}
	if len(tracedMs) == 0 || len(plainMs) == 0 {
		return nil, fmt.Errorf("%s: %g s is too short for one traced and one untraced operation", s.name, cfg.Seconds/2)
	}
	out["trace.overhead_frac"] = median(tracedMs)/median(plainMs) - 1
	out["trace.residual_frac"] = residualFrac(spans, "step")

	// plan, neighbor, core: from the workload's own spans when it runs the
	// serial potential, from a serial probe on the final state otherwise.
	sys := inst.sim.System()
	if inst.serial != nil {
		serialLayers(spans, inst.serial, sys.NumAtoms(), float64(win.allocs)/float64(win.ops()), out)
	} else {
		releaseMemory()
		serialProbe(inst.model, sys, out)
	}
	// The count is taken where every run of a seed stands at the same point
	// of its trajectory: at the start of the window.
	out["neighbor.pairs"] = float64(startPairs)
	out["neighbor.pairs_per_atom"] = float64(startPairs) / float64(sys.NumAtoms())
	out["core.workers2_speedup"] = out["core.force_ms"] / twoWorkerForceMs(inst.model, sys)
	rmse, eErr, checkErr := checkFinalState(inst)
	if checkErr != nil {
		res.Failed++
		res.Info["check_error"] = checkErr.Error()
	}
	out["core.force_rmse_mev_a"] = rmse
	out["core.energy_err_mev_atom"] = eErr

	if err := s.layers(inst, win, spans, out); err != nil {
		return nil, err
	}
	closed = true
	if err := inst.close(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.Info["atoms"] = win.atoms
	var rebuildOps []int
	for i, r := range win.rebuilt {
		if r {
			rebuildOps = append(rebuildOps, i)
		}
	}
	res.Info["rebuild_ops"] = rebuildOps
	return res, res.setPerLayer(tr, cfg.OutDir, out)
}

// probeCalls is the number of force evaluations of a serial probe; the first
// one compiles the plan and is not in the medians.
const probeCalls = 5

// serialProbe evaluates sys a few times at fixed positions with the traced
// bench-side serial potential, and fills plan.*, neighbor.* and core.* from
// it: the serial cost of the very system a decomposed or served workload
// ran, in the same process.
func serialProbe(m *core.Model, sys *atoms.System, out map[string]float64) {
	tr := newTracer()
	p := newSerialPot(m, 1, tr)
	defer p.Close()
	forces := make([][3]float64, sys.NumAtoms())
	p.EnergyForcesInto(sys, forces) // untraced: compile, grow buffers
	tr.on.Store(true)
	allocs0 := mallocs()
	for i := 1; i < probeCalls; i++ {
		tr.op.Store(int64(i))
		p.EnergyForcesInto(sys, forces)
	}
	allocs := mallocs() - allocs0
	tr.on.Store(false)
	serialLayers(tr.snapshot(), p, sys.NumAtoms(), float64(allocs)/(probeCalls-1), out)
}

// serialLayers fills plan.*, neighbor.* and core.* (but for the two error
// metrics and workers2_speedup) from the spans of a serial potential.
func serialLayers(spans []span, p *serialPot, nAtoms int, allocsPerCall float64, out map[string]float64) {
	kp := p.profile
	per := func(d time.Duration) float64 {
		if kp.Replays == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(kp.Replays)
	}
	out["plan.linear_fwd_ms"] = per(kp.Linear)
	out["plan.linear_bwd_ms"] = per(kp.BwdLin)
	out["plan.tp_fwd_ms"] = per(kp.TP)
	out["plan.tp_bwd_ms"] = per(kp.BwdTP)
	out["plan.env_rows_ms"] = per(kp.EnvRows)
	out["plan.radial_ms"] = per(kp.Radial)
	out["plan.other_ms"] = per(kp.Other)
	out["plan.replay_ms"] = per(kp.Total())

	force := spanDurations(spans, "force")
	out["core.force_ms"] = median(force)
	out["plan.first_call_ms"] = p.firstCallMs - out["core.force_ms"]
	pairs := float64(p.pairsNow)
	out["core.us_per_pair"] = 1e3 * out["core.force_ms"] / pairs
	out["core.pairs_per_s"] = pairs / (out["core.force_ms"] / 1e3)
	out["core.assemble_ms"] = median(spanSelf(spans, "evaluate"))
	out["core.allocs_per_call"] = allocsPerCall

	out["neighbor.build_ms"] = median(spanDurations(spans, "neighbor"))
	out["neighbor.pairs"] = pairs
	out["neighbor.pairs_per_atom"] = pairs / float64(nAtoms)
	out["neighbor.build_ns_per_pair"] = 1e6 * out["neighbor.build_ms"] / pairs
}

// twoWorkerForceMs times the serial backend with two workers at fixed
// positions: the median of three calls after a warm-up one.
func twoWorkerForceMs(m *core.Model, sys *atoms.System) float64 {
	p := newSerialPot(m, 2, nil)
	defer p.Close()
	forces := make([][3]float64, sys.NumAtoms())
	p.EnergyForcesInto(sys, forces)
	ms := make([]float64, 3)
	for i := range ms {
		t0 := time.Now()
		p.EnergyForcesInto(sys, forces)
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms)
}

// windowLayers fills the domain metrics both decomposed engines expose:
// step classes, rebuild and migration counts, pair work.
func windowLayers(inst *mdInstance, win *mdWindow, out map[string]float64) {
	var steady, rebuild []float64
	var tAll, tRebuild float64
	for i, ms := range win.ms {
		tAll += ms
		if win.rebuilt[i] {
			rebuild = append(rebuild, ms)
			tRebuild += ms
		} else {
			steady = append(steady, ms)
		}
	}
	out["domain.steady_step_ms"] = median(steady)
	out["domain.rebuild_step_ms"] = median(rebuild)
	out["domain.rebuild_share"] = tRebuild / tAll
	out["domain.rebuilds"] = float64(win.atCount.Rebuilds - win.before.Rebuilds)
	out["domain.migrations"] = float64(win.atCount.Migrations - win.before.Migrations)
	out["domain.pair_work"] = float64(win.after.PairWork)
	out["domain.verlet_pair_overhead"] = float64(win.after.PairWork) / float64(exactPairs(inst.model, inst.sim.System()))
	out["domain.allocs_per_step"] = float64(win.allocs) / float64(win.ops())
}

// rankLayers fills domain.* for the in-process runtime from RuntimeStats
// deltas over the window, and the strong-scaling row from the serial probe.
func rankLayers(inst *mdInstance, win *mdWindow, spans []span, out map[string]float64) error {
	windowLayers(inst, win, out)
	st, d0 := win.after, win.before
	steps := float64(st.Steps - d0.Steps)
	perStep := func(ns int64) float64 { return float64(ns) / 1e6 / steps }
	out["domain.interior_frac"] = float64(st.InteriorPairs) / float64(st.PairWork)
	out["domain.ghosts_total"] = float64(st.TotalGhost)
	out["domain.fwd_bytes_per_step"] = float64(st.ForwardBytesPerStep)
	out["domain.rev_bytes_per_step"] = float64(st.ReverseBytesPerStep)
	out["domain.exchange_wait_ms_per_step"] = perStep(st.ExchangeWaitNs - d0.ExchangeWaitNs)
	out["domain.comm_wall_ms_per_step"] = perStep(st.CommWallNs - d0.CommWallNs)
	delta := domain.RuntimeStats{ExchangeWaitNs: st.ExchangeWaitNs - d0.ExchangeWaitNs, CommWallNs: st.CommWallNs - d0.CommWallNs}
	out["domain.overlap_frac"] = delta.OverlapFraction()
	out["domain.interior_ms_per_step"] = perStep(st.InteriorNs - d0.InteriorNs)
	out["domain.frontier_ms_per_step"] = perStep(st.FrontierNs - d0.FrontierNs)
	out["domain.reduce_ms_per_step"] = perStep(st.ReduceNs - d0.ReduceNs)

	// Steady force calls minus what their phase children cover.
	self := selfTimes(spans)
	var resid []float64
	for i, sp := range spans {
		if sp.Name == "force" && !win.rebuilt[sp.Op] {
			resid = append(resid, float64(self[i])/1e6)
		}
	}
	out["domain.dispatch_residual_ms"] = median(resid)

	// Strong scaling: this run's rate over twice the serial rate of the same
	// system, the serial rate being the probe's force time (a serial step's
	// integrator share is under one percent).
	ranksRate := float64(win.atoms) * float64(win.ops()) / win.wall.Seconds()
	serialRate := float64(win.atoms) / (out["core.force_ms"] / 1e3)
	out["domain.strong_eff_2"] = ranksRate / (2 * serialRate)
	notEntered(out, "transport.", "serve.")
	return nil
}

// wireLayers fills transport.* from the decorated endpoints and the part of
// domain.* the remote driver exposes; the ranks' own phase timers stay in
// the rank servers and are not visible from outside.
func wireLayers(inst *mdInstance, win *mdWindow, spans []span, out map[string]float64) error {
	windowLayers(inst, win, out)
	notEntered(out, "domain.", "serve.")

	if win.ops() < countWindow {
		return fmt.Errorf("water-wire: %d operations, the count window is %d", win.ops(), countWindow)
	}
	out["transport.frames_per_step"] = float64(win.frames) / countWindow
	out["transport.bytes_per_step"] = float64(win.bytes) / countWindow
	out["transport.bytes_per_atom_step"] = out["transport.bytes_per_step"] / float64(win.atoms)
	isDriver := func(track int) bool { return track == trackMain }
	isRank := func(track int) bool { return track != trackMain }
	out["transport.send_ms_per_step"] = mean(perOpSum(spans, "send", isDriver))
	out["transport.recv_wait_ms_per_step"] = mean(perOpSum(spans, "recv_wait", isDriver))
	out["transport.rank_recv_wait_ms_per_step"] = mean(perOpSum(spans, "recv_wait", isRank)) / float64(inst.rr.NumRanks())
	if err := microTransport(out); err != nil {
		return err
	}

	// The same system and trajectory start on the in-process runtime.
	localMs, err := localRuntimeStepMs(inst.model, inst.seed)
	if err != nil {
		return err
	}
	var plain []float64
	for i, ms := range win.ms {
		if !win.traced[i] {
			plain = append(plain, ms)
		}
	}
	out["transport.remote_over_local"] = median(plain) / localMs
	return nil
}

// localRuntimeStepMs runs the wire workload's system on the in-process
// domain.Runtime (same grid, skin and integrator, bulk-synchronous like the
// remote engine) and returns its median step time.
func localRuntimeStepMs(model *core.Model, seed uint64) (float64, error) {
	sys := waterSystem(seed)
	rt, err := domain.NewRuntime(model, sys, domain.RuntimeOptions{Grid: [3]int{2, 1, 1}, Skin: mdSkin, WorkersPerRank: 1})
	if err != nil {
		return 0, err
	}
	sim, err := md.NewSimulation(sys, rt, mdEngineOptions(seed, false)...)
	if err != nil {
		rt.Close()
		return 0, err
	}
	defer sim.Close()
	sim.Step()
	ms := make([]float64, 20)
	for i := range ms {
		t0 := time.Now()
		sim.Step()
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms), nil
}
