package perfmodel

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/atoms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/md"
	"repro/internal/par"
)

// InstrumentedPotential is an in-place potential that reports the pair
// workload of its last evaluation — the seam that lets one measurement
// driver serve every force backend behind allegro.NewSimulation
// (core.Evaluator and domain.Runtime both implement it).
type InstrumentedPotential interface {
	md.InPlacePotential
	PairWork() int
}

// Measurement captures the achieved steady-state throughput and allocation
// rate of the parallel evaluation pipeline on this node. It replaces the
// frozen calibration constants with numbers measured on the hardware the
// reproduction actually runs on: the cluster-scale model is then anchored
// at a measured single-node operating point instead of the A100 constants
// (which remain the defaults for reproducing the paper's published curves).
type Measurement struct {
	Atoms   int // atoms in the measured system
	Pairs   int // ordered pairs per force call (including padding)
	Workers int // resolved worker-pool size
	Steps   int // timed force calls

	PairsPerSec float64 // achieved ordered pairs per second
	AtomsPerSec float64 // achieved atom evaluations per second
	TimePerAtom float64 // wall seconds per atom per force call
	AllocsPerOp float64 // heap allocations per force call (steady state)
	BytesPerOp  float64 // heap bytes per force call (steady state)
}

// String renders the measurement for reports.
func (m Measurement) String() string {
	return fmt.Sprintf("measured: %d atoms, %d pairs, %d workers: %.3g pairs/s, %.3g s/atom, %.0f allocs/op",
		m.Atoms, m.Pairs, m.Workers, m.PairsPerSec, m.TimePerAtom, m.AllocsPerOp)
}

// MeasureSingleNode runs `steps` steady-state force calls of the model on
// sys through a fresh core.Evaluator (parallel neighbor build, chunked plan
// replay, pair-order reduction) and reports achieved throughput and
// allocation rates. Two warm-up calls compile the plans and start the worker
// pools before timing starts, so the numbers reflect the steady state the
// paper's Sec. V-C padding is designed to reach.
func MeasureSingleNode(m *core.Model, sys *atoms.System, steps int) Measurement {
	ev := core.NewEvaluator(m)
	defer ev.Close()
	return MeasurePotential(ev, sys, steps, par.Workers(m.Cfg.Workers, 0))
}

// MeasurePotential runs `steps` timed steady-state force calls of any
// instrumented in-place backend (after two warm-up calls that size its
// buffers) and reports achieved throughput and allocation rates — the
// backend-generic driver behind MeasureSingleNode, MeasureRuntime, and
// allegro's Simulation.Measure. It does not advance the system: positions
// are untouched and the caller's simulation state is unaffected.
func MeasurePotential(pot InstrumentedPotential, sys *atoms.System, steps, workers int) Measurement {
	forces := make([][3]float64, sys.NumAtoms())
	pot.EnergyForcesInto(sys, forces)
	pot.EnergyForcesInto(sys, forces)
	return measureSteadyState(pot, sys, forces, steps, workers)
}

// measureSteadyState is the timed window shared by every measurement path;
// the backend must already be warm.
func measureSteadyState(pot InstrumentedPotential, sys *atoms.System, forces [][3]float64, steps, workers int) Measurement {
	if steps < 1 {
		steps = 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < steps; i++ {
		pot.EnergyForcesInto(sys, forces)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	n := sys.NumAtoms()
	pairs := pot.PairWork()
	meas := Measurement{
		Atoms:   n,
		Pairs:   pairs,
		Workers: workers,
		Steps:   steps,
	}
	if wall > 0 {
		meas.PairsPerSec = float64(pairs) * float64(steps) / wall
		meas.AtomsPerSec = float64(n) * float64(steps) / wall
		meas.TimePerAtom = wall / (float64(steps) * float64(n))
	}
	meas.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(steps)
	meas.BytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(steps)
	return meas
}

// DecomposedMeasurement extends Measurement with the rank-level numbers of
// the persistent domain runtime: achieved pairs/sec per rank, the per-step
// ghost-exchange volume, and the per-phase step breakdown of the overlap
// pipeline — the terms the cluster model's communication side is
// parameterized by.
type DecomposedMeasurement struct {
	Measurement
	Ranks            int
	PairsPerSecRank  float64 // achieved ordered pairs per second per rank
	ForwardBytesStep int     // ghost-position scatter volume per step
	ReverseBytesStep int     // ghost force-row return volume per step
	Rebuilds         int     // list/exchange rebuilds during the run

	// Phase breakdown of one steady-state step (nanoseconds, averaged over
	// the timed window): exposed forward-exchange wait, interior-block
	// evaluation, frontier-block evaluation, and force reduction.
	ExchangeNsStep int64
	InteriorNsStep int64
	FrontierNsStep int64
	ReduceNsStep   int64
	// OverlapFraction is the measured share of the forward ghost-exchange
	// wall hidden behind computation (0 bulk-synchronous, -> 1 fully
	// hidden). It feeds CalibrateMachineDecomposed, which discounts the
	// analytic cluster model's communication term accordingly.
	OverlapFraction float64
}

// String renders the decomposed measurement for reports.
func (m DecomposedMeasurement) String() string {
	return fmt.Sprintf("measured decomposed: %d ranks, %d atoms, %d pairs: %.3g pairs/s (%.3g per rank), %.0f allocs/op, ghosts %d B fwd + %d B rev per step, %d rebuilds/%d steps, phases xchg %d + int %d + front %d + red %d ns/step, overlap %.0f%%",
		m.Ranks, m.Atoms, m.Pairs, m.PairsPerSec, m.PairsPerSecRank, m.AllocsPerOp,
		m.ForwardBytesStep, m.ReverseBytesStep, m.Rebuilds, m.Steps,
		m.ExchangeNsStep, m.InteriorNsStep, m.FrontierNsStep, m.ReduceNsStep,
		100*m.OverlapFraction)
}

// MeasureDecomposed runs `steps` steady-state force calls through a fresh
// domain.Runtime on the given rank grid and reports achieved throughput,
// allocation rate, and ghost-exchange volume. Two warm-up calls build the
// Verlet lists and exchange plan and warm every rank's arena before timing
// starts. The embedded Measurement feeds CalibrateMachine exactly like the
// single-node path.
func MeasureDecomposed(m *core.Model, sys *atoms.System, opts domain.RuntimeOptions, steps int) (DecomposedMeasurement, error) {
	rt, err := domain.NewRuntime(m, sys, opts)
	if err != nil {
		return DecomposedMeasurement{}, err
	}
	defer rt.Close()
	return MeasureRuntime(rt, sys, steps), nil
}

// MeasureRuntime measures an existing (caller-owned) runtime in place: two
// warm-up calls build the Verlet lists and exchange plan, then the shared
// steady-state window runs. The runtime stays usable — allegro's
// Simulation.Measure calls this on the live MD backend.
func MeasureRuntime(rt *domain.Runtime, sys *atoms.System, steps int) DecomposedMeasurement {
	forces := make([][3]float64, sys.NumAtoms())
	rt.EnergyForcesInto(sys, forces)
	rt.EnergyForcesInto(sys, forces)
	pre := rt.Stats()

	m := measureSteadyState(rt, sys, forces, steps, rt.NumRanks()*rt.WorkersPerRank())
	st := rt.Stats()
	meas := DecomposedMeasurement{
		Measurement:      m,
		Ranks:            rt.NumRanks(),
		ForwardBytesStep: st.ForwardBytesPerStep,
		ReverseBytesStep: st.ReverseBytesPerStep,
		Rebuilds:         st.Rebuilds - pre.Rebuilds,
	}
	meas.PairsPerSecRank = meas.PairsPerSec / float64(rt.NumRanks())
	if n := int64(m.Steps); n > 0 {
		meas.ExchangeNsStep = (st.ExchangeWaitNs - pre.ExchangeWaitNs) / n
		meas.InteriorNsStep = (st.InteriorNs - pre.InteriorNs) / n
		meas.FrontierNsStep = (st.FrontierNs - pre.FrontierNs) / n
		meas.ReduceNsStep = (st.ReduceNs - pre.ReduceNs) / n
	}
	window := domain.RuntimeStats{
		ExchangeWaitNs: st.ExchangeWaitNs - pre.ExchangeWaitNs,
		CommWallNs:     st.CommWallNs - pre.CommWallNs,
	}
	meas.OverlapFraction = window.OverlapFraction()
	return meas
}

// CalibrateMachine anchors a cluster machine model at a measured operating
// point: the per-atom compute time becomes the measured single-node value
// instead of the frozen A100 constant. Communication and synchronization
// terms keep their configured values (they model the interconnect, which a
// single-node measurement cannot see).
func CalibrateMachine(mach cluster.Machine, meas Measurement) cluster.Machine {
	if meas.TimePerAtom > 0 {
		mach.TimePerAtom = meas.TimePerAtom
	}
	return mach
}

// CalibrateMachineDecomposed anchors the machine at a decomposed
// measurement: the per-atom compute time as in CalibrateMachine, plus the
// measured overlap fraction of the communication-hiding pipeline, which
// discounts the analytic ghost-exchange term to its exposed remainder in
// Machine.StepTime. A degenerate measurement (no compute anchor) changes
// nothing: its overlap fraction belongs to a step time it did not measure.
func CalibrateMachineDecomposed(mach cluster.Machine, meas DecomposedMeasurement) cluster.Machine {
	if meas.TimePerAtom <= 0 {
		return mach
	}
	mach = CalibrateMachine(mach, meas.Measurement)
	if meas.OverlapFraction > 0 {
		mach.Overlap = meas.OverlapFraction
	}
	return mach
}
