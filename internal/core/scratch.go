package core

import (
	"math"

	"repro/internal/atoms"
	"repro/internal/neighbor"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/units"
)

// EvalScratch is the reusable buffer set of the steady-state force path:
// the neighbor builder and pair list, the compiled-plan caches of the serial
// context and of every chunk worker, the per-pair row buffers, and the
// Result the evaluation writes into. It is the caller-owned analogue of the
// stable allocation footprint the paper obtains from padded inputs
// (Sec. V-C): after a warm-up evaluation on a given shape,
// Model.EvaluateInto and Model.EvaluatePairsInto recycle everything here
// and steady-state heap traffic is zero.
//
// Ownership contract: an EvalScratch belongs to exactly one evaluation loop
// (one MD simulation, one benchmark, one calibration run). It must not be
// shared between goroutines, and the *Result returned by the evaluation
// methods points into the scratch — its fields are valid only until the
// next evaluation. Call Close when discarding a scratch whose worker pools
// have been started.
type EvalScratch struct {
	// Workers overrides the evaluation worker count for this scratch;
	// 0 defers to the model's Config.Workers. Domain-decomposition ranks
	// set it to their per-rank budget so that ranks x workers stays
	// bounded instead of every rank spinning up a full-size pool.
	Workers int
	// Profile, when non-nil, accumulates a per-kernel-class wall-time
	// breakdown of every compiled replay this scratch runs serially (the
	// allegro-bench -kernels instrumentation). Parallel chunk workers do not
	// profile — the breakdown is a serial-path diagnostic, and per-op timers
	// add overhead — so pair it with a single-worker configuration.
	Profile *plan.KernelProfile

	builder neighbor.Builder
	pairs   neighbor.Pairs
	res     Result
	pool    par.Pool
	workers int
	plans   planCache // the serial context's compiled plans

	// Per-pair outputs of EvaluatePairsInto, reduced by ReduceRows.
	rows  [][3]float64
	pairE []float64

	// Per-worker sub-evaluations of the chunked parallel path (each worker
	// replays its own plan over a center-contiguous pair range) and the
	// per-dispatch state the hoisted job closure reads (set before Run,
	// cleared after).
	workerScr  []*workerEval
	bounds     []int
	evalModel  *Model
	evalSys    *atoms.System
	rowsOut    [][3]float64
	pairEOut   []float64
	evalRowsFn func(int)
}

// workerEval is one worker's private evaluation state: Allegro's strict
// locality means the pairs centered on a set of atoms form an independent
// sub-graph, so each worker replays the full forward/backward pass over its
// center-contiguous chunk on its own compiled plan.
type workerEval struct {
	plans planCache
	sub   neighbor.Pairs // read-only view into the parent pair list
}

// NewEvalScratch returns an empty scratch; buffers grow on first use.
func NewEvalScratch() *EvalScratch { return &EvalScratch{} }

// Close releases the scratch's worker pools (neighbor build and chunked
// evaluation). The scratch remains usable; pools restart on demand.
func (es *EvalScratch) Close() {
	es.builder.Close()
	es.pool.Close()
}

// UsePlanRegistry binds the scratch (and every chunk worker it spawns) to a
// shared cross-tenant plan pool: dispatches lease programs from r instead of
// compiling privately, so one compilation serves every evaluation context
// bound to the same registry. Leased programs stay with the scratch —
// lock-free, allocation-free — until ReleasePlans hands them back; callers
// serving independent requests release between requests. Pass nil to detach
// (the scratch reverts to private compilation).
func (es *EvalScratch) UsePlanRegistry(r *PlanRegistry) {
	es.plans.releaseAll()
	es.plans.shared = r
	for _, ws := range es.workerScr {
		ws.plans.releaseAll()
		ws.plans.shared = r
	}
}

// ReleasePlans returns every plan leased from the registry bound by
// UsePlanRegistry to the shared pool (a no-op for an unbound scratch). The
// next evaluation re-leases on demand; with a recurring shape that is one
// mutex-guarded map lookup, not a recompilation.
func (es *EvalScratch) ReleasePlans() {
	es.plans.releaseAll()
	for _, ws := range es.workerScr {
		ws.plans.releaseAll()
	}
}

// ensure resolves the scratch's worker count against the model's.
func (es *EvalScratch) ensure(m *Model) {
	req := m.Cfg.Workers
	if es.Workers != 0 {
		req = es.Workers
	}
	es.workers = par.Workers(req, 0)
	es.builder.Workers = es.workers
}

// EvaluateInto computes energy and forces for sys, rebuilding the neighbor
// list into the scratch's reusable pair list. The returned Result points
// into the scratch (see the EvalScratch ownership contract).
func (m *Model) EvaluateInto(es *EvalScratch, sys *atoms.System) *Result {
	es.ensure(m)
	es.builder.BuildInto(&es.pairs, sys, m.Cuts)
	return m.EvaluatePairsInto(es, sys, &es.pairs)
}

// minEvalPairsPerWorker gates the chunked-graph parallel evaluation; a full
// sub-graph per worker only pays off with enough pairs to fill it.
const minEvalPairsPerWorker = 64

// EvaluatePairsInto computes energy and forces with a caller-provided pair
// list on the scratch's recycled buffers: EvaluateRowsInto harvests the
// per-pair rows and pair energies (chunked across workers), then ReduceRows
// folds them in pair order. Per-pair rows do not depend on the chunk layout
// and the reduction is serial, so results are bitwise identical for any
// worker count. The returned Result points into the scratch.
func (m *Model) EvaluatePairsInto(es *EvalScratch, sys *atoms.System, pairs *neighbor.Pairs) *Result {
	res := &es.res
	res.PairWork = pairs.Len()
	if n := sys.NumAtoms(); cap(res.Forces) < n {
		res.Forces = make([][3]float64, n)
	} else {
		res.Forces = res.Forces[:n]
	}
	if z := pairs.Len(); cap(es.rows) < z {
		es.rows = make([][3]float64, z)
		es.pairE = make([]float64, z)
	} else {
		es.rows, es.pairE = es.rows[:z], es.pairE[:z]
	}
	m.EvaluateRowsInto(es, sys, pairs, es.rows, es.pairE)
	res.Energy = ReduceRows(m, sys.Species, pairs, es.rows, es.pairE, res.Forces)
	return res
}

// ReduceRows is the one reduction from per-pair outputs to an evaluation's
// totals. Forces: rvec_z = r_j - r_i, so each real pair's row adds to its
// center and subtracts from its neighbor, in pair order. Energy: the pair
// energies summed in pair order, then the per-species shifts in atom order,
// then the final-stage precision rounding. Every engine funnels through it,
// which is what makes their answers the same bits.
//
// The domain runtime reduces forces itself — the same pair order, split per
// atom for its interior/frontier pipeline — and passes nil pairs, rows and
// forces to get only the energy ladder over its global pair-energy slots.
func ReduceRows(m *Model, species []units.Species, pairs *neighbor.Pairs, rows [][3]float64, pairE []float64, forces [][3]float64) float64 {
	if forces != nil {
		clear(forces)
		for z := 0; z < pairs.NumReal; z++ {
			i, j := pairs.I[z], pairs.J[z]
			row := rows[z]
			forces[i][0] += row[0]
			forces[i][1] += row[1]
			forces[i][2] += row[2]
			forces[j][0] -= row[0]
			forces[j][1] -= row[1]
			forces[j][2] -= row[2]
		}
		pairE = pairE[:pairs.NumReal]
	}
	energy := 0.0
	for _, pe := range pairE {
		energy += pe
	}
	for _, sp := range species {
		energy += m.EnergyShift[m.Idx.Index(sp)]
	}
	if m.Cfg.Precision.Final != tensor.F64 {
		energy = m.Cfg.Precision.Final.Round(energy)
	}
	return energy
}

// prepareChunkWorkers sizes the per-worker plan caches and carves the
// center-contiguous sub-views for the chunk boundaries in es.bounds.
func (es *EvalScratch) prepareChunkWorkers(pairs *neighbor.Pairs, nw int) {
	for len(es.workerScr) < nw {
		ws := &workerEval{}
		ws.plans.shared = es.plans.shared // inherit the scratch's registry binding
		es.workerScr = append(es.workerScr, ws)
	}
	for w := 0; w < nw; w++ {
		ws := es.workerScr[w]
		lo, hi := es.bounds[w], es.bounds[w+1]
		ws.sub = neighbor.Pairs{
			I: pairs.I[lo:hi], J: pairs.J[lo:hi], Vec: pairs.Vec[lo:hi],
			Dist: pairs.Dist[lo:hi], Cut: pairs.Cut[lo:hi],
			NAtoms: pairs.NAtoms,
		}
		// Real pairs occupy the list prefix; padding (if any) sits in the
		// final chunks. Clamp each view's real count accordingly.
		real := pairs.NumReal - lo
		if real < 0 {
			real = 0
		}
		if real > hi-lo {
			real = hi - lo
		}
		ws.sub.NumReal = real
	}
}

// computeBounds splits the pair list into up to nw chunks of roughly equal
// size, snapping each boundary forward to the next center-atom change so
// every center's pairs land in one chunk (required for the environment
// sums to be exact). Padding pairs all share center 0 at the tail, so the
// last chunk absorbs them.
func (es *EvalScratch) computeBounds(pairs *neighbor.Pairs, nw int) {
	total := pairs.Len()
	es.bounds = es.bounds[:0]
	es.bounds = append(es.bounds, 0)
	for w := 1; w < nw; w++ {
		pos := w * total / nw
		prev := es.bounds[len(es.bounds)-1]
		if pos <= prev {
			continue
		}
		for pos < total && pairs.I[pos] == pairs.I[pos-1] {
			pos++
		}
		if pos > prev && pos < total {
			es.bounds = append(es.bounds, pos)
		}
	}
	es.bounds = append(es.bounds, total)
}

// EvaluateRowsInto computes the raw per-pair outputs of one evaluation:
// rows[z] receives the force row dE/d rvec_z (to be added to the center atom
// and subtracted from the neighbor) and pairE[z] the sigma-weighted pair
// energy, both including the pair's ZBL share when the model enables it.
// With more than one worker the pair list is split at center-atom
// boundaries (Allegro's strict locality makes center-grouped pair chunks
// independent sub-graphs — the identity the paper's domain decomposition
// rests on) and each worker replays forward+backward over its chunk on a
// private compiled plan, writing its disjoint range of the buffers. Rows
// are what ReduceRows folds and what the domain runtime's ranks exchange;
// per-species energy shifts and final-precision rounding are atom- and
// total-level terms and are left to the reducer.
//
// rows and pairE must have pairs.Len() entries; both are fully overwritten.
func (m *Model) EvaluateRowsInto(es *EvalScratch, sys *atoms.System, pairs *neighbor.Pairs, rows [][3]float64, pairE []float64) {
	es.ensure(m)
	if len(rows) != pairs.Len() || len(pairE) != pairs.Len() {
		panic("core: EvaluateRowsInto buffer length mismatch")
	}
	nw := es.workers
	if maxW := pairs.NumReal / minEvalPairsPerWorker; nw > maxW {
		nw = maxW
	}
	if nw > 1 {
		es.computeBounds(pairs, nw)
		nw = len(es.bounds) - 1 // boundary snapping may merge chunks
	}
	if nw > 1 {
		es.prepareChunkWorkers(pairs, nw)
		es.evalModel, es.evalSys = m, sys
		es.rowsOut, es.pairEOut = rows, pairE
		if es.evalRowsFn == nil {
			es.evalRowsFn = es.runWorkerEvalRows
		}
		es.pool.Run(nw, es.evalRowsFn)
		es.evalModel, es.evalSys = nil, nil
		es.rowsOut, es.pairEOut = nil, nil
	} else {
		es.serialRows(m, sys, pairs, rows, pairE)
	}
	if m.Cfg.ZBL {
		addZBLRows(sys, pairs, rows, pairE)
	}
}

// serialRows replays one forward+backward over the pair list on the
// scratch's serial context and harvests the rows and sigma-weighted pair
// energies (no ZBL, no shifts — callers layer those).
func (es *EvalScratch) serialRows(m *Model, sys *atoms.System, pairs *neighbor.Pairs, rows [][3]float64, pairE []float64) {
	es.plans.profile = es.Profile
	pg := es.plans.run(m, sys, pairs)
	harvestRows(pg.ForceRows(), pg.PairEnergies(), rows, pairE, m.EnergyScale)
}

// runWorkerEvalRows replays one worker's sub-graph forward+backward and
// writes its pair range of the caller's row buffers (ranges are disjoint, so
// no merge phase is needed).
func (es *EvalScratch) runWorkerEvalRows(w int) {
	ws := es.workerScr[w]
	lo, hi := es.bounds[w], es.bounds[w+1]
	pg := ws.plans.run(es.evalModel, es.evalSys, &ws.sub)
	harvestRows(pg.ForceRows(), pg.PairEnergies(), es.rowsOut[lo:hi], es.pairEOut[lo:hi], es.evalModel.EnergyScale)
}

// harvestRows copies one sub-evaluation's pair-vector adjoints and
// sigma-weighted pair energies into its range of the row buffers.
func harvestRows(grad *tensor.Tensor, pe []float64, rows [][3]float64, pairE []float64, scale float64) {
	for z := range rows {
		row := grad.Row(z)
		rows[z] = [3]float64{row[0], row[1], row[2]}
		pairE[z] = scale * pe[z]
	}
}

// Evaluator binds a Model to an EvalScratch and a neighbor-list padding
// policy, turning the zero-allocation pipeline into an md.Potential: MD
// loops call EnergyForcesInto every step and the evaluation recycles all
// buffers. The pair list is padded to the running maximum of
// ceil(PadFactor * real pairs), so input shapes are constant from step to
// step once equilibrated — exactly the paper's 5% fake-pair padding trick
// (Sec. V-C, Fig. 5), which here keeps the compiled plan's shape frozen.
//
// An Evaluator (like its scratch) serves one simulation loop at a time; the
// underlying Model stays read-only and may be shared across Evaluators.
type Evaluator struct {
	Model   *Model
	Scratch *EvalScratch
	// PadFactor >= 1 is the shape-stabilizing pair padding (paper: 1.05).
	// Values <= 1 disable padding.
	PadFactor float64

	maxPairs int
}

// NewEvaluator returns an Evaluator with the paper's 5% padding.
func NewEvaluator(m *Model) *Evaluator {
	return &Evaluator{Model: m, Scratch: NewEvalScratch(), PadFactor: 1.05}
}

// evaluate rebuilds the padded pair list and runs the scratch evaluation.
func (e *Evaluator) evaluate(sys *atoms.System) *Result {
	es := e.Scratch
	es.ensure(e.Model)
	es.builder.BuildInto(&es.pairs, sys, e.Model.Cuts)
	if e.PadFactor > 1 {
		target := int(math.Ceil(e.PadFactor * float64(es.pairs.NumReal)))
		if target < e.maxPairs {
			target = e.maxPairs
		}
		e.maxPairs = target
		es.pairs.PadTo(target)
	}
	return e.Model.EvaluatePairsInto(es, sys, &es.pairs)
}

// EnergyForces implements md.Potential. The returned force slice is freshly
// allocated (callers may retain it); hot loops should use EnergyForcesInto.
func (e *Evaluator) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	r := e.evaluate(sys)
	out := make([][3]float64, len(r.Forces))
	copy(out, r.Forces)
	return r.Energy, out
}

// EnergyForcesInto implements md.InPlacePotential: forces must have
// sys.NumAtoms() entries and is overwritten.
func (e *Evaluator) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	r := e.evaluate(sys)
	copy(forces, r.Forces)
	return r.Energy
}

// PairWork reports the padded pair count of the last evaluation.
func (e *Evaluator) PairWork() int { return e.Scratch.res.PairWork }

// Close releases the evaluator's worker pools.
func (e *Evaluator) Close() { e.Scratch.Close() }
