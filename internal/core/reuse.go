package core

import (
	"math"

	"repro/internal/atoms"
	"repro/internal/neighbor"
)

// reuseBucket quantizes an active-pair count to a power-of-two padding
// target (minimum 64). The partial-replay path pads its compacted sub-list
// to the bucket so the compiled-plan cache sees a handful of recurring
// shapes instead of a fresh shape every step — the same shape-stability
// trick as the 5% fake-pair padding, applied to a count that genuinely
// changes step to step.
func reuseBucket(n int) int {
	b := 64
	for b < n {
		b <<= 1
	}
	return b
}

// skinExceeded reports whether any atom has moved at least skin/2 from its
// reference position (unwrapped comparison), the standard Verlet-list
// rebuild trigger: two atoms each under skin/2 cannot change a pair
// distance by skin, so every pair that could enter a cutoff is already in
// the skin-admitted list.
func skinExceeded(skin float64, pos, ref [][3]float64) bool {
	lim := skin / 2
	lim *= lim
	for i := range pos {
		dx := pos[i][0] - ref[i][0]
		dy := pos[i][1] - ref[i][1]
		dz := pos[i][2] - ref[i][2]
		if dx*dx+dy*dy+dz*dz >= lim {
			return true
		}
	}
	return false
}

// EvaluateActiveRowsInto is the partial-replay entry of the temporal-reuse
// engine: it recomputes the per-pair rows and sigma-weighted pair energies
// of ONLY the pairs whose center atom is marked active, leaving every other
// entry of rows/pairE untouched (the caller's cached contribution store).
// Active pairs are gathered — in list order, so each active center's pair
// group stays contiguous and complete — into a compacted sub-list, padded
// to a power-of-two bucket for plan-cache stability, replayed serially
// through the same compiled-plan machinery as a full evaluation,
// and scattered back into their canonical slots. Because Allegro's
// per-center sub-graphs are strictly local, the compact replay's rows are
// bitwise identical to the rows a full evaluation would produce for those
// pairs; combined with the caller's pair-order reduction (ReduceRows) this
// keeps the reuse path deterministic.
//
// Returns the number of real active pairs recomputed. rows and pairE must
// have pairs.Len() entries. The replay is deliberately serial: active-set
// compaction changes the sub-list length every step, and chunked evaluation
// would multiply the set of plan shapes past the cache's capacity.
func (m *Model) EvaluateActiveRowsInto(es *EvalScratch, sys *atoms.System, pairs *neighbor.Pairs, active []bool, rows [][3]float64, pairE []float64) int {
	es.ensure(m)
	if len(rows) != pairs.Len() || len(pairE) != pairs.Len() {
		panic("core: EvaluateActiveRowsInto buffer length mismatch")
	}
	ap := &es.actPairs
	ap.I = ap.I[:0]
	ap.J = ap.J[:0]
	ap.Vec = ap.Vec[:0]
	ap.Dist = ap.Dist[:0]
	ap.Cut = ap.Cut[:0]
	ap.NAtoms = pairs.NAtoms
	es.actSlot = es.actSlot[:0]
	for z := 0; z < pairs.NumReal; z++ {
		if !active[pairs.I[z]] {
			continue
		}
		ap.I = append(ap.I, pairs.I[z])
		ap.J = append(ap.J, pairs.J[z])
		ap.Vec = append(ap.Vec, pairs.Vec[z])
		ap.Dist = append(ap.Dist, pairs.Dist[z])
		ap.Cut = append(ap.Cut, pairs.Cut[z])
		es.actSlot = append(es.actSlot, int32(z))
	}
	nact := len(ap.I)
	ap.NumReal = nact
	if nact == 0 {
		return 0
	}
	ap.PadTo(reuseBucket(nact))
	total := ap.Len()
	if cap(es.actRows) < total {
		es.actRows = make([][3]float64, total)
		es.actPairE = make([]float64, total)
	}
	es.actRows = es.actRows[:total]
	es.actPairE = es.actPairE[:total]

	es.serialRows(m, sys, ap, es.actRows, es.actPairE)
	if m.Cfg.ZBL {
		addZBLRows(sys, ap, es.actRows, es.actPairE)
	}
	for k := 0; k < nact; k++ {
		t := es.actSlot[k]
		rows[t] = es.actRows[k]
		pairE[t] = es.actPairE[k]
	}
	return nact
}

// ReuseStats counts the work the displacement gate admitted. All counters
// accumulate over the evaluator's lifetime; callers compute windowed rates
// from before/after snapshots.
type ReuseStats struct {
	Steps     int64 // force evaluations served
	FullEvals int64 // steps that ran a full rebuild + evaluation
	// Center and pair activity: Active*/(\*Steps) is the recomputed
	// fraction; its complement is the reuse fraction.
	ActiveCenters int64
	CenterSteps   int64
	ActivePairs   int64
	PairSteps     int64
}

// ReuseFraction returns the fraction of pair work served from cache.
func (s *ReuseStats) ReuseFraction() float64 {
	if s.PairSteps == 0 {
		return 0
	}
	return 1 - float64(s.ActivePairs)/float64(s.PairSteps)
}

// ReuseEvaluator is the displacement-gated incremental force engine: an
// md.InPlacePotential that keeps a Verlet-skin pair list, a cached
// per-pair contribution store (force rows + pair energies), and a
// per-center accumulated environment-displacement bound. Each step, centers
// whose bound stays at or under Eps reuse their cached rows; the rest are
// recomputed through Model.EvaluateActiveRowsInto and their bounds reset.
// The force and energy reduction always runs over the full canonical pair
// list in slot order, so results are deterministic regardless of which
// centers happened to be active.
//
// Soundness: every pair distance of a reused center has changed by at most
// its accumulated bound (see neighbor.AccumulateEnvBound), so per-pair
// geometry staleness is at most Eps angstroms — the knob trades a bounded,
// user-chosen geometry lag against skipped network evaluations. Eps = 0
// recomputes every center every step.
//
// Like Evaluator, a ReuseEvaluator serves one simulation loop at a time.
type ReuseEvaluator struct {
	Model   *Model
	Scratch *EvalScratch
	// Eps is the per-center environment-displacement tolerance in angstroms.
	Eps float64
	// Skin is the Verlet shell of the cached pair list; rebuilds trigger
	// when any atom moves skin/2 from the reference build. Must be > 0 (the
	// cached store is only valid while the pair list's topology holds).
	Skin float64
	// PadFactor >= 1 is the shape-stabilizing padding of full evaluations.
	PadFactor float64

	maxPairs int
	pairs    neighbor.Pairs
	refPos   [][3]float64 // positions at the last rebuild (skin trigger)
	prevPos  [][3]float64 // positions at the previous force call
	d        []float64    // per-atom step displacement magnitudes
	envB     []float64    // accumulated per-center environment bounds
	active   []bool
	rows     [][3]float64 // cached per-pair force rows (padded length)
	pairE    []float64    // cached sigma-weighted pair energies
	lastWork int
	started  bool
	stats    ReuseStats
}

// NewReuseEvaluator returns a reuse engine with the paper's 5% padding and
// the default 0.5 A Verlet skin.
func NewReuseEvaluator(m *Model, eps float64) *ReuseEvaluator {
	return &ReuseEvaluator{
		Model:     m,
		Scratch:   NewEvalScratch(),
		Eps:       eps,
		Skin:      0.5,
		PadFactor: 1.05,
	}
}

// Stats returns a snapshot of the cumulative reuse counters.
func (e *ReuseEvaluator) Stats() ReuseStats { return e.stats }

// sizeState sizes the per-atom state arrays; an atom-count change
// invalidates the cached store and forces a rebuild.
func (e *ReuseEvaluator) sizeState(n int) {
	if len(e.refPos) != n {
		e.refPos = make([][3]float64, n)
		e.prevPos = make([][3]float64, n)
		e.d = make([]float64, n)
		e.envB = make([]float64, n)
		e.active = make([]bool, n)
		e.started = false
	}
}

// EnergyForcesInto implements md.InPlacePotential.
func (e *ReuseEvaluator) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	es := e.Scratch
	es.ensure(e.Model)
	n := sys.NumAtoms()
	e.sizeState(n)
	e.stats.Steps++
	if !e.started || e.Skin <= 0 || skinExceeded(e.Skin, sys.Pos, e.refPos) {
		e.fullEvaluate(sys)
	} else {
		e.incremental(sys)
	}
	// The reduction always runs over the full cached store in pair order.
	return ReduceRows(e.Model, sys.Species, &e.pairs, e.rows, e.pairE, forces)
}

// fullEvaluate rebuilds the skin pair list, pads it to the running-maximum
// shape, refreshes the entire contribution store, and resets every bound.
func (e *ReuseEvaluator) fullEvaluate(sys *atoms.System) {
	es := e.Scratch
	es.builder.Skin = e.Skin
	es.builder.BuildInto(&e.pairs, sys, e.Model.Cuts)
	target := e.pairs.Len()
	if e.PadFactor > 1 {
		target = int(math.Ceil(e.PadFactor * float64(e.pairs.NumReal)))
	}
	if target < e.maxPairs {
		target = e.maxPairs
	}
	e.maxPairs = target
	e.pairs.PadTo(target)
	total := e.pairs.Len()
	if cap(e.rows) < total {
		e.rows = make([][3]float64, total)
		e.pairE = make([]float64, total)
	}
	e.rows = e.rows[:total]
	e.pairE = e.pairE[:total]
	e.Model.EvaluateRowsInto(es, sys, &e.pairs, e.rows, e.pairE)
	copy(e.refPos, sys.Pos)
	copy(e.prevPos, sys.Pos)
	for i := range e.envB {
		e.envB[i] = 0
	}
	e.started = true
	e.lastWork = total
	n := int64(sys.NumAtoms())
	e.stats.FullEvals++
	e.stats.ActiveCenters += n
	e.stats.CenterSteps += n
	e.stats.ActivePairs += int64(e.pairs.NumReal)
	e.stats.PairSteps += int64(e.pairs.NumReal)
}

// incremental advances the displacement bounds one step, refreshes the
// geometry of pairs centered on over-threshold atoms, and replays just
// those centers into the cached store.
func (e *ReuseEvaluator) incremental(sys *atoms.System) {
	neighbor.StepDisplacements(sys.Pos, e.prevPos, e.d)
	e.pairs.AccumulateEnvBound(e.d, e.envB)
	nact := 0
	for i, b := range e.envB {
		a := b > e.Eps
		e.active[i] = a
		if a {
			nact++
		}
	}
	copy(e.prevPos, sys.Pos)
	n := int64(sys.NumAtoms())
	e.stats.CenterSteps += n
	e.stats.PairSteps += int64(e.pairs.NumReal)
	if nact == 0 {
		e.stats.ActiveCenters += int64(nact)
		e.lastWork = 0
		return
	}
	npact := 0
	for z := 0; z < e.pairs.NumReal; z++ {
		if e.active[e.pairs.I[z]] {
			npact++
		}
	}
	// When the compacted sub-list would pad out to the full list's size, a
	// partial replay saves nothing over refreshing everything — and the
	// refresh is exact. Take the exact path: same pair list (still
	// skin-valid), current geometry, every bound reset.
	if reuseBucket(npact) >= e.pairs.Len() {
		e.refreshAll(sys)
		return
	}
	e.stats.ActiveCenters += int64(nact)
	for z := 0; z < e.pairs.NumReal; z++ {
		if !e.active[e.pairs.I[z]] {
			continue
		}
		v := sys.Displacement(e.pairs.I[z], e.pairs.J[z])
		e.pairs.Vec[z] = v
		e.pairs.Dist[z] = math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	}
	np := e.Model.EvaluateActiveRowsInto(e.Scratch, sys, &e.pairs, e.active, e.rows, e.pairE)
	e.stats.ActivePairs += int64(np)
	for i := range e.envB {
		if e.active[i] {
			e.envB[i] = 0
		}
	}
	e.lastWork = e.Scratch.actPairs.Len()
}

// refreshAll recomputes the whole contribution store at current positions
// on the existing (skin-valid) pair list — the incremental path's exact
// fallback when the active set grew too large for a partial replay to win.
func (e *ReuseEvaluator) refreshAll(sys *atoms.System) {
	for z := 0; z < e.pairs.NumReal; z++ {
		v := sys.Displacement(e.pairs.I[z], e.pairs.J[z])
		e.pairs.Vec[z] = v
		e.pairs.Dist[z] = math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	}
	e.Model.EvaluateRowsInto(e.Scratch, sys, &e.pairs, e.rows, e.pairE)
	for i := range e.envB {
		e.envB[i] = 0
	}
	n := int64(sys.NumAtoms())
	e.stats.ActiveCenters += n
	e.stats.ActivePairs += int64(e.pairs.NumReal)
	e.lastWork = e.pairs.Len()
}

// EnergyForces implements md.Potential (fresh slices; hot loops use
// EnergyForcesInto).
func (e *ReuseEvaluator) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, sys.NumAtoms())
	energy := e.EnergyForcesInto(sys, forces)
	return energy, forces
}

// PairWork reports the padded pair count the last call actually evaluated
// (0 when everything came from cache).
func (e *ReuseEvaluator) PairWork() int { return e.lastWork }

// Close releases the worker pools.
func (e *ReuseEvaluator) Close() { e.Scratch.Close() }

// ZBLPotential is the fast inner force of RESPA multi-timestepping: exactly
// the model's short-range ZBL component, evaluated on its own Verlet-skin
// pair list clamped to min(model cutoff, ZBL switch-off). The clamp keeps
// the inner list tiny (nothing beyond 1.4 A matters) while the recorded
// cutoffs reproduce the full engine's activation gate bit for bit, so the
// slow force (full minus inner) contains no short-range stiffness.
type ZBLPotential struct {
	cuts    *neighbor.CutoffTable
	skin    float64
	builder neighbor.Builder
	pairs   neighbor.Pairs
	refPos  [][3]float64
	started bool
}

// NewZBLPotential derives the inner potential from a model's cutoff table.
func NewZBLPotential(m *Model) *ZBLPotential {
	src := m.Cuts
	n := src.Index.Len()
	rc := make([][]float64, n)
	for i := range rc {
		rc[i] = make([]float64, n)
		for j := range rc[i] {
			v := src.Rc[i][j]
			if v > zblSwitchOff {
				v = zblSwitchOff
			}
			rc[i][j] = v
		}
	}
	return &ZBLPotential{
		cuts: &neighbor.CutoffTable{Index: src.Index, Rc: rc},
		skin: 0.4,
	}
}

// EnergyForcesInto implements md.InPlacePotential: forces is overwritten
// with the pure ZBL forces.
func (p *ZBLPotential) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	n := sys.NumAtoms()
	if len(p.refPos) != n {
		p.refPos = make([][3]float64, n)
		p.started = false
	}
	if !p.started || p.skin <= 0 || skinExceeded(p.skin, sys.Pos, p.refPos) {
		p.builder.Skin = p.skin
		p.builder.BuildInto(&p.pairs, sys, p.cuts)
		copy(p.refPos, sys.Pos)
		p.started = true
	} else {
		for z := 0; z < p.pairs.NumReal; z++ {
			v := sys.Displacement(p.pairs.I[z], p.pairs.J[z])
			p.pairs.Vec[z] = v
			p.pairs.Dist[z] = math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		}
	}
	for i := range forces {
		forces[i] = [3]float64{}
	}
	return addZBL(sys, &p.pairs, forces)
}

// EnergyForces implements md.Potential.
func (p *ZBLPotential) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, sys.NumAtoms())
	energy := p.EnergyForcesInto(sys, forces)
	return energy, forces
}

// Close releases the inner builder's workers.
func (p *ZBLPotential) Close() { p.builder.Close() }
