package domain

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/neighbor"
	"repro/internal/transport"
	"repro/internal/units"
)

// RuntimeOptions configures a persistent rank runtime.
type RuntimeOptions struct {
	// Grid is the number of subdomains per dimension.
	Grid [3]int
	// Skin is the Verlet skin added to every cutoff when rank-local
	// neighbor lists are built. Lists (and with them the ghost imports,
	// exchange plan and evaluation arenas) are reused until any atom has
	// moved Skin/2 since the last rebuild; skin-shell pairs contribute
	// exactly zero, so results are independent of the skin and of the
	// rebuild schedule. Zero rebuilds every step.
	Skin float64
	// Halo overrides the ghost-import distance (before the skin is added).
	// Zero selects the model's largest cutoff — exactly sufficient for a
	// strictly local model, the property the paper's scaling rests on.
	// Values below the cutoff deliberately under-import (the MPNN halo
	// ablation); values above it import more ghosts than needed.
	Halo float64
	// WorkersPerRank bounds each rank's internal worker pool (chunked-graph
	// evaluation and neighbor builds). Values <= 0 select 1: by default
	// parallelism comes from the ranks themselves.
	WorkersPerRank int
	// Overlap enables the communication-hiding step pipeline: the forward
	// ghost-position exchange is posted asynchronously and hidden behind
	// the interior-block evaluation, the interior force reduction runs
	// concurrently with the frontier-block evaluation, and the reverse
	// ghost-force reduction of frontier atoms overlaps the caller's
	// integration of interior atoms (md.PipelinedPotential). Trajectories
	// are bit-identical with Overlap on or off: the schedule changes, the
	// canonical slot arithmetic does not. Off runs the same phases
	// bulk-synchronously.
	Overlap bool
}

// RuntimeStats aggregates the runtime's behaviour over its lifetime.
type RuntimeStats struct {
	Steps      int // force evaluations served
	Rebuilds   int // neighbor/exchange rebuilds (incl. the first)
	Migrations int // ownership changes observed at rebuilds after the first
	PairWork   int // Verlet pairs evaluated per step, summed over ranks
	// InteriorPairs counts the pairs in the interior blocks at the last
	// rebuild: centers whose complete environment references no ghost, so
	// their evaluation can hide the forward exchange. PairWork -
	// InteriorPairs is the frontier workload that must wait for arrival.
	InteriorPairs int
	MaxOwned      int // largest per-rank owned-atom count at the last rebuild
	MaxGhosts     int // largest per-rank ghost count at the last rebuild
	TotalGhost    int // ghost imports summed over ranks at the last rebuild
	// ForwardBytesPerStep is the forward ghost-exchange volume: the ghost
	// positions every rank refreshes from its neighbors each step.
	// ReverseBytesPerStep is the reverse volume: force rows computed on
	// ghost neighbors that flow back to the owning ranks in the reduction.
	ForwardBytesPerStep int
	ReverseBytesPerStep int

	// Per-phase timers, cumulative nanoseconds over all steps.
	// ExchangeWaitNs is measured on the dispatching goroutine: the
	// *exposed* forward-exchange wait — the time the step actually stalled
	// for ghost positions after any overlapping computation finished —
	// while CommWallNs is the full post-to-arrival wall of the exchange;
	// their ratio is the overlap fraction. InteriorNs, FrontierNs, and
	// ReduceNs are the slowest rank's time spent *inside* each phase
	// (interior-block eval, frontier-block eval, both force reductions),
	// self-timed on the rank goroutines — so the numbers mean the same
	// thing with the overlap pipeline on or off and exclude dispatch and
	// caller-callback overhead.
	ExchangeWaitNs int64
	CommWallNs     int64
	InteriorNs     int64
	FrontierNs     int64
	ReduceNs       int64
}

// OverlapFraction reports how much of the forward ghost-exchange wall time
// was hidden behind computation: 1 - exposed/total, clamped to [0, 1]. A
// bulk-synchronous runtime exposes the whole exchange (fraction ~0); the
// overlap pipeline hides it behind the interior block (fraction near 1 when
// the interior workload dominates the exchange).
func (s RuntimeStats) OverlapFraction() float64 {
	if s.CommWallNs <= 0 {
		return 0
	}
	f := 1 - float64(s.ExchangeWaitNs)/float64(s.CommWallNs)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// rankCmd is one phase command sent to a rank's worker or comm goroutine.
type rankCmd uint8

const (
	// Worker-goroutine phases.
	//
	// cmdRebuild re-derives rank membership: owned atoms, ghost imports
	// within halo+skin, the rank-local Verlet list in canonical per-center
	// order partitioned into interior/frontier blocks, and the per-center
	// pair counts the slot assignment needs.
	cmdRebuild rankCmd = iota
	// cmdSlots assigns every local pair its global slot (canonical order:
	// ascending global center, then (global neighbor, image)), publishes
	// the slot's global endpoints for the adjacency build, and marks
	// interior slots.
	cmdSlots
	// cmdPlan derives the split reduction plan from the master's per-atom
	// classification: which owned atoms reduce after the interior block and
	// which must wait for the frontier rows.
	cmdPlan
	// cmdEvalInterior refreshes the interior-block pair vectors from owned
	// positions only (no ghost data), evaluates the block, and scatters
	// rows and pair energies into the global slot buffers.
	cmdEvalInterior
	// cmdEvalFrontier refreshes the frontier-block pair vectors — ghost
	// neighbors read from the staged arena the forward exchange filled —
	// evaluates the block, and scatters.
	cmdEvalFrontier
	// cmdEvalAll runs both blocks back to back in one dispatch — the
	// bulk-synchronous schedule, where the exchange has already completed
	// so nothing is gained by splitting the barriers.
	cmdEvalAll
	// cmdReduceFrontier accumulates the forces of owned atoms that receive
	// frontier rows, in canonical slot order.
	cmdReduceFrontier

	// Comm-goroutine phases.
	//
	// cmdPack is the forward ghost-position exchange: self-owned images are
	// staged directly, cross-rank ghost blocks are posted through the
	// transport as KindGhostPos frames and scattered into the current half
	// of the double-buffered arena by the receiving rank's exchange plan.
	cmdPack
	// cmdReduceInterior accumulates the forces of owned atoms whose every
	// contribution is an interior row; it runs on the comm goroutine so it
	// can overlap the worker's frontier evaluation.
	cmdReduceInterior
	// cmdPlanExchange (rebuild only) derives and swaps the per-link
	// exchange plans: each rank tells every peer which global atoms it
	// needs forwarded (receiver-driven ghost plan) and which pair slots it
	// will push force rows for (sender-driven row plan).
	cmdPlanExchange
	// cmdExchangeRows is the reverse exchange: frontier force rows whose
	// ghost neighbor is owned by another rank travel to the owner as
	// KindRows frames and settle into their canonical slots before the
	// frontier reduction reads them.
	cmdExchangeRows
)

// Runtime is the persistent domain-decomposed force engine: long-lived rank
// workers (goroutines over preallocated channels, standing in for MPI
// ranks) that each own a core.EvalScratch, a local neighbor.Builder with a
// Verlet skin, reusable ghost/exchange buffers, and a companion comm
// goroutine (the MPI progress thread stand-in) serving the asynchronous
// ghost exchange and the early half of the split force reduction. In steady
// state — no atom has moved skin/2 since the last rebuild — a Step
// refreshes pair vectors, evaluates rank-local rows and reduces forces
// without a single heap allocation; rebuilds (membership migration, ghost
// import, neighbor lists, exchange plan, interior/frontier partition)
// happen only when the displacement trigger fires.
//
// Each step runs the communication-hiding pipeline of the paper's scaling
// argument: the forward ghost-position exchange is posted first, the
// interior pair blocks (centers whose environments reference no ghost)
// evaluate while it is in flight, the frontier blocks evaluate on arrival,
// and the force reduction is split so interior atoms finish — and can be
// integrated by a pipelined caller — while the reverse ghost-force
// reduction of frontier atoms is still running. With Overlap false the same
// phases run bulk-synchronously; the arithmetic is identical either way.
//
// Determinism: every pair is assigned a canonical global slot — ascending
// global center atom, then (global neighbor, periodic image) — independent
// of the rank grid, and per-atom forces and the total energy are reduced in
// slot order. Combined with Allegro's strict locality (a center's pairs
// form an independent sub-graph wholly owned by one rank), trajectories are
// bit-identical across rank grids, worker counts, skin values, and overlap
// on/off.
//
// The ranks exchange frames over an in-process channel transport the
// runtime builds and owns. Goroutine ranks cannot die, so there is no
// failure path: rank failure and elastic recovery exist only on the
// multi-process fleet (RemoteRuntime + RankServer), which runs the same
// rank phases.
//
// A Runtime is bound to the *atoms.System it was constructed with and
// serves one simulation loop; it implements md.InPlacePotential and
// md.PipelinedPotential. Call Close to release the rank workers and the
// transport.
type Runtime struct {
	model *core.Model
	sys   *atoms.System
	opts  RuntimeOptions
	grid  [3]int
	sub   [3]float64
	halo  float64 // ghost-import distance before the skin is added
	skin  float64

	n      int
	pw     [][3]float64 // wrapped positions, refreshed every step
	refPos [][3]float64 // unwrapped positions at the last rebuild
	owner  []int32      // owning rank per atom, frozen between rebuilds

	ranks    []*rank
	cmds     []chan rankCmd // worker-goroutine channels
	comm     []chan rankCmd // comm-goroutine channels
	done     chan struct{}
	commDone chan struct{}
	wg       sync.WaitGroup

	// Global slot-indexed exchange state (rebuilt with the neighbor lists).
	nPairs    int
	pairCnt   []int32 // per-atom pair count (rebuild scratch)
	pairStart []int32 // slot prefix per atom, len n+1
	pairGI    []int32 // global center per slot
	pairGJ    []int32 // global neighbor per slot
	rows      [][3]float64
	pairE     []float64
	adj       []int32 // per-atom signed slot refs: slot<<1 | isNeighborSide
	adjPtr    []int32 // len n+1
	adjFill   []int32 // rebuild scratch

	// Interior/frontier classification (rebuilt with the slot layout).
	interiorSlot  []bool  // per-slot: row independent of ghost data
	atomInterior  []bool  // per-atom: every contributing slot is interior
	readyInterior []int32 // atoms deliverable after the interior reduction
	readyFrontier []int32 // atoms deliverable only after the frontier rows

	parity   int       // double-buffer half the current step's exchange fills
	postTime time.Time // when the current step's exchange was posted

	// Transport state: the in-process channel transport the comm goroutines
	// post through (nil in a RankServer's headless shell, whose rank owns a
	// process endpoint). stepTick/rebuildTick tag frames so receivers can
	// discard duplicates and stale deliveries; deadRank records peers whose
	// death a rank server's phases observed (in-process ranks cannot die).
	tr          transport.Transport
	stepTick    uint64
	rebuildTick uint64
	deadRank    []atomic.Bool

	forces  [][3]float64 // caller buffer, set for the duration of one step
	energy  float64
	started bool
	closed  bool
	stats   RuntimeStats
}

// rank is the persistent state of one subdomain worker.
type rank struct {
	rt     *Runtime
	id     int
	lo, hi [3]float64

	nOwned int
	gOf    []int32       // local index -> global atom (owned first, then ghosts)
	shift  [][3]float64  // local index -> periodic image offset (owned: zero)
	code   []uint8       // local index -> image code in [0,27) (owned: 13)
	local  *atoms.System // local species + build-time positions

	builder  neighbor.Builder
	pairs    neighbor.Pairs
	slotOf   []int32
	scratch  *core.EvalScratch
	rowsBuf  [][3]float64
	pairEBuf []float64

	// Interior/frontier partition of the canonical local pair list: pairs
	// [0, nInterior) form the interior block, the rest the frontier block.
	// The views alias rk.pairs and are refreshed at rebuilds.
	nInterior          int
	intView, frontView neighbor.Pairs

	// Double-buffered ghost-position arena: ghost[rt.parity] is the staging
	// buffer the current step's forward exchange fills (see the ownership
	// contract in the README); ghost local index t reads ghost[parity][t-nOwned].
	ghost [2][][3]float64

	// Split reduction plan: local owned indices whose forces are final
	// after the interior rows (redInterior) vs those needing frontier rows.
	redInterior, redFrontier []int32

	// Per-step phase self-timing (read by the master after barriers):
	// forward-exchange wall (post -> staged) and time spent inside each
	// compute phase on this rank's goroutines.
	packNs                     int64
	evalIntNs, evalFrontNs     int64
	reduceIntNs, reduceFrontNs int64

	// Canonical-sort scratch (rebuild only).
	perm                   []int
	tmpI, tmpJ             []int
	tmpVec                 [][3]float64
	tmpDist, tmpCut        []float64
	nGhosts, ghostRowCount int

	// Transport attachment and rebuild-derived exchange plans (see
	// exchange.go). sendF/recvF are this rank's reusable staging frames;
	// the per-peer plan slices are indexed by rank id and reused across
	// rebuilds, so the steady-state framed exchange allocates nothing.
	ep           transport.Endpoint
	sendF, recvF transport.Frame
	seen         []bool  // per-phase receive bookkeeping, indexed by rank
	planBits     []uint8 // plan-exchange receipt mask per peer (bit 0 fwd, bit 1 row)
	// stash parks data frames that arrive during a phase that does not
	// consume them. In-process the phase barriers make this impossible (the
	// stash stays empty and steady steps allocate nothing); a remote rank
	// process has no global barrier, so a fast peer's ghost frame can land
	// while this rank is still collecting exchange plans.
	stash []*transport.Frame

	// Forward (ghost-position) plans. Self-owned images bypass the
	// transport: selfGhostIdx/selfGhostAtom list arena slots whose owner is
	// this rank. fwdNeed[s]/fwdArena[s] are the global atoms this rank
	// imports from s and their arena destinations (sent to s as the
	// receiver-driven KindFwdPlan); sendFwd[d] is the pack order peer d
	// asked this rank for.
	selfGhostIdx  []int32
	selfGhostAtom []int32
	fwdNeed       [][]int32
	fwdArena      [][]int32
	sendFwd       [][]int32

	// Reverse (force-row) plans. rowSendT[d] lists this rank's local pair
	// indices whose ghost neighbor is owned by d, ascending; rowPlan[d] is
	// the matching interleaved (slot, atom) wire plan sent to d as
	// KindRowPlan; rowRecv[s] is the interleaved plan received from s,
	// scattered as rows arrive.
	rowSendT [][]int32
	rowPlan  [][]int32
	rowRecv  [][]int32

	// commErr latches this rank's first transport failure of the current
	// phase: a rank server NACKs the driver with it, the in-process master
	// treats it as a bug (checkFailure).
	commErr error
}

// centerCode is the image code of an atom's own (unshifted) copy.
const centerCode = 13

// NewRuntime validates the decomposition and starts the rank workers (one
// compute goroutine and one comm goroutine per rank). The runtime is bound
// to sys: the caller (an MD integrator) mutates sys.Pos in place and calls
// EnergyForcesInto each step. No evaluation happens until the first step.
func NewRuntime(m *core.Model, sys *atoms.System, opts RuntimeOptions) (*Runtime, error) {
	if opts.Halo == 0 {
		opts.Halo = m.Cuts.Max()
	}
	if err := validateRuntime(sys, opts); err != nil {
		return nil, err
	}
	n := sys.NumAtoms()
	r := &Runtime{
		model:  m,
		sys:    sys,
		opts:   opts,
		grid:   opts.Grid,
		halo:   opts.Halo,
		skin:   opts.Skin,
		n:      n,
		pw:     make([][3]float64, n),
		refPos: make([][3]float64, n),
		owner:  make([]int32, n),

		pairCnt:   make([]int32, n),
		pairStart: make([]int32, n+1),
		adjPtr:    make([]int32, n+1),
		adjFill:   make([]int32, n),

		atomInterior:  make([]bool, n),
		readyInterior: make([]int32, 0, n),
		readyFrontier: make([]int32, 0, n),
	}
	nr := opts.Grid[0] * opts.Grid[1] * opts.Grid[2]
	for k := 0; k < 3; k++ {
		r.sub[k] = sys.Cell[k] / float64(opts.Grid[k])
	}
	r.tr = transport.NewChan(nr)
	r.deadRank = make([]atomic.Bool, nr)
	r.done = make(chan struct{}, nr)
	r.commDone = make(chan struct{}, nr)
	r.cmds = make([]chan rankCmd, nr)
	r.comm = make([]chan rankCmd, nr)
	r.ranks = make([]*rank, nr)
	for id := 0; id < nr; id++ {
		ep, err := r.tr.Endpoint(id)
		if err != nil {
			r.tr.Close()
			return nil, fmt.Errorf("domain: transport endpoint for rank %d: %w", id, err)
		}
		rk := newRank(r, id, ep)
		r.ranks[id] = rk
		r.cmds[id] = make(chan rankCmd, 1)
		r.comm[id] = make(chan rankCmd, 1)
		r.wg.Add(2)
		go rk.loop(r.cmds[id])
		go rk.commLoop(r.comm[id])
	}
	return r, nil
}

// newRank builds the persistent state of rank id of rt's grid: its
// subdomain bounds, evaluation scratch, neighbor builder and per-peer plan
// slices, attached to the transport endpoint ep. The in-process runtime and
// a RankServer's headless shell build their ranks through it alike.
func newRank(rt *Runtime, id int, ep transport.Endpoint) *rank {
	workers := rt.WorkersPerRank()
	nr := len(rt.ranks)
	g := rt.grid
	coord := [3]int{id / (g[1] * g[2]), (id / g[2]) % g[1], id % g[2]}
	rk := &rank{rt: rt, id: id, ep: ep, scratch: core.NewEvalScratch(), local: atoms.NewSystem(0)}
	for k := 0; k < 3; k++ {
		rk.lo[k] = float64(coord[k]) * rt.sub[k]
		rk.hi[k] = rk.lo[k] + rt.sub[k]
	}
	// The per-rank budget bounds both the local neighbor builds and the
	// scratch's chunked-graph evaluation (overriding Config.Workers, so a
	// loaded model's global worker setting cannot oversubscribe the node
	// with ranks x GOMAXPROCS pools).
	rk.builder.Workers = workers
	rk.scratch.Workers = workers
	rk.builder.Skin = rt.skin
	rk.seen = make([]bool, nr)
	rk.planBits = make([]uint8, nr)
	rk.fwdNeed = make([][]int32, nr)
	rk.fwdArena = make([][]int32, nr)
	rk.sendFwd = make([][]int32, nr)
	rk.rowSendT = make([][]int32, nr)
	rk.rowPlan = make([][]int32, nr)
	rk.rowRecv = make([][]int32, nr)
	return rk
}

// validateRuntime checks the decomposition invariants.
func validateRuntime(sys *atoms.System, opts RuntimeOptions) error {
	if !sys.PBC {
		return fmt.Errorf("domain: decomposition requires a periodic system")
	}
	if opts.Halo <= 0 {
		return fmt.Errorf("domain: halo must be positive")
	}
	if opts.Skin < 0 {
		return fmt.Errorf("domain: skin must be non-negative")
	}
	haloTot := opts.Halo + opts.Skin
	for k := 0; k < 3; k++ {
		if opts.Grid[k] < 1 {
			return fmt.Errorf("domain: grid dimension %d must be >= 1", k)
		}
		sub := sys.Cell[k] / float64(opts.Grid[k])
		if haloTot > sub {
			return fmt.Errorf("domain: halo+skin %.2f exceeds subdomain width %.2f along %d (grid too fine)", haloTot, sub, k)
		}
		// The minimum-image refresh must keep resolving each listed pair to
		// its build-time image while atoms drift up to skin/2 each.
		if 2*(haloTot+opts.Skin) > sys.Cell[k] {
			return fmt.Errorf("domain: halo+2*skin %.2f exceeds half the cell %.2f along %d", haloTot+opts.Skin, sys.Cell[k]/2, k)
		}
	}
	return nil
}

// loop is the long-lived body of one rank's compute goroutine.
func (rk *rank) loop(cmds chan rankCmd) {
	defer rk.rt.wg.Done()
	defer rk.builder.Close()
	defer rk.scratch.Close()
	for c := range cmds {
		switch c {
		case cmdRebuild:
			rk.execRebuild()
		case cmdSlots:
			rk.execSlots()
		case cmdPlan:
			rk.execPlan()
		case cmdEvalInterior:
			rk.evalIntNs = rk.timeEval(0, rk.nInterior, &rk.intView)
		case cmdEvalFrontier:
			rk.evalFrontNs = rk.timeEval(rk.nInterior, rk.pairs.Len(), &rk.frontView)
		case cmdEvalAll:
			rk.evalIntNs = rk.timeEval(0, rk.nInterior, &rk.intView)
			rk.evalFrontNs = rk.timeEval(rk.nInterior, rk.pairs.Len(), &rk.frontView)
		case cmdReduceFrontier:
			t := time.Now()
			rk.execReduce(rk.redFrontier)
			rk.reduceFrontNs = time.Since(t).Nanoseconds()
		}
		rk.rt.done <- struct{}{}
	}
}

// commLoop is the long-lived body of one rank's comm goroutine — the
// progress-thread stand-in serving the asynchronous ghost exchange and the
// interior half of the split reduction (so it can overlap the compute
// goroutine's frontier evaluation).
func (rk *rank) commLoop(cmds chan rankCmd) {
	defer rk.rt.wg.Done()
	for c := range cmds {
		switch c {
		case cmdPack:
			rk.execExchangeGhosts()
		case cmdReduceInterior:
			t := time.Now()
			rk.execReduce(rk.redInterior)
			rk.reduceIntNs = time.Since(t).Nanoseconds()
		case cmdPlanExchange:
			rk.execPlanExchange()
		case cmdExchangeRows:
			rk.execExchangeRows()
		}
		rk.rt.commDone <- struct{}{}
	}
}

// send posts one phase command to every channel without waiting.
func (r *Runtime) send(chs []chan rankCmd, c rankCmd) {
	for _, ch := range chs {
		ch <- c
	}
}

// waitWorkers / waitComm collect one completion per rank; the channel
// handshakes order all cross-rank reads and writes.
func (r *Runtime) waitWorkers() {
	for range r.ranks {
		<-r.done
	}
}

func (r *Runtime) waitComm() {
	for range r.ranks {
		<-r.commDone
	}
}

// dispatch broadcasts one phase to every rank worker and waits.
func (r *Runtime) dispatch(c rankCmd) {
	r.send(r.cmds, c)
	r.waitWorkers()
}

// dispatchComm broadcasts one phase to every comm goroutine and waits.
func (r *Runtime) dispatchComm(c rankCmd) {
	r.send(r.comm, c)
	r.waitComm()
}

// Close shuts the rank workers down and releases their pools. The runtime
// is unusable afterwards.
func (r *Runtime) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, ch := range r.cmds {
		close(ch)
	}
	for _, ch := range r.comm {
		close(ch)
	}
	r.wg.Wait()
	r.tr.Close()
}

// Stats returns the accumulated runtime statistics.
func (r *Runtime) Stats() RuntimeStats { return r.stats }

// NumRanks returns the rank-grid size.
func (r *Runtime) NumRanks() int { return len(r.ranks) }

// Grid returns the rank grid of the decomposition.
func (r *Runtime) Grid() [3]int { return r.grid }

// Overlapped reports whether the communication-hiding pipeline is enabled.
func (r *Runtime) Overlapped() bool { return r.opts.Overlap }

// PairWork reports the Verlet pairs evaluated per step, summed over ranks
// (the workload term measurements normalize by).
func (r *Runtime) PairWork() int { return r.stats.PairWork }

// WorkersPerRank returns the resolved per-rank worker budget.
func (r *Runtime) WorkersPerRank() int {
	if r.opts.WorkersPerRank <= 0 {
		return 1 // the runtime's default: parallelism comes from the ranks
	}
	return r.opts.WorkersPerRank
}

// Energy returns the potential energy of the last step.
func (r *Runtime) Energy() float64 { return r.energy }

// EnergyForcesInto implements md.InPlacePotential: one decomposed force
// evaluation into the caller's buffer. sys must be the system the runtime
// was constructed with. Steady-state calls (no rebuild) allocate nothing.
func (r *Runtime) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	return r.EnergyForcesOverlap(sys, forces, nil)
}

// EnergyForcesOverlap implements md.PipelinedPotential: like
// EnergyForcesInto, but ready (when non-nil) is invoked with batches of
// atom indices as soon as their forces are final — interior atoms while the
// reverse ghost-force reduction of frontier atoms is still in flight, the
// frontier batch before returning. Every atom is delivered exactly once per
// call. The batches and their contents are identical with Overlap on or
// off; only the schedule differs.
func (r *Runtime) EnergyForcesOverlap(sys *atoms.System, forces [][3]float64, ready func(atoms []int32)) float64 {
	if sys != r.sys {
		panic("domain: Runtime is bound to the system it was constructed with")
	}
	if len(forces) != r.n {
		panic("domain: force buffer length mismatch")
	}
	r.wrap()
	r.stepTick++
	if r.needRebuild() {
		r.rebuild()
	}
	r.forces = forces
	r.parity ^= 1
	if r.opts.Overlap {
		r.stepOverlap(ready)
	} else {
		r.stepSync(ready)
	}
	r.forces = nil
	r.stats.Steps++
	r.checkFailure()
	return r.energy
}

// stepOverlap is the communication-hiding schedule: post the forward
// exchange, hide it behind the interior block, overlap the interior
// reduction with the frontier block, and overlap the frontier (reverse
// ghost-force) reduction with the caller's integration of interior atoms
// and the canonical energy sum.
func (r *Runtime) stepOverlap(ready func([]int32)) {
	st := &r.stats
	r.postTime = time.Now()
	r.send(r.comm, cmdPack) // forward exchange posted asynchronously

	r.send(r.cmds, cmdEvalInterior) // interior block hides the exchange
	r.waitWorkers()

	t := time.Now()
	r.waitComm() // exposed exchange wait: whatever the interior didn't hide
	st.ExchangeWaitNs += time.Since(t).Nanoseconds()

	r.send(r.cmds, cmdEvalFrontier)   // frontier block on arrived ghosts
	r.send(r.comm, cmdReduceInterior) // overlapped: interior rows are final
	r.waitComm()                      // interior forces final
	r.waitWorkers()                   // frontier rows in their slots

	if len(r.ranks) > 1 {
		// Reverse exchange: cross-rank frontier rows settle into their
		// canonical slots before the frontier reduction reads them.
		r.dispatchComm(cmdExchangeRows)
	}

	r.send(r.cmds, cmdReduceFrontier) // reverse ghost-force reduction...
	if ready != nil {
		ready(r.readyInterior) // ...overlapped with interior integration
	}
	e := r.reduceEnergy() // ...and with the canonical energy sum
	r.waitWorkers()
	r.collectPhaseTimers()
	if ready != nil {
		ready(r.readyFrontier)
	}
	r.energy = e
}

// stepSync runs the identical phase arithmetic bulk-synchronously: the
// forward exchange completes before any evaluation starts (the whole
// exchange wall is exposed), then one fused evaluation dispatch runs both
// blocks, then both reductions run (concurrently per rank across the
// worker/comm goroutines — reduction is still strictly after all
// evaluation, the BSP shape). Three barriers per step, matching the
// pre-pipeline runtime plus the explicit exchange phase.
func (r *Runtime) stepSync(ready func([]int32)) {
	st := &r.stats
	r.postTime = time.Now()
	t := r.postTime
	r.dispatchComm(cmdPack)
	st.ExchangeWaitNs += time.Since(t).Nanoseconds()

	r.dispatch(cmdEvalAll)

	if len(r.ranks) > 1 {
		r.dispatchComm(cmdExchangeRows)
	}

	r.send(r.cmds, cmdReduceFrontier)
	r.send(r.comm, cmdReduceInterior)
	r.waitWorkers()
	r.waitComm()
	r.collectPhaseTimers()

	r.energy = r.reduceEnergy()
	if ready != nil {
		ready(r.readyInterior)
		ready(r.readyFrontier)
	}
}

// collectPhaseTimers aggregates the ranks' per-step self-timed phase walls
// (valid once every phase of the step has passed its barrier): the slowest
// rank defines each phase, so the numbers are comparable between the
// overlapped and bulk-synchronous schedules.
func (r *Runtime) collectPhaseTimers() {
	var pack, evalInt, evalFront, reduce int64
	for _, rk := range r.ranks {
		if rk.packNs > pack {
			pack = rk.packNs
		}
		if rk.evalIntNs > evalInt {
			evalInt = rk.evalIntNs
		}
		if rk.evalFrontNs > evalFront {
			evalFront = rk.evalFrontNs
		}
		if red := rk.reduceIntNs + rk.reduceFrontNs; red > reduce {
			reduce = red
		}
	}
	st := &r.stats
	st.CommWallNs += pack
	st.InteriorNs += evalInt
	st.FrontierNs += evalFront
	st.ReduceNs += reduce
}

// EnergyForces implements md.Potential (fresh force buffer per call).
func (r *Runtime) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, r.n)
	e := r.EnergyForcesInto(sys, forces)
	return e, forces
}

// wrap refreshes the wrapped positions (same arithmetic as the neighbor
// builder's PBC binning, so admission decisions are grid-independent).
func (r *Runtime) wrap() { wrapPositions(r.pw, r.sys.Pos, r.sys.Cell) }

// wrapPositions writes the wrapped image of every position into dst — the
// one PBC formula shared by the in-process master and the remote driver, so
// both derive identical bits.
func wrapPositions(dst, pos [][3]float64, cell [3]float64) {
	for i, p := range pos {
		for k := 0; k < 3; k++ {
			l := cell[k]
			dst[i][k] = p[k] - l*math.Floor(p[k]/l)
		}
	}
}

// needRebuild fires the Verlet trigger: any atom displaced skin/2 since the
// last rebuild invalidates the lists. The criterion is global, so the
// rebuild schedule — and with it every admitted pair — is identical on
// every rank grid.
func (r *Runtime) needRebuild() bool {
	if !r.started {
		return true
	}
	return skinTriggered(r.skin, r.sys.Pos, r.refPos)
}

// skinTriggered reports whether any atom moved skin/2 since the reference
// positions were captured (skin <= 0 always triggers) — the Verlet rebuild
// criterion shared with the remote driver.
func skinTriggered(skin float64, pos, ref [][3]float64) bool {
	if skin <= 0 {
		return true
	}
	lim := (skin / 2) * (skin / 2)
	for i, p := range pos {
		d0 := p[0] - ref[i][0]
		d1 := p[1] - ref[i][1]
		d2 := p[2] - ref[i][2]
		if d0*d0+d1*d1+d2*d2 >= lim {
			return true
		}
	}
	return false
}

// rankOf maps a wrapped position to its owning rank.
func (r *Runtime) rankOf(p [3]float64) int { return rankOfCell(r.grid, r.sub, p) }

// rankOfCell is the ownership rule as a standalone function (shared with
// the remote driver's classification).
func rankOfCell(grid [3]int, sub [3]float64, p [3]float64) int {
	var c [3]int
	for k := 0; k < 3; k++ {
		c[k] = int(p[k] / sub[k])
		if c[k] >= grid[k] {
			c[k] = grid[k] - 1
		}
		if c[k] < 0 {
			c[k] = 0
		}
	}
	return (c[0]*grid[1]+c[1])*grid[2] + c[2]
}

// rebuild re-derives ownership (incremental migration: assignments change
// only here, when atoms have crossed subdomain boundaries), ghost imports,
// rank-local Verlet lists with their interior/frontier partition, the
// canonical slot layout, the reduction adjacency, and the split reduction
// plan. Rebuild steps may allocate (lists and arenas re-warm); steady
// steps do not.
func (r *Runtime) rebuild() {
	r.stats.Rebuilds++
	mig := 0
	for i := 0; i < r.n; i++ {
		o := int32(r.rankOf(r.pw[i]))
		if r.started && o != r.owner[i] {
			mig++
		}
		r.owner[i] = o
	}
	if r.started {
		r.stats.Migrations += mig
	}
	copy(r.refPos, r.sys.Pos)
	for i := range r.pairCnt {
		r.pairCnt[i] = 0
	}

	r.dispatch(cmdRebuild)

	// Canonical slot layout: ascending global center, each center's block
	// in the owning rank's sorted order.
	total := int32(0)
	r.pairStart[0] = 0
	for i := 0; i < r.n; i++ {
		total += r.pairCnt[i]
		r.pairStart[i+1] = total
	}
	r.nPairs = int(total)
	if cap(r.pairGI) < r.nPairs {
		r.pairGI = make([]int32, r.nPairs)
		r.pairGJ = make([]int32, r.nPairs)
		r.rows = make([][3]float64, r.nPairs)
		r.pairE = make([]float64, r.nPairs)
	}
	r.pairGI = r.pairGI[:r.nPairs]
	r.pairGJ = r.pairGJ[:r.nPairs]
	r.rows = r.rows[:r.nPairs]
	r.pairE = r.pairE[:r.nPairs]
	if cap(r.interiorSlot) < r.nPairs {
		r.interiorSlot = make([]bool, r.nPairs)
	}
	r.interiorSlot = r.interiorSlot[:r.nPairs]

	r.dispatch(cmdSlots)
	r.buildAdjacency()
	r.classifyAtoms()
	r.dispatch(cmdPlan)
	// Exchange-plan swap: every rank tells its peers which atoms to
	// forward and which row slots to expect (no-op on a 1-rank grid).
	r.rebuildTick++
	r.dispatchComm(cmdPlanExchange)
	r.checkFailure()

	st := &r.stats
	st.PairWork = r.nPairs
	st.InteriorPairs = 0
	st.MaxOwned, st.MaxGhosts, st.TotalGhost = 0, 0, 0
	st.ForwardBytesPerStep, st.ReverseBytesPerStep = 0, 0
	for _, rk := range r.ranks {
		if rk.nOwned > st.MaxOwned {
			st.MaxOwned = rk.nOwned
		}
		if rk.nGhosts > st.MaxGhosts {
			st.MaxGhosts = rk.nGhosts
		}
		st.InteriorPairs += rk.nInterior
		st.TotalGhost += rk.nGhosts
		st.ForwardBytesPerStep += rk.nGhosts * 24       // 3 float64 per ghost position
		st.ReverseBytesPerStep += rk.ghostRowCount * 24 // 3 float64 per ghost force row
	}
	r.started = true
}

// buildAdjacency precomputes, per atom, the slots contributing to its force
// in ascending slot order: +row where the atom is the center, -row where it
// is the neighbor — exactly the serial accumulation order, split per atom.
func (r *Runtime) buildAdjacency() {
	need := 2 * r.nPairs
	if cap(r.adj) < need {
		r.adj = make([]int32, need)
	}
	r.adj = r.adj[:need]
	cnt := r.adjFill
	for i := range cnt {
		cnt[i] = 0
	}
	for z := 0; z < r.nPairs; z++ {
		cnt[r.pairGI[z]]++
		cnt[r.pairGJ[z]]++
	}
	r.adjPtr[0] = 0
	for i := 0; i < r.n; i++ {
		r.adjPtr[i+1] = r.adjPtr[i] + cnt[i]
	}
	copy(cnt, r.adjPtr[:r.n]) // running write offsets
	for z := 0; z < r.nPairs; z++ {
		gi, gj := r.pairGI[z], r.pairGJ[z]
		r.adj[cnt[gi]] = int32(z) << 1
		cnt[gi]++
		r.adj[cnt[gj]] = int32(z)<<1 | 1
		cnt[gj]++
	}
}

// classifyAtoms derives the split reduction plan: an atom's force is final
// after the interior rows iff every slot in its adjacency belongs to an
// interior center — no frontier row, from any rank, touches it. The ready
// lists keep ascending atom order, so a pipelined integrator visits atoms
// deterministically.
func (r *Runtime) classifyAtoms() {
	r.readyInterior = r.readyInterior[:0]
	r.readyFrontier = r.readyFrontier[:0]
	for a := 0; a < r.n; a++ {
		interior := true
		for _, e := range r.adj[r.adjPtr[a]:r.adjPtr[a+1]] {
			if !r.interiorSlot[e>>1] {
				interior = false
				break
			}
		}
		r.atomInterior[a] = interior
		if interior {
			r.readyInterior = append(r.readyInterior, int32(a))
		} else {
			r.readyFrontier = append(r.readyFrontier, int32(a))
		}
	}
}

// reduceEnergy is core.ReduceRows' energy ladder over the global slots:
// pair energies in canonical slot order, then per-species shifts in atom
// order, then the final-stage precision — identical on every rank grid, and
// the same call the remote driver makes over the pair energies gathered
// from its rank processes.
func (r *Runtime) reduceEnergy() float64 {
	return core.ReduceRows(r.model, r.sys.Species, nil, nil, r.pairE, nil)
}

// --- rank phases ---

// execRebuild re-derives this rank's membership, Verlet list, partition,
// and staging arenas.
func (rk *rank) execRebuild() {
	rt := rk.rt
	rk.gOf = rk.gOf[:0]
	rk.shift = rk.shift[:0]
	rk.code = rk.code[:0]
	for i := 0; i < rt.n; i++ {
		if rt.owner[i] == int32(rk.id) {
			rk.gOf = append(rk.gOf, int32(i))
			rk.shift = append(rk.shift, [3]float64{})
			rk.code = append(rk.code, centerCode)
		}
	}
	rk.nOwned = len(rk.gOf)

	// Ghost import: every periodic image inside the halo+skin envelope of
	// the subdomain, in deterministic (atom, image) order. Shift vectors
	// are exact multiples of the cell, so a ghost position equals the
	// owner's wrapped position plus its shift on every grid.
	haloTot := rt.halo + rt.skin
	cell := rt.sys.Cell
	for j := 0; j < rt.n; j++ {
		p := rt.pw[j]
		for sx := -1; sx <= 1; sx++ {
			for sy := -1; sy <= 1; sy++ {
				for sz := -1; sz <= 1; sz++ {
					if rt.owner[j] == int32(rk.id) && sx == 0 && sy == 0 && sz == 0 {
						continue // the owned copy itself
					}
					sh := [3]float64{float64(sx) * cell[0], float64(sy) * cell[1], float64(sz) * cell[2]}
					inside := true
					for k := 0; k < 3; k++ {
						v := p[k] + sh[k]
						if v < rk.lo[k]-haloTot || v >= rk.hi[k]+haloTot {
							inside = false
							break
						}
					}
					if inside {
						rk.gOf = append(rk.gOf, int32(j))
						rk.shift = append(rk.shift, sh)
						rk.code = append(rk.code, uint8((sx+1)*9+(sy+1)*3+(sz+1)))
					}
				}
			}
		}
	}
	rk.nGhosts = len(rk.gOf) - rk.nOwned

	// Double-buffered ghost staging arenas (forward-exchange destination).
	for pr := 0; pr < 2; pr++ {
		if cap(rk.ghost[pr]) < rk.nGhosts {
			rk.ghost[pr] = make([][3]float64, rk.nGhosts)
		}
		rk.ghost[pr] = rk.ghost[pr][:rk.nGhosts]
	}

	// Local system: owned atoms first (CenterLimit), ghosts after.
	nLoc := len(rk.gOf)
	if cap(rk.local.Pos) < nLoc {
		rk.local.Pos = make([][3]float64, nLoc)
		rk.local.Species = make([]units.Species, nLoc)
	}
	rk.local.Pos = rk.local.Pos[:nLoc]
	rk.local.Species = rk.local.Species[:nLoc]
	for t, g := range rk.gOf {
		rk.local.Species[t] = rt.sys.Species[g]
		sh := rk.shift[t]
		pw := rt.pw[g]
		rk.local.Pos[t] = [3]float64{pw[0] + sh[0], pw[1] + sh[1], pw[2] + sh[2]}
	}
	rk.local.PBC = false

	if rk.nOwned > 0 {
		rk.builder.CenterLimit = rk.nOwned
		rk.builder.BuildInto(&rk.pairs, rk.local, rt.model.Cuts)
		rk.canonicalize()
		rk.nInterior = rk.builder.PartitionInterior(&rk.pairs)
	} else {
		// A rank that owns no atoms centers no pairs. (Builder.CenterLimit
		// treats 0 as "all atoms", which would build ghost-centered
		// duplicates of other ranks' pairs — skip the build entirely.)
		rk.pairs.Reset(nLoc)
		rk.nInterior = 0
	}
	rk.intView = pairsView(&rk.pairs, 0, rk.nInterior)
	rk.frontView = pairsView(&rk.pairs, rk.nInterior, rk.pairs.Len())

	// Publish per-center pair counts (centers are owned, hence disjoint
	// across ranks) and count reverse-exchange rows.
	rk.ghostRowCount = 0
	p := &rk.pairs
	for t := 0; t < p.Len(); t++ {
		rt.pairCnt[rk.gOf[p.I[t]]]++
		if p.J[t] >= rk.nOwned {
			rk.ghostRowCount++
		}
	}
	if cap(rk.rowsBuf) < p.Len() {
		rk.rowsBuf = make([][3]float64, p.Len())
		rk.pairEBuf = make([]float64, p.Len())
	}
	rk.rowsBuf = rk.rowsBuf[:p.Len()]
	rk.pairEBuf = rk.pairEBuf[:p.Len()]
	if cap(rk.slotOf) < p.Len() {
		rk.slotOf = make([]int32, p.Len())
	}
	rk.slotOf = rk.slotOf[:p.Len()]
}

// pairsView carves the [lo,hi) sub-list of p as an aliasing Pairs value
// (the block the evaluator runs over; storage is shared with p).
func pairsView(p *neighbor.Pairs, lo, hi int) neighbor.Pairs {
	return neighbor.Pairs{
		I: p.I[lo:hi], J: p.J[lo:hi], Vec: p.Vec[lo:hi],
		Dist: p.Dist[lo:hi], Cut: p.Cut[lo:hi],
		NumReal: hi - lo,
		NAtoms:  p.NAtoms,
	}
}

// canonicalize orders each center's pairs by (global neighbor, periodic
// image) — a key independent of the rank grid and of the local cell-scan
// order, so per-center environment sums accumulate identically everywhere.
func (rk *rank) canonicalize() {
	p := &rk.pairs
	z := p.Len()
	rk.perm = rk.perm[:0]
	for t := 0; t < z; t++ {
		rk.perm = append(rk.perm, t)
	}
	key := func(t int) int64 {
		j := p.J[t]
		return int64(rk.gOf[j])*27 + int64(rk.code[j])
	}
	for blo := 0; blo < z; {
		bhi := blo + 1
		for bhi < z && p.I[bhi] == p.I[blo] {
			bhi++
		}
		blk := rk.perm[blo:bhi]
		sort.Slice(blk, func(a, b int) bool { return key(blk[a]) < key(blk[b]) })
		blo = bhi
	}
	rk.tmpI = append(rk.tmpI[:0], p.I...)
	rk.tmpJ = append(rk.tmpJ[:0], p.J...)
	rk.tmpVec = append(rk.tmpVec[:0], p.Vec...)
	rk.tmpDist = append(rk.tmpDist[:0], p.Dist...)
	rk.tmpCut = append(rk.tmpCut[:0], p.Cut...)
	for t, src := range rk.perm {
		p.I[t] = rk.tmpI[src]
		p.J[t] = rk.tmpJ[src]
		p.Vec[t] = rk.tmpVec[src]
		p.Dist[t] = rk.tmpDist[src]
		p.Cut[t] = rk.tmpCut[src]
	}
}

// execSlots assigns global slots and marks interior ones. A rank's pairs
// are grouped by contiguous center blocks (canonical within each class),
// so each center's block lands contiguously at the center's canonical
// offset; the partition moved whole blocks, never split one.
func (rk *rank) execSlots() {
	rt := rk.rt
	p := &rk.pairs
	z := p.Len()
	for t := 0; t < z; {
		center := p.I[t]
		gi := rk.gOf[center]
		slot := rt.pairStart[gi]
		for ; t < z && p.I[t] == center; t++ {
			rk.slotOf[t] = slot
			rt.pairGI[slot] = gi
			rt.pairGJ[slot] = rk.gOf[p.J[t]]
			rt.interiorSlot[slot] = t < rk.nInterior
			slot++
		}
	}
}

// execPlan splits this rank's owned atoms by the master's classification:
// forces of redInterior atoms are final after the interior rows, the rest
// wait for the frontier (reverse ghost-force) rows.
func (rk *rank) execPlan() {
	rt := rk.rt
	rk.redInterior = rk.redInterior[:0]
	rk.redFrontier = rk.redFrontier[:0]
	for t := 0; t < rk.nOwned; t++ {
		if rt.atomInterior[rk.gOf[t]] {
			rk.redInterior = append(rk.redInterior, int32(t))
		} else {
			rk.redFrontier = append(rk.redFrontier, int32(t))
		}
	}
}

// timeEval runs execEval under the rank's phase self-timer; empty blocks
// report zero.
func (rk *rank) timeEval(lo, hi int, view *neighbor.Pairs) int64 {
	if hi <= lo {
		return 0
	}
	t := time.Now()
	rk.execEval(lo, hi, view)
	return time.Since(t).Nanoseconds()
}

// execEval evaluates one block of this rank's pair list: refresh the
// block's pair vectors from current positions with the one minimum-image
// formula used on all grids — interior blocks read owned positions only;
// frontier blocks read ghost neighbors from the staged arena the forward
// exchange filled — evaluate the block's rows, and scatter them to their
// canonical slots.
func (rk *rank) execEval(lo, hi int, view *neighbor.Pairs) {
	if hi <= lo {
		return
	}
	rt := rk.rt
	for t := lo; t < hi; t++ {
		rk.refreshPair(t)
	}
	rt.model.EvaluateRowsInto(rk.scratch, rk.local, view, rk.rowsBuf[lo:hi], rk.pairEBuf[lo:hi])
	for t := lo; t < hi; t++ {
		s := rk.slotOf[t]
		rt.rows[s] = rk.rowsBuf[t]
		rt.pairE[s] = rk.pairEBuf[t]
	}
}

// refreshPair recomputes one listed pair's displacement vector and distance
// from current positions with the one minimum-image formula used on all
// grids (ghost neighbors read the staged arena, bitwise the owner's
// position plus a frozen shift).
func (rk *rank) refreshPair(t int) {
	rt := rk.rt
	p := &rk.pairs
	cell := rt.sys.Cell
	pi := rt.pw[rk.gOf[p.I[t]]]
	var pj [3]float64
	if j := p.J[t]; j >= rk.nOwned {
		pj = rk.ghost[rt.parity][j-rk.nOwned] // staged ghost, bitwise the owner's position
	} else {
		pj = rt.pw[rk.gOf[j]]
	}
	var d [3]float64
	for k := 0; k < 3; k++ {
		dk := pj[k] - pi[k]
		dk -= cell[k] * math.Round(dk/cell[k])
		d[k] = dk
	}
	p.Vec[t] = d
	p.Dist[t] = math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
}

// execReduce computes the listed owned atoms' forces from the global rows
// in ascending slot order — bitwise the serial accumulation, partitioned by
// ownership and by interior/frontier readiness.
func (rk *rank) execReduce(which []int32) {
	rt := rk.rt
	for _, t := range which {
		a := rk.gOf[t]
		var f [3]float64
		for _, e := range rt.adj[rt.adjPtr[a]:rt.adjPtr[a+1]] {
			row := &rt.rows[e>>1]
			if e&1 == 0 {
				f[0] += row[0]
				f[1] += row[1]
				f[2] += row[2]
			} else {
				f[0] -= row[0]
				f[1] -= row[1]
				f[2] -= row[2]
			}
		}
		rt.forces[a] = f
	}
}
