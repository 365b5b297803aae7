package domain

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
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
	// Deprecated: Overlap is ignored. Every rank step runs the one
	// communication-hiding schedule (ghost exchange posted before, and
	// received after, the interior block).
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
	// ReverseBytesPerStep is the reverse volume: one exact force partial
	// (48 B) per ghost owned by another rank, sent back to its owner.
	ForwardBytesPerStep int
	ReverseBytesPerStep int

	// Per-phase timers, cumulative nanoseconds over all steps, each the
	// slowest rank's self-timed value per step (reported in the rank's
	// KindForces frame). CommWallNs is the forward exchange's post-to-staged
	// wall; ExchangeWaitNs is the part of it the rank spent blocked on ghost
	// frames after the interior block — the *exposed* wait; their ratio is
	// the overlap fraction. InteriorNs, FrontierNs and ReduceNs are the time
	// spent inside the interior-block eval, the frontier-block eval and the
	// force reduction.
	ExchangeWaitNs int64
	CommWallNs     int64
	InteriorNs     int64
	FrontierNs     int64
	ReduceNs       int64
}

// OverlapFraction reports how much of the forward ghost-exchange wall time
// was hidden behind computation: 1 - exposed/total, clamped to [0, 1] —
// near 1 when the interior workload dominates the exchange.
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

// Runtime is the in-process domain-decomposed force engine: the rank-server
// fleet on a channel transport. NewRuntime starts one goroutine per rank,
// each serving a RankServer on its endpoint of a transport.NewChan world,
// and drives them with a RemoteRuntime on the last endpoint — the same
// rendezvous, rebuild and step protocol, and the same rank step, as a fleet
// of allegro-rankd processes over TCP. Each rank keeps a core.EvalScratch, a
// local neighbor.Builder with a Verlet skin and reusable ghost/exchange
// buffers; in steady state — no atom has moved skin/2 since the last
// rebuild — a step allocates nothing.
//
// Each rank step hides communication the way the paper's LAMMPS runs do:
// the forward ghost-position exchange is posted first, the interior pair
// block (centers whose environments reference no ghost) evaluates while it
// is in flight, and the frontier block evaluates on arrival.
//
// Determinism: each center's pairs are ordered by (global neighbor,
// periodic image), the order neighbor.Builder gives the serial list, so a
// center's rows are the same bits on every grid (Allegro's strict locality
// makes a center's pairs an independent sub-graph wholly owned by one
// rank). Forces and the energy are exact integer sums of those rows (see
// core.ExactSum): every rank sums its pairs into per-atom partials, returns
// each ghost's partial to the atom's owner, and rounds its owned atoms
// once. Integer sums do not depend on order, so trajectories are
// bit-identical to the serial engine across rank grids, worker counts, skin
// values and transports.
//
// Goroutine ranks cannot die, so there is no failure path: a latched fleet
// error panics. Rank failure and elastic recovery are driven through
// RemoteRuntime on a process fleet.
//
// A Runtime is bound to the *atoms.System it was constructed with and
// serves one simulation loop; it implements md.InPlacePotential and
// md.PipelinedPotential. Call Close to stop the rank goroutines.
type Runtime struct {
	rr      *RemoteRuntime
	servers []*RankServer // the rank goroutines' servers, by rank id
	wg      sync.WaitGroup
	closed  bool
}

// NewRuntime validates the decomposition, starts one rank goroutine per
// subdomain and performs the rendezvous. The runtime is bound to sys: the
// caller (an MD integrator) mutates sys.Pos in place and calls
// EnergyForcesInto each step. No evaluation happens until the first step.
func NewRuntime(m *core.Model, sys *atoms.System, opts RuntimeOptions) (*Runtime, error) {
	if opts.Halo == 0 {
		opts.Halo = m.Cuts.Max()
	}
	if err := validateRuntime(sys, opts); err != nil {
		return nil, err
	}
	nr := opts.Grid[0] * opts.Grid[1] * opts.Grid[2]
	tr := transport.NewChan(nr + 1)
	r := &Runtime{servers: make([]*RankServer, nr)}
	built := make(chan *RankServer, nr)
	for id := 0; id < nr; id++ {
		ep, err := tr.Endpoint(id)
		if err != nil {
			tr.Close()
			r.wg.Wait()
			return nil, fmt.Errorf("domain: transport endpoint for rank %d: %w", id, err)
		}
		r.wg.Add(1)
		go r.serve(ep, built)
	}
	rr, err := NewRemoteRuntime(m, sys, RemoteOptions{
		Grid: opts.Grid, Skin: opts.Skin, Halo: opts.Halo,
		WorkersPerRank: opts.WorkersPerRank, Transport: tr,
	})
	if err != nil {
		tr.Close()
		r.wg.Wait()
		return nil, err
	}
	for range nr {
		srv := <-built
		r.servers[srv.id] = srv
	}
	r.rr = rr
	return r, nil
}

// serve is the body of one rank goroutine: configure a RankServer from the
// driver's rendezvous and serve until the shutdown frame. A closed
// transport ends it quietly (NewRuntime failed, or Close ran); any other
// rank error is a bug.
func (r *Runtime) serve(ep transport.Endpoint, built chan<- *RankServer) {
	defer r.wg.Done()
	srv, err := NewRankServer(ep, nil)
	if err == nil {
		defer srv.Close()
		built <- srv
		err = srv.Serve()
	}
	if err != nil && !errors.Is(err, transport.ErrClosed) {
		panic(err.Error())
	}
}

// Close shuts the fleet down and joins every rank goroutine: each rank
// acknowledges its shutdown frame and returns (goroutine ranks cannot die,
// so no wait needs a deadline), then the transport closes. The runtime is
// unusable afterwards.
func (r *Runtime) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.rr.broadcastShutdown()
	r.wg.Wait()
	r.rr.tr.Close()
}

// Stats returns the accumulated runtime statistics.
func (r *Runtime) Stats() RuntimeStats { return r.rr.Stats() }

// NumRanks returns the rank-grid size.
func (r *Runtime) NumRanks() int { return r.rr.NumRanks() }

// Grid returns the rank grid of the decomposition.
func (r *Runtime) Grid() [3]int { return r.rr.Grid() }

// PairWork reports the Verlet pairs evaluated per step, summed over ranks
// (the workload term measurements normalize by).
func (r *Runtime) PairWork() int { return r.rr.stats.PairWork }

// Energy returns the potential energy of the last step.
func (r *Runtime) Energy() float64 { return r.rr.Energy() }

// EnergyForces implements md.Potential (fresh force buffer per call).
func (r *Runtime) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, sys.NumAtoms())
	e := r.EnergyForcesInto(sys, forces)
	return e, forces
}

// EnergyForcesInto implements md.InPlacePotential: one decomposed force
// evaluation into the caller's buffer. sys must be the system the runtime
// was constructed with. Steady-state calls (no rebuild) allocate nothing.
func (r *Runtime) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	return r.EnergyForcesOverlap(sys, forces, nil)
}

// EnergyForcesOverlap implements md.PipelinedPotential: like
// EnergyForcesInto, but ready (when non-nil) is invoked once per rank with
// that rank's owned atoms, in ascending order, as soon as the rank's forces
// land — while other ranks are still evaluating. Every atom is delivered
// exactly once per call.
func (r *Runtime) EnergyForcesOverlap(sys *atoms.System, forces [][3]float64, ready func(atoms []int32)) float64 {
	e := r.rr.energyForces(sys, forces, ready)
	if err := r.rr.Err(); err != nil {
		panic(err.Error())
	}
	return e
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

// wrapPositions writes the wrapped image of every position into dst (same
// arithmetic as the neighbor builder's PBC binning, so admission decisions
// are grid-independent).
func wrapPositions(dst, pos [][3]float64, cell [3]float64) {
	for i, p := range pos {
		for k := 0; k < 3; k++ {
			l := cell[k]
			dst[i][k] = p[k] - l*math.Floor(p[k]/l)
		}
	}
}

// skinTriggered fires the Verlet trigger: any atom displaced skin/2 since
// the reference positions were captured (skin <= 0 always triggers)
// invalidates the lists. The criterion is global, so the rebuild schedule —
// and with it every admitted pair — is identical on every rank grid.
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

// rankOfCell maps a wrapped position to its owning rank.
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

// host is the global state one rank's phases read: the system's constants
// and the driver-broadcast ownership and wrapped positions. Only RankServer
// builds one; its arrays are filled from the driver's frames.
type host struct {
	model   *core.Model
	species []units.Species
	cell    [3]float64
	halo    float64 // ghost-import distance before the skin is added
	skin    float64
	nr      int // grid ranks

	n     int
	pw    [][3]float64 // wrapped positions: every atom at a rebuild, owned atoms each step
	owner []int32      // owning rank per atom, frozen between rebuilds

	parity int // double-buffer half the current step's exchange fills

	// stepTick/rebuildTick tag frames so receivers can discard duplicates
	// and stale deliveries; deadRank records peers whose death the rank's
	// phases observed.
	stepTick    uint64
	rebuildTick uint64
	deadRank    []bool
	started     bool // valid plans: a rebuild completed since the last abort
}

// rank is the persistent state of one subdomain worker.
type rank struct {
	h      *host
	id     int
	lo, hi [3]float64

	nOwned int
	gOf    []int32       // local index -> global atom (owned first, then ghosts)
	shift  [][3]float64  // local index -> periodic image offset (owned: zero)
	code   []uint8       // local index -> image code in [0,27) (owned: 13)
	local  *atoms.System // local species + build-time positions

	builder  neighbor.Builder
	pairs    neighbor.Pairs
	scratch  *core.EvalScratch
	rowsBuf  [][3]float64
	pairEBuf []float64
	// sum holds one step's exact force partial per local atom (owned and
	// ghost) and the rank's energy partial.
	sum core.Partial

	// Interior/frontier partition of the canonical local pair list: pairs
	// [0, nInterior) form the interior block, the rest the frontier block.
	// The views alias rk.pairs and are refreshed at rebuilds.
	nInterior          int
	intView, frontView neighbor.Pairs

	// Double-buffered ghost-position arena: ghost[h.parity] is the staging
	// buffer the current step's forward exchange fills (see the ownership
	// contract in the README); ghost local index t reads ghost[parity][t-nOwned].
	ghost [2][][3]float64

	// Canonical-sort scratch (rebuild only).
	perm                   []int
	tmpI, tmpJ             []int
	tmpVec                 [][3]float64
	tmpDist, tmpCut        []float64
	nGhosts, nRemoteGhosts int

	// Transport attachment and rebuild-derived exchange plans (see
	// exchange.go). sendF/recvF are this rank's reusable staging frames;
	// the per-peer plan slices are indexed by rank id and reused across
	// rebuilds, so the steady-state framed exchange allocates nothing.
	ep           transport.Endpoint
	sendF, recvF transport.Frame
	seen         []bool // per-phase receive bookkeeping, indexed by rank
	// stash parks frames that arrive during a phase that does not consume
	// them: ranks share no barrier, so a fast peer's partials can land while
	// this rank still waits for another peer's ghosts, and a peer's ghosts
	// can land before the driver's positions. Consumed frames return to
	// free, so a steady step allocates nothing.
	stash, free []*transport.Frame

	// Exchange plan. Self-owned images bypass the transport:
	// selfGhostIdx/selfGhostOwn list arena slots whose owner is this rank
	// and the owned local index they image. fwdNeed[s]/fwdArena[s] are the
	// global atoms this rank imports from s and their arena destinations
	// (sent to s as the receiver-driven KindFwdPlan); sendFwd[d] is the
	// pack order peer d asked this rank for, as owned local indices. The
	// reverse exchange runs the same lists transposed.
	selfGhostIdx []int32
	selfGhostOwn []int32
	fwdNeed      [][]int32
	fwdArena     [][]int32
	sendFwd      [][]int32

	// commErr latches this rank's first transport failure of the current
	// phase; the rank server NACKs the driver with it.
	commErr error
}

// centerCode is the image code of an atom's own (unshifted) copy.
const centerCode = 13

// newRank builds the persistent state of rank id of a grid with subdomain
// widths sub: its bounds, evaluation scratch, neighbor builder and per-peer
// plan slices, attached to the transport endpoint ep.
func newRank(h *host, id int, ep transport.Endpoint, grid [3]int, sub [3]float64, workers int) *rank {
	if workers <= 0 {
		workers = 1 // parallelism comes from the ranks
	}
	nr := h.nr
	coord := [3]int{id / (grid[1] * grid[2]), (id / grid[2]) % grid[1], id % grid[2]}
	rk := &rank{h: h, id: id, ep: ep, scratch: core.NewEvalScratch(), local: atoms.NewSystem(0)}
	for k := 0; k < 3; k++ {
		rk.lo[k] = float64(coord[k]) * sub[k]
		rk.hi[k] = rk.lo[k] + sub[k]
	}
	// The per-rank budget bounds both the local neighbor builds and the
	// scratch's chunked-graph evaluation (overriding Config.Workers, so a
	// loaded model's global worker setting cannot oversubscribe the node
	// with ranks x GOMAXPROCS pools).
	rk.builder.Workers = workers
	rk.scratch.Workers = workers
	rk.builder.Skin = h.skin
	rk.seen = make([]bool, nr)
	rk.fwdNeed = make([][]int32, nr)
	rk.fwdArena = make([][]int32, nr)
	rk.sendFwd = make([][]int32, nr)
	return rk
}

// --- rank phases ---

// execRebuild re-derives this rank's membership, Verlet list, partition,
// and staging arenas.
func (rk *rank) execRebuild() {
	h := rk.h
	rk.gOf = rk.gOf[:0]
	rk.shift = rk.shift[:0]
	rk.code = rk.code[:0]
	for i := 0; i < h.n; i++ {
		if h.owner[i] == int32(rk.id) {
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
	haloTot := h.halo + h.skin
	cell := h.cell
	rk.nRemoteGhosts = 0
	for j := 0; j < h.n; j++ {
		p := h.pw[j]
		for sx := -1; sx <= 1; sx++ {
			for sy := -1; sy <= 1; sy++ {
				for sz := -1; sz <= 1; sz++ {
					if h.owner[j] == int32(rk.id) && sx == 0 && sy == 0 && sz == 0 {
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
						if h.owner[j] != int32(rk.id) {
							rk.nRemoteGhosts++
						}
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
		rk.local.Species[t] = h.species[g]
		sh := rk.shift[t]
		pw := h.pw[g]
		rk.local.Pos[t] = [3]float64{pw[0] + sh[0], pw[1] + sh[1], pw[2] + sh[2]}
	}
	rk.local.PBC = false

	if rk.nOwned > 0 {
		rk.builder.CenterLimit = rk.nOwned
		rk.builder.BuildInto(&rk.pairs, rk.local, h.model.Cuts)
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

	z := rk.pairs.Len()
	if cap(rk.rowsBuf) < z {
		rk.rowsBuf = make([][3]float64, z)
		rk.pairEBuf = make([]float64, z)
	}
	rk.rowsBuf = rk.rowsBuf[:z]
	rk.pairEBuf = rk.pairEBuf[:z]
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
// image) — a key independent of the rank grid and of the local index
// order, and the serial list's order (one image per neighbor), so
// per-center environment sums accumulate identically everywhere.
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

// evalBlock evaluates one block of this rank's pair list and returns the
// time it took (zero for an empty block): refresh the block's pair vectors
// from current positions with the one minimum-image formula used on all
// grids — interior blocks read owned positions only; frontier blocks read
// ghost neighbors from the staged arena the forward exchange filled —
// evaluate the block's rows, and add them to the local atoms' exact sums.
func (rk *rank) evalBlock(lo, hi int, view *neighbor.Pairs) int64 {
	if hi <= lo {
		return 0
	}
	start := time.Now()
	h := rk.h
	for t := lo; t < hi; t++ {
		rk.refreshPair(t)
	}
	h.model.EvaluateRowsInto(rk.scratch, rk.local, view, rk.rowsBuf[lo:hi], rk.pairEBuf[lo:hi])
	rk.sum.AddRows(view, rk.rowsBuf[lo:hi], rk.pairEBuf[lo:hi])
	return time.Since(start).Nanoseconds()
}

// refreshPair recomputes one listed pair's displacement vector and distance
// from current positions with the one minimum-image formula used on all
// grids (ghost neighbors read the staged arena, bitwise the owner's
// position plus a frozen shift).
func (rk *rank) refreshPair(t int) {
	h := rk.h
	p := &rk.pairs
	cell := h.cell
	pi := h.pw[rk.gOf[p.I[t]]]
	var pj [3]float64
	if j := p.J[t]; j >= rk.nOwned {
		pj = rk.ghost[h.parity][j-rk.nOwned] // staged ghost, bitwise the owner's position
	} else {
		pj = h.pw[rk.gOf[j]]
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

// foldSelf merges every self-owned periodic image's partial into the owned
// atom it images: after the reverse exchange, the owned atoms' sums are
// complete.
func (rk *rank) foldSelf() {
	for k, idx := range rk.selfGhostIdx {
		own := &rk.sum.Forces[rk.selfGhostOwn[k]]
		for c, a := range &rk.sum.Forces[rk.nOwned+int(idx)] {
			own[c].Merge(a)
		}
	}
}
