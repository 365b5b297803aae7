package domain

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/transport"
)

// abortError marks a phase failure that is recoverable at the fleet level —
// a peer died mid-phase, or the phase's preconditions are gone (aborted
// rebuild left no valid plans). Serve NACKs the driver with a KindAbort at
// the phase tick and keeps serving; only driver death and transport
// breakage are fatal to a rank process.
type abortError struct {
	tick uint64
	dead int // dead peer rank, -1 when unknown
}

func (e *abortError) Error() string {
	return fmt.Sprintf("phase %d aborted (dead peer %d)", e.tick, e.dead)
}

// errAbandoned marks a phase cut short by a KindRecover epoch frame: the
// driver is not waiting for this phase anymore, so no NACK is sent — the
// serve loop just processes the parked epoch frame next.
var errAbandoned = errors.New("rankd: phase abandoned by recovery epoch")

// RankServer is the rank-process half of the remote protocol: one subdomain
// worker hosted in its own OS process (cmd/allegro-rankd), serving the
// driver's rebuild/step frames over a transport endpoint. It reuses the
// in-process rank phases verbatim — membership, canonical neighbor lists,
// slot assignment, the peer plan swap, both framed exchanges, evaluation,
// and the slot-ordered reduction all run through the same code the
// goroutine ranks run — hosted in a headless Runtime shell that holds the
// global arrays (positions, ownership, slot layout) the phases read. The
// shell has no worker goroutines and no master step loop: the driver plays
// the master, and the global arrays are populated from its frames instead
// of from sibling ranks. Because every derived quantity (wrap, ownership,
// slots, reduction order, energy slots) comes from the shared arithmetic,
// a distributed trajectory is bit-identical to the in-process one.
type RankServer struct {
	id     int
	nr     int // grid ranks; the driver is transport rank nr
	ep     transport.Endpoint
	logf   func(format string, args ...any)
	rt     *Runtime
	rk     *rank
	nOwned int

	// reduceAll lists every owned local index: a rank process always reduces
	// all of its atoms in one pass (the split interior/frontier schedule is a
	// latency optimization of the in-process pipeline, not of the protocol).
	reduceAll []int32

	sendF transport.Frame
}

// NewRankServer blocks on the endpoint until the driver's KindConfig frame
// arrives, builds the rank state it describes, and acknowledges. logf (when
// non-nil) receives progress lines.
func NewRankServer(ep transport.Endpoint, logf func(format string, args ...any)) (*RankServer, error) {
	s := &RankServer{id: ep.Rank(), ep: ep, logf: logf}
	var f transport.Frame
	for {
		if err := ep.Recv(&f); err != nil {
			return nil, fmt.Errorf("rankd %d: waiting for config: %w", s.id, err)
		}
		if f.Kind == transport.KindConfig {
			break
		}
		if f.Kind == transport.KindShutdown {
			return nil, fmt.Errorf("rankd %d: shut down before configuration", s.id)
		}
		// Hellos, heartbeats, peers racing ahead: ignore until configured.
	}
	var wire remoteWire
	if err := json.Unmarshal(f.Bytes, &wire); err != nil {
		return nil, fmt.Errorf("rankd %d: decode config: %w", s.id, err)
	}
	if err := s.build(&wire); err != nil {
		return nil, err
	}
	// The ack echoes the config frame's tick: 0 at the initial rendezvous,
	// the fleet generation when a replacement rejoins a running fleet.
	ack := &s.sendF
	ack.Reset(transport.KindConfig, s.nr, f.Step)
	if err := ep.Send(ack); err != nil {
		return nil, fmt.Errorf("rankd %d: config ack: %w", s.id, err)
	}
	s.logln("configured: grid %v, %d atoms, subdomain rank %d/%d, generation %d",
		wire.Grid, len(wire.Species), s.id, s.nr, f.Step)
	return s, nil
}

func (s *RankServer) logln(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// build assembles the headless Runtime shell and this process's rank from
// the driver's configuration.
func (s *RankServer) build(wire *remoteWire) error {
	m, err := core.UnmarshalModel(wire.Model)
	if err != nil {
		return fmt.Errorf("rankd %d: decode model: %w", s.id, err)
	}
	n := len(wire.Species)
	sys := atoms.NewSystem(n)
	copy(sys.Species, wire.Species)
	sys.Cell = wire.Cell
	sys.PBC = true

	halo := wire.Halo
	if halo == 0 {
		halo = m.Cuts.Max()
	}
	opts := RuntimeOptions{
		Grid: wire.Grid, Skin: wire.Skin, Halo: halo,
		WorkersPerRank: wire.Workers,
	}
	if err := validateRuntime(sys, opts); err != nil {
		return fmt.Errorf("rankd %d: %w", s.id, err)
	}
	nr := wire.Grid[0] * wire.Grid[1] * wire.Grid[2]
	if s.id < 0 || s.id >= nr {
		return fmt.Errorf("rankd %d: endpoint rank outside grid of %d ranks", s.id, nr)
	}
	s.nr = nr

	rt := &Runtime{
		model: m, sys: sys, opts: opts, grid: wire.Grid,
		halo: halo, skin: wire.Skin,
		n:      n,
		pw:     make([][3]float64, n),
		refPos: make([][3]float64, n),
		owner:  make([]int32, n),

		pairCnt:   make([]int32, n),
		pairStart: make([]int32, n+1),
		adjPtr:    make([]int32, n+1),

		forces:   make([][3]float64, n),
		ranks:    make([]*rank, nr),
		deadRank: make([]atomic.Bool, nr),
	}
	for k := 0; k < 3; k++ {
		rt.sub[k] = sys.Cell[k] / float64(wire.Grid[k])
	}
	wpr := wire.Workers
	if wpr <= 0 {
		wpr = 1
	}
	g := wire.Grid
	cz := s.id % g[2]
	cy := (s.id / g[2]) % g[1]
	cx := s.id / (g[1] * g[2])
	rk := &rank{rt: rt, id: s.id, scratch: core.NewEvalScratch(), local: atoms.NewSystem(0)}
	coord := [3]int{cx, cy, cz}
	for k := 0; k < 3; k++ {
		rk.lo[k] = float64(coord[k]) * rt.sub[k]
		rk.hi[k] = rk.lo[k] + rt.sub[k]
	}
	rk.builder.Workers = wpr
	rk.builder.Skin = wire.Skin
	rk.scratch.Workers = wpr
	rk.ep = s.ep
	rk.seen = make([]bool, nr)
	rk.planBits = make([]uint8, nr)
	rk.fwdNeed = make([][]int32, nr)
	rk.fwdArena = make([][]int32, nr)
	rk.sendFwd = make([][]int32, nr)
	rk.rowSendT = make([][]int32, nr)
	rk.rowPlan = make([][]int32, nr)
	rk.rowRecv = make([][]int32, nr)
	rk.repl = newReplStore()
	rt.ranks[s.id] = rk
	s.rt, s.rk = rt, rk
	return nil
}

// Serve runs the rank's frame loop until a shutdown frame or a failure.
// Peer and driver frames racing ahead of the current phase are parked in
// the rank's stash by the phase receive loops and consumed here in order.
// A peer's death is survivable: the interrupted phase is NACKed to the
// driver (KindAbort) and the rank waits for the recovery epoch.
func (s *RankServer) Serve() error {
	rk := s.rk
	for {
		if err := s.recvServe(); err != nil {
			return fmt.Errorf("rankd %d: %w", s.id, err)
		}
		f := &rk.recvF
		switch f.Kind {
		case transport.KindRebuild:
			if err := s.settle(s.handleRebuild(f)); err != nil {
				return err
			}
		case transport.KindOwnedPos:
			if err := s.settle(s.handleStep(f)); err != nil {
				return err
			}
		case transport.KindShutdown:
			s.logln("shutdown at step %d", s.rt.stepTick)
			return nil
		case transport.KindDeath:
			if int(f.Src) == s.nr {
				return fmt.Errorf("rankd %d: driver died", s.id)
			}
			rk.noteDeath(int(f.Src))
			s.logln("peer %d died; awaiting recovery epoch", int(f.Src))
		case transport.KindRecover:
			if err := s.handleRecover(f); err != nil {
				return err
			}
		case transport.KindReplica:
			s.handleReplica(f)
		case transport.KindReplicaReq:
			if err := s.handleReplicaReq(f); err != nil {
				return err
			}
		default:
			// A fast peer already serving the next step can land its ghost
			// frame here, before this rank's owned positions arrive (links
			// are FIFO, but only per peer) — park it for the coming phase.
			// Hellos, duplicate configs, and stale control frames drop.
			rk.stashData()
		}
	}
}

// settle converts a phase handler's outcome into serve-loop control flow:
// nil and abandoned phases continue serving; an abortError is NACKed to the
// driver at the phase tick and the rank keeps serving; anything else is
// fatal for the rank process.
func (s *RankServer) settle(err error) error {
	if err == nil || errors.Is(err, errAbandoned) {
		return nil
	}
	var ab *abortError
	if !errors.As(err, &ab) {
		return err
	}
	rk := s.rk
	rk.commErr = nil
	out := &s.sendF
	out.Reset(transport.KindAbort, s.nr, ab.tick)
	out.EnsureInts(1)[0] = int32(ab.dead)
	if serr := s.ep.Send(out); serr != nil {
		return fmt.Errorf("rankd %d: send abort: %w", s.id, serr)
	}
	s.logln("aborted phase %d (dead peer %d); awaiting recovery", ab.tick, ab.dead)
	return nil
}

// settlePhaseComm classifies a latched phase comm error: a recovery-epoch
// interrupt abandons the phase (the epoch frame is already parked in the
// stash), a peer death aborts it at the given tick. Either way the plans
// must not serve another step until the post-recovery rebuild.
func (s *RankServer) settlePhaseComm(tick uint64) error {
	rk := s.rk
	err := rk.commErr
	rk.commErr = nil
	s.rt.started = false
	if errors.Is(err, errRecoverInterrupt) {
		return errAbandoned
	}
	return &abortError{tick: tick, dead: s.firstDead()}
}

// firstDead reports the lowest currently-marked dead rank, or -1.
func (s *RankServer) firstDead() int {
	for r := range s.rt.deadRank {
		if s.rt.deadRank[r].Load() {
			return r
		}
	}
	return -1
}

// recvServe fills rk.recvF with the next frame the serve loop dispatches
// on, draining the phase stash (in arrival order) before the endpoint.
func (s *RankServer) recvServe() error {
	rk := s.rk
	for i, f := range rk.stash {
		switch f.Kind {
		case transport.KindRebuild, transport.KindOwnedPos, transport.KindShutdown,
			transport.KindDeath, transport.KindRecover, transport.KindReplica,
			transport.KindReplicaReq:
			transport.CopyFrame(&rk.recvF, f)
			rk.stash = append(rk.stash[:i], rk.stash[i+1:]...)
			return nil
		}
	}
	return s.ep.Recv(&rk.recvF)
}

// handleRecover opens a new fleet generation on this rank: the old epoch's
// failure state (dead-rank marks, latched comm error, stale phase frames)
// is discarded, parked replica shards are kept, and the epoch frame is
// acknowledged back to the driver at its generation tick. The rebuild flag
// is dropped so a stray position frame from the old epoch can never be
// served against recovery-invalidated plans.
func (s *RankServer) handleRecover(f *transport.Frame) error {
	rt, rk := s.rt, s.rk
	gen := f.Step
	for r := range rt.deadRank {
		rt.deadRank[r].Store(false)
	}
	rk.commErr = nil
	rt.started = false
	kept := 0
	for _, pf := range rk.stash {
		if pf.Kind == transport.KindReplica {
			s.storeReplica(pf)
			kept++
		}
	}
	rk.stash = rk.stash[:0]
	ack := &s.sendF
	ack.Reset(transport.KindRecover, s.nr, gen)
	if err := s.ep.Send(ack); err != nil {
		return fmt.Errorf("rankd %d: recover ack: %w", s.id, err)
	}
	s.logln("recovery epoch %d opened (%d parked replica shards kept)", gen, kept)
	return nil
}

// handleReplica stores a replication shard. Frames from the driver carry
// this rank's own shard (owner = self) and are forwarded to the buddy rank,
// completing the redundancy-2 contract; frames from a peer carry that
// peer's shard.
func (s *RankServer) handleReplica(f *transport.Frame) {
	rt, rk := s.rt, s.rk
	if !s.storeReplica(f) {
		s.logln("dropping malformed replica frame from %d", int(f.Src))
		return
	}
	if int(f.Src) != s.nr || s.nr == 1 {
		return
	}
	buddy := buddyOf(s.id, s.nr)
	if rt.deadRank[buddy].Load() {
		return
	}
	n := len(f.Ints)
	out := &s.sendF
	packReplica(out, buddy, f.Step, f.Ints, f.Vecs[:n], f.Vecs[n:])
	if err := s.ep.Send(out); err != nil {
		rk.handleSendErr(buddy, err)
		rk.commErr = nil // a dead buddy is survivable; the mark is enough
	}
}

// storeReplica puts a KindReplica frame's shard into the local store,
// resolving the owner: driver-sent frames carry this rank's own shard.
func (s *RankServer) storeReplica(f *transport.Frame) bool {
	owner := int(f.Src)
	if owner == s.nr {
		owner = s.id
	}
	if owner < 0 || owner >= s.nr {
		return false
	}
	return s.rk.repl.unpackReplica(f, int32(owner))
}

// handleReplicaReq replies to the driver's state-recovery probe with every
// shard this rank holds, echoing the request tick.
func (s *RankServer) handleReplicaReq(f *transport.Frame) error {
	out := &s.sendF
	packReplicaRep(out, s.nr, f.Step, s.rk.repl.shards())
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("rankd %d: send replica shards: %w", s.id, err)
	}
	return nil
}

// handleRebuild runs this rank's half of a rebuild: import the broadcast
// ownership and positions, rebuild membership/lists, return the per-center
// pair counts, wait for the slot layout, then assign slots, swap exchange
// plans with the peers, and derive the local reduction adjacency.
func (s *RankServer) handleRebuild(f *transport.Frame) error {
	rt, rk := s.rt, s.rk
	if len(f.Ints) != rt.n || len(f.Vecs) != rt.n {
		return fmt.Errorf("rankd %d: rebuild frame carries %d owners / %d positions, system has %d atoms",
			s.id, len(f.Ints), len(f.Vecs), rt.n)
	}
	rt.rebuildTick = f.Step
	copy(rt.owner, f.Ints)
	copy(rt.pw, f.Vecs)
	for i := range rt.pairCnt {
		rt.pairCnt[i] = 0
	}
	rk.execRebuild()
	s.nOwned = rk.nOwned
	s.reduceAll = s.reduceAll[:0]
	for t := 0; t < rk.nOwned; t++ {
		s.reduceAll = append(s.reduceAll, int32(t))
	}

	// Per-center counts back to the driver, owned-ascending (gOf order).
	out := &s.sendF
	out.Reset(transport.KindCounts, s.nr, rt.rebuildTick)
	ints := out.EnsureInts(rk.nOwned)
	for t := 0; t < rk.nOwned; t++ {
		ints[t] = rt.pairCnt[rk.gOf[t]]
	}
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("rankd %d: send counts: %w", s.id, err)
	}

	// The global slot layout comes back once the driver has every rank's
	// counts; peer plan frames racing ahead park in the stash.
	for {
		if err := rk.recvExpect(transport.KindLayout, transport.KindInvalid); err != nil {
			return fmt.Errorf("rankd %d: waiting for layout: %w", s.id, err)
		}
		g := &rk.recvF
		if g.Kind == transport.KindLayout && g.Step == rt.rebuildTick {
			break
		}
		if g.Kind == transport.KindDeath {
			if int(g.Src) == s.nr {
				return fmt.Errorf("rankd %d: driver died during rebuild", s.id)
			}
			rk.noteDeath(int(g.Src))
			continue // the plan swap below will observe the death
		}
		if g.Kind == transport.KindRecover {
			// The driver gave up on this rebuild and opened a recovery
			// epoch: abandon the phase and let the serve loop process the
			// parked epoch frame.
			rk.stashData()
			rk.commErr = nil
			rt.started = false
			return errAbandoned
		}
		rk.stashData()
	}
	if len(rk.recvF.Ints) != rt.n+1 {
		return fmt.Errorf("rankd %d: layout frame carries %d offsets, want %d", s.id, len(rk.recvF.Ints), rt.n+1)
	}
	copy(rt.pairStart, rk.recvF.Ints)
	rt.nPairs = int(rt.pairStart[rt.n])
	if cap(rt.pairGI) < rt.nPairs {
		rt.pairGI = make([]int32, rt.nPairs)
		rt.pairGJ = make([]int32, rt.nPairs)
		rt.rows = make([][3]float64, rt.nPairs)
		rt.pairE = make([]float64, rt.nPairs)
		rt.interiorSlot = make([]bool, rt.nPairs)
	}
	rt.pairGI = rt.pairGI[:rt.nPairs]
	rt.pairGJ = rt.pairGJ[:rt.nPairs]
	rt.rows = rt.rows[:rt.nPairs]
	rt.pairE = rt.pairE[:rt.nPairs]
	rt.interiorSlot = rt.interiorSlot[:rt.nPairs]

	rk.execSlots()
	rk.execPlanExchange()
	if rk.commErr != nil {
		return s.settlePhaseComm(rt.rebuildTick)
	}
	s.buildLocalAdjacency()
	rt.started = true
	s.logln("rebuild %d: %d owned, %d ghosts, %d pairs", rt.rebuildTick, rk.nOwned, rk.nGhosts, rk.pairs.Len())
	return nil
}

// buildLocalAdjacency derives, for every atom this rank owns, the signed
// slot references contributing to its force, in ascending slot order —
// exactly the sub-ranges of the master's global adjacency that execReduce
// reads here. Center references come from this rank's own pairs (centers
// are owned); neighbor references come from own pairs whose neighbor this
// rank owns (directly or as a self-ghost image) plus the row plans peers
// registered at the plan swap (their pairs whose ghost neighbor lives
// here). Every global slot contributes exactly one center and one neighbor
// reference somewhere, so the union is the master's list; sorting by
// (atom, slot, side) reproduces the master's per-atom order (ascending
// slot, center half before neighbor half).
func (s *RankServer) buildLocalAdjacency() {
	rt, rk := s.rt, s.rk
	refs := make([]int64, 0, 2*rk.pairs.Len())
	pack := func(atom int32, ref int32) int64 { return int64(atom)<<32 | int64(ref) }
	p := &rk.pairs
	for t := 0; t < p.Len(); t++ {
		gi := rk.gOf[p.I[t]]
		refs = append(refs, pack(gi, rk.slotOf[t]<<1))
		gj := rk.gOf[p.J[t]]
		if rt.owner[gj] == int32(rk.id) {
			refs = append(refs, pack(gj, rk.slotOf[t]<<1|1))
		}
	}
	for src := 0; src < s.nr; src++ {
		plan := rk.rowRecv[src]
		for k := 0; k+1 < len(plan); k += 2 {
			refs = append(refs, pack(plan[k+1], plan[k]<<1|1))
		}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a] < refs[b] })

	if cap(rt.adj) < len(refs) {
		rt.adj = make([]int32, len(refs))
	}
	rt.adj = rt.adj[:len(refs)]
	for i := range rt.adjPtr {
		rt.adjPtr[i] = 0
	}
	for i, r := range refs {
		rt.adj[i] = int32(r & 0xFFFFFFFF)
		rt.adjPtr[int(r>>32)+1]++
	}
	for a := 0; a < rt.n; a++ {
		rt.adjPtr[a+1] += rt.adjPtr[a]
	}
}

// handleStep runs one force evaluation: import owned positions, exchange
// ghosts with the peers, evaluate both blocks, exchange reverse rows,
// reduce, and return forces plus slot-ordered pair energies to the driver.
func (s *RankServer) handleStep(f *transport.Frame) error {
	rt, rk := s.rt, s.rk
	if !rt.started {
		// No valid plans — a prior phase aborted or a recovery epoch
		// invalidated them. NACK so the driver latches at this tick.
		return &abortError{tick: f.Step, dead: s.firstDead()}
	}
	if len(f.Vecs) != s.nOwned {
		return fmt.Errorf("rankd %d: position frame carries %d atoms, rank owns %d", s.id, len(f.Vecs), s.nOwned)
	}
	rt.stepTick = f.Step
	for t, v := range f.Vecs {
		rt.pw[rk.gOf[t]] = v
	}
	rt.parity ^= 1
	rt.postTime = time.Now()
	rk.execExchangeGhosts()
	if errors.Is(rk.commErr, errRecoverInterrupt) {
		// The recovery epoch opened while this rank waited for ghosts: its
		// frame is parked for the serve loop, and the row exchange below
		// reads only row and death frames, so it would wait for rows no
		// peer will send while the driver waits for this rank's ack.
		return s.settlePhaseComm(rt.stepTick)
	}
	rk.evalIntNs = rk.timeEval(0, rk.nInterior, &rk.intView)
	rk.evalFrontNs = rk.timeEval(rk.nInterior, rk.pairs.Len(), &rk.frontView)
	rk.execExchangeRows()
	if rk.commErr != nil {
		return s.settlePhaseComm(rt.stepTick)
	}
	rk.execReduce(s.reduceAll)

	out := &s.sendF
	out.Reset(transport.KindForces, s.nr, rt.stepTick)
	vecs := out.EnsureVecs(s.nOwned)
	nSlots := 0
	for t := 0; t < s.nOwned; t++ {
		g := rk.gOf[t]
		vecs[t] = rt.forces[g]
		nSlots += int(rt.pairStart[g+1] - rt.pairStart[g])
	}
	sc := out.EnsureScalars(nSlots)
	k := 0
	for t := 0; t < s.nOwned; t++ {
		g := rk.gOf[t]
		for slot := rt.pairStart[g]; slot < rt.pairStart[g+1]; slot++ {
			sc[k] = rt.pairE[slot]
			k++
		}
	}
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("rankd %d: send forces: %w", s.id, err)
	}
	return nil
}

// Close releases the rank's pools. The endpoint is left to the caller.
func (s *RankServer) Close() {
	if s.rk != nil {
		s.rk.builder.Close()
		s.rk.scratch.Close()
	}
}
