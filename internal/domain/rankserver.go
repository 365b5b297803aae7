package domain

import (
	"encoding/json"
	"errors"
	"fmt"
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

// RankServer is the rank half of the remote protocol: one subdomain worker
// serving the driver's rebuild/step frames over a transport endpoint —
// hosted in its own OS process (cmd/allegro-rankd) or, inside Runtime, in
// a goroutine on a channel transport. Its step posts the forward ghost
// exchange, evaluates the interior block while the frames travel, then
// receives the ghosts, evaluates the frontier block, returns each remote
// ghost's exact force partial to its owner and rounds its owned atoms'
// forces once. The global arrays its phases read (positions, ownership)
// are populated from the driver's frames. Every derived quantity (wrap,
// ownership, per-center pair order) comes from the shared arithmetic and
// every sum is exact, so a trajectory is bit-identical on every host and
// transport.
type RankServer struct {
	id   int
	nr   int // grid ranks; the driver is transport rank nr
	ep   transport.Endpoint
	logf func(format string, args ...any)
	h    *host
	rk   *rank

	// repl holds this rank's replica shards: its own plus its buddy
	// predecessor's (see replica.go).
	repl *replStore

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

// build assembles the host state and this process's rank from the
// driver's configuration.
func (s *RankServer) build(wire *remoteWire) error {
	m, err := core.UnmarshalModel(wire.Model)
	if err != nil {
		return fmt.Errorf("rankd %d: decode model: %w", s.id, err)
	}
	n := len(wire.Species)
	halo := wire.Halo
	if halo == 0 {
		halo = m.Cuts.Max()
	}
	sys := &atoms.System{Cell: wire.Cell, PBC: true}
	opts := RuntimeOptions{Grid: wire.Grid, Skin: wire.Skin, Halo: halo}
	if err := validateRuntime(sys, opts); err != nil {
		return fmt.Errorf("rankd %d: %w", s.id, err)
	}
	nr := wire.Grid[0] * wire.Grid[1] * wire.Grid[2]
	if s.id < 0 || s.id >= nr {
		return fmt.Errorf("rankd %d: endpoint rank outside grid of %d ranks", s.id, nr)
	}
	s.nr = nr
	h := &host{
		model: m, species: wire.Species, cell: wire.Cell,
		halo: halo, skin: wire.Skin, nr: nr,
		n:        n,
		pw:       make([][3]float64, n),
		owner:    make([]int32, n),
		deadRank: make([]bool, nr),
	}
	var sub [3]float64
	for k := 0; k < 3; k++ {
		sub[k] = wire.Cell[k] / float64(wire.Grid[k])
	}
	s.h = h
	s.rk = newRank(h, s.id, s.ep, wire.Grid, sub, wire.Workers)
	s.repl = newReplStore()
	return nil
}

// Serve runs the rank's frame loop until a shutdown frame or a failure.
// Peer and driver frames racing ahead of the current phase are parked in
// the rank's stash by the phase receive loops and consumed here in order.
// A peer's death is survivable: the interrupted phase is NACKed to the
// driver (KindAbort) and the rank waits for the recovery epoch. Driver
// ticks only grow, so a rebuild or step frame at or below the last tick
// served is a duplicate or a stale delivery and is dropped.
func (s *RankServer) Serve() error {
	h, rk := s.h, s.rk
	for {
		if err := s.recvServe(); err != nil {
			return fmt.Errorf("rankd %d: %w", s.id, err)
		}
		f := &rk.recvF
		switch f.Kind {
		case transport.KindRebuild:
			if f.Step <= h.rebuildTick {
				continue
			}
			if err := s.settle(s.handleRebuild(f)); err != nil {
				return err
			}
		case transport.KindOwnedPos:
			if f.Step <= h.stepTick {
				continue
			}
			if err := s.settle(s.handleStep(f)); err != nil {
				return err
			}
		case transport.KindShutdown:
			if s.logf != nil { // boxing the tick would allocate in Runtime.Close
				s.logln("shutdown at step %d", h.stepTick)
			}
			// The driver closes the wire once every rank has acknowledged.
			// Best effort: a driver that is already gone needs no ack.
			ack := &s.sendF
			ack.Reset(transport.KindShutdown, s.nr, f.Step)
			_ = s.ep.Send(ack)
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
	s.h.started = false
	if errors.Is(err, errRecoverInterrupt) {
		return errAbandoned
	}
	return &abortError{tick: tick, dead: s.firstDead()}
}

// firstDead reports the lowest currently-marked dead rank, or -1.
func (s *RankServer) firstDead() int {
	for r, dead := range s.h.deadRank {
		if dead {
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
			rk.unstash(i)
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
	h, rk := s.h, s.rk
	gen := f.Step
	clear(h.deadRank)
	rk.commErr = nil
	h.started = false
	kept := 0
	for _, pf := range rk.stash {
		if pf.Kind == transport.KindReplica {
			s.storeReplica(pf)
			kept++
		}
	}
	rk.free = append(rk.free, rk.stash...)
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
	rk := s.rk
	if !s.storeReplica(f) {
		s.logln("dropping malformed replica frame from %d", int(f.Src))
		return
	}
	if int(f.Src) != s.nr || s.nr == 1 {
		return
	}
	buddy := buddyOf(s.id, s.nr)
	if s.h.deadRank[buddy] {
		return
	}
	n := len(f.Ints)
	out := &s.sendF
	packReplica(out, buddy, f.Step, f.Ints, f.Vecs[:n], f.Vecs[n:])
	if err := s.ep.Send(out); err != nil {
		rk.handleSendErr(err)
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
	return s.repl.unpackReplica(f, int32(owner))
}

// handleReplicaReq replies to the driver's state-recovery probe with every
// shard this rank holds, echoing the request tick.
func (s *RankServer) handleReplicaReq(f *transport.Frame) error {
	out := &s.sendF
	packReplicaRep(out, s.nr, f.Step, s.repl.shards())
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("rankd %d: send replica shards: %w", s.id, err)
	}
	return nil
}

// handleRebuild runs this rank's half of a rebuild: import the broadcast
// ownership and positions, rebuild membership/lists, return the workload
// counters, then swap exchange plans with the peers.
func (s *RankServer) handleRebuild(f *transport.Frame) error {
	h, rk := s.h, s.rk
	if len(f.Ints) != h.n || len(f.Vecs) != h.n {
		return fmt.Errorf("rankd %d: rebuild frame carries %d owners / %d positions, system has %d atoms",
			s.id, len(f.Ints), len(f.Vecs), h.n)
	}
	h.rebuildTick = f.Step
	copy(h.owner, f.Ints)
	copy(h.pw, f.Vecs)
	rk.execRebuild()

	out := &s.sendF
	out.Reset(transport.KindCounts, s.nr, h.rebuildTick)
	copy(out.EnsureInts(countsLen), []int32{int32(rk.nInterior), int32(rk.nGhosts), int32(rk.nRemoteGhosts), int32(rk.pairs.Len())})
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("rankd %d: send counts: %w", s.id, err)
	}

	rk.execPlanExchange()
	if rk.commErr != nil {
		return s.settlePhaseComm(h.rebuildTick)
	}
	rk.reservePark()
	h.started = true
	s.logln("rebuild %d: %d owned, %d ghosts, %d pairs", h.rebuildTick, rk.nOwned, rk.nGhosts, rk.pairs.Len())
	return nil
}

// countsLen is the length of a KindCounts frame: the rank's interior
// pairs, ghosts, ghosts owned by other ranks, and pairs. forcesTrailer is
// the number of phase timers (ns) a KindForces frame carries: the forward
// exchange's post-to-staged wall, the ghost wait, and the interior,
// frontier and reduce times.
const (
	countsLen     = 4
	forcesTrailer = 5
)

// handleStep runs one force evaluation: import owned positions, post the
// ghost exchange, evaluate the interior block while it travels, receive
// the ghosts, evaluate the frontier block, exchange ghost partials, fold
// and round, and return the owned forces, the energy partial and the phase
// timers to the driver.
func (s *RankServer) handleStep(f *transport.Frame) error {
	h, rk := s.h, s.rk
	h.stepTick = f.Step
	if !h.started {
		// No valid plans — a prior phase aborted or a recovery epoch
		// invalidated them. NACK so the driver latches at this tick.
		return &abortError{tick: f.Step, dead: s.firstDead()}
	}
	if len(f.Vecs) != rk.nOwned {
		return fmt.Errorf("rankd %d: position frame carries %d atoms, rank owns %d", s.id, len(f.Vecs), rk.nOwned)
	}
	for t, v := range f.Vecs {
		h.pw[rk.gOf[t]] = v
	}
	h.parity ^= 1
	rk.sum.Reset(len(rk.gOf))
	post := time.Now()
	rk.postGhosts()
	interiorNs := rk.evalBlock(0, rk.nInterior, &rk.intView)
	wait := time.Now()
	rk.waitGhosts()
	waitNs := time.Since(wait).Nanoseconds()
	commNs := time.Since(post).Nanoseconds()
	if errors.Is(rk.commErr, errRecoverInterrupt) {
		// The recovery epoch opened while this rank waited for ghosts: its
		// frame is parked for the serve loop, and the reverse exchange
		// below reads only partial and death frames, so it would wait for
		// partials no peer will send while the driver waits for this
		// rank's ack.
		return s.settlePhaseComm(h.stepTick)
	}
	frontierNs := rk.evalBlock(rk.nInterior, rk.pairs.Len(), &rk.frontView)
	rk.execReverse()
	if rk.commErr != nil {
		return s.settlePhaseComm(h.stepTick)
	}
	reduce := time.Now()
	rk.foldSelf()
	rk.sum.AddShifts(h.model, rk.local.Species[:rk.nOwned])
	out := &s.sendF
	out.Reset(transport.KindForces, s.nr, h.stepTick)
	rk.sum.RoundForces(out.EnsureVecs(rk.nOwned))
	rk.sum.Energy.PutWords(out.EnsureInts(core.ExactSumWords))
	reduceNs := time.Since(reduce).Nanoseconds()
	copy(out.EnsureScalars(forcesTrailer), []float64{float64(commNs), float64(waitNs), float64(interiorNs), float64(frontierNs), float64(reduceNs)})
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
