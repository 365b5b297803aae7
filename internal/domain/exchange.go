package domain

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// errRecoverInterrupt marks a phase cut short because a KindRecover epoch
// frame arrived mid-phase: the driver has declared a new generation, so
// waiting for the current phase's remaining frames (possibly from a corpse
// the transport never got to declare dead) would hang forever. The rank
// server treats it as a recoverable abort, not a fatal error.
var errRecoverInterrupt = errors.New("domain: phase interrupted by recovery epoch")

// This file is the runtime's attachment to the pluggable transport: the
// rebuild-time exchange-plan swap and the two per-step framed exchanges
// (forward ghost positions, reverse force rows) the comm goroutines serve.
//
// Plans make per-step payloads self-describing by position instead of by
// metadata: at every rebuild, rank d sends rank s the global atom ids it
// needs forwarded — in d's ghost-arena order (KindFwdPlan) — and rank s
// sends rank d the canonical pair slots it will push rows for — in s's
// ascending local pair order (KindRowPlan). A step then moves pure payload:
// s packs positions in exactly the order d asked for, d scatters payload k
// to its k-th planned arena slot; likewise for rows into canonical global
// slots. One frame per link per phase, staged through reusable Frame
// buffers, so the steady state allocates nothing on the chan transport.
//
// Failure: a comm goroutine that observes a KindDeath notice (or a
// DeadError from Send/Recv) marks the peer in deadRank, forfeits the
// pending expectation so no phase ever hangs, and latches commErr; the
// master surfaces the first failure through Runtime.Err after the step's
// barriers. Recovery is Runtime.Restore — revive the transport ranks and
// force a rebuild — plus rewinding the integrator to a checkpoint; results
// are bit-identical to the uninterrupted run because trajectories are
// independent of the rebuild schedule.

// Err returns the first rank failure observed by a comm goroutine, or nil.
// Once non-nil, steps short-circuit (forces and energy go stale) until
// Restore clears the failure.
func (r *Runtime) Err() error { return r.err }

// checkFailure latches the first per-rank transport error into r.err. It
// runs on the master after phase barriers, so the rank fields are settled.
func (r *Runtime) checkFailure() {
	if r.err != nil {
		return
	}
	for _, rk := range r.ranks {
		if rk.commErr != nil {
			r.err = rk.commErr
			return
		}
	}
}

// Restore recovers the runtime after a rank failure: dead ranks are revived
// on the transport (which must implement transport.Reviver), the latched
// errors are cleared, and the next step is forced to rebuild — re-deriving
// membership, neighbor lists, and exchange plans from current positions.
// Rebuilds do not perturb trajectories (skin-shell pairs contribute exactly
// zero), so a Restore followed by resuming the integrator from a checkpoint
// reproduces the uninterrupted run bit for bit.
//
// Call Restore before rewinding the integrator state: the restore path
// itself performs no evaluation, but the next force call must find a clean
// transport.
func (r *Runtime) Restore() error {
	var rv transport.Reviver
	for i := range r.deadRank {
		if !r.deadRank[i].Load() {
			continue
		}
		if rv == nil {
			var ok bool
			if rv, ok = r.tr.(transport.Reviver); !ok {
				return fmt.Errorf("domain: transport %T cannot revive dead rank %d", r.tr, i)
			}
		}
		if err := rv.Revive(i); err != nil {
			return fmt.Errorf("domain: revive rank %d: %w", i, err)
		}
		// The dead rank's in-memory replica store died with it: reset it so
		// the revived incarnation starts empty, like a fresh process would.
		// Survivors keep the shards they hold for the dead rank — that is
		// the redundancy recovery reads.
		r.ranks[i].repl.reset()
		r.deadRank[i].Store(false)
	}
	for _, rk := range r.ranks {
		rk.commErr = nil
	}
	r.err = nil
	r.started = false // force a rebuild: lists and exchange plans re-derive
	return nil
}

// LinkStats returns the transport's measured per-link statistics (empty for
// transports that measure nothing, like the in-process channels). These are
// the numbers perfmodel.CalibrateMachineTransport feeds into the cluster
// model so allegro-scale predicts multi-node step time from real links.
func (r *Runtime) LinkStats() []transport.LinkStats {
	if sr, ok := r.tr.(transport.StatsReporter); ok {
		return sr.LinkStats()
	}
	return nil
}

// noteErr latches this rank's first transport failure.
func (rk *rank) noteErr(err error) {
	if rk.commErr == nil && err != nil {
		rk.commErr = err
	}
}

// noteDeath records a death notice: the rank is marked globally dead and
// the failure latched (a dead peer makes this run unrecoverable without
// Restore, even when the victim is not this rank).
func (rk *rank) noteDeath(dead int) {
	rt := rk.rt
	if dead >= 0 && dead < len(rt.deadRank) {
		rt.deadRank[dead].Store(true)
	}
	rk.noteErr(&transport.DeadError{Rank: dead})
}

// derivePlans recomputes the rank's local halves of the exchange plans from
// the freshly built ghost list and canonical pair slots (rebuild only).
func (rk *rank) derivePlans() {
	rt := rk.rt
	nr := len(rt.ranks)
	rk.selfGhostIdx = rk.selfGhostIdx[:0]
	rk.selfGhostAtom = rk.selfGhostAtom[:0]
	for d := 0; d < nr; d++ {
		rk.fwdNeed[d] = rk.fwdNeed[d][:0]
		rk.fwdArena[d] = rk.fwdArena[d][:0]
		rk.rowSendT[d] = rk.rowSendT[d][:0]
		rk.rowPlan[d] = rk.rowPlan[d][:0]
	}
	// Forward plan: every ghost is either a self-owned periodic image
	// (staged locally) or an import from its owning rank, in arena order.
	for t := rk.nOwned; t < len(rk.gOf); t++ {
		g := rk.gOf[t]
		o := int(rt.owner[g])
		idx := int32(t - rk.nOwned)
		if o == rk.id {
			rk.selfGhostIdx = append(rk.selfGhostIdx, idx)
			rk.selfGhostAtom = append(rk.selfGhostAtom, g)
		} else {
			rk.fwdNeed[o] = append(rk.fwdNeed[o], g)
			rk.fwdArena[o] = append(rk.fwdArena[o], idx)
		}
	}
	// Row plan: pairs whose ghost neighbor is owned elsewhere push their
	// row to the owner, in ascending local pair order (which the receiver
	// replays positionally). Interior pairs never reference ghosts, but
	// scanning the whole list keeps this independent of the partition.
	p := &rk.pairs
	for t := 0; t < p.Len(); t++ {
		j := p.J[t]
		if j < rk.nOwned {
			continue
		}
		g := rk.gOf[j]
		o := int(rt.owner[g])
		if o == rk.id {
			continue
		}
		rk.rowSendT[o] = append(rk.rowSendT[o], int32(t))
		rk.rowPlan[o] = append(rk.rowPlan[o], rk.slotOf[t], g)
	}
}

// execPlanExchange derives this rank's plan halves and swaps them with
// every peer: one KindFwdPlan and one KindRowPlan per link, both tagged
// with the rebuild tick. Plans are exchanged even when empty so every rank
// expects exactly two frames per live peer.
func (rk *rank) execPlanExchange() {
	rt := rk.rt
	rk.derivePlans()
	nr := len(rt.ranks)
	if nr == 1 {
		return
	}
	tick := rt.rebuildTick
	f := &rk.sendF
	for d := 0; d < nr; d++ {
		if d == rk.id || rt.deadRank[d].Load() {
			continue
		}
		f.Reset(transport.KindFwdPlan, d, tick)
		copy(f.EnsureInts(len(rk.fwdNeed[d])), rk.fwdNeed[d])
		if err := rk.ep.Send(f); err != nil {
			rk.handleSendErr(d, err)
			continue
		}
		f.Reset(transport.KindRowPlan, d, tick)
		copy(f.EnsureInts(len(rk.rowPlan[d])), rk.rowPlan[d])
		if err := rk.ep.Send(f); err != nil {
			rk.handleSendErr(d, err)
		}
	}
	// Expect a FwdPlan and a RowPlan from every live peer. seen encodes
	// two bits per peer via two passes of the shared scratch: run the
	// receive loop over a combined count with per-kind bookkeeping.
	pending := 0
	for s := 0; s < nr; s++ {
		alive := s != rk.id && !rt.deadRank[s].Load()
		rk.seen[s] = !alive // seen == true means "nothing more expected"
		rk.planBits[s] = 0
		if alive {
			pending += 2
			rk.sendFwd[s] = rk.sendFwd[s][:0]
			rk.rowRecv[s] = rk.rowRecv[s][:0]
		}
	}
	for pending > 0 {
		if err := rk.recvExpect(transport.KindFwdPlan, transport.KindRowPlan); err != nil {
			rk.noteErr(err)
			return
		}
		g := &rk.recvF
		s := int(g.Src)
		switch g.Kind {
		case transport.KindFwdPlan:
			if g.Step != tick || s < 0 || s >= nr || rk.seen[s] || rk.planGot(s, 0) {
				continue
			}
			rk.sendFwd[s] = append(rk.sendFwd[s][:0], g.Ints...)
			rk.planMark(s, 0)
			pending--
		case transport.KindRowPlan:
			if g.Step != tick || s < 0 || s >= nr || rk.seen[s] || rk.planGot(s, 1) {
				continue
			}
			rk.rowRecv[s] = append(rk.rowRecv[s][:0], g.Ints...)
			rk.planMark(s, 1)
			pending--
		case transport.KindDeath:
			pending -= rk.forfeit(s)
			if rk.commErr != nil && s == rk.id {
				return // our own endpoint is dead; nothing more will arrive
			}
		case transport.KindRecover:
			rk.stashData() // park the epoch frame for the serve loop
			rk.noteErr(errRecoverInterrupt)
			return
		default:
			rk.stashData() // a fast peer's ghost frame; control noise drops
		}
	}
}

// planGot/planMark/forfeit track which plan kinds have arrived per peer
// during execPlanExchange, using a small bitmask scratch.
func (rk *rank) planGot(s, kind int) bool { return rk.planBits[s]&(1<<kind) != 0 }
func (rk *rank) planMark(s, kind int) {
	rk.planBits[s] |= 1 << kind
	if rk.planBits[s] == 3 {
		rk.seen[s] = true
	}
}

// forfeit marks a peer dead mid-phase and returns how many of its expected
// frames were still outstanding (so the receive loop's pending count stays
// exact and the phase cannot hang on a corpse).
func (rk *rank) forfeit(s int) int {
	rk.noteDeath(s)
	nr := len(rk.rt.ranks)
	if s < 0 || s >= nr || rk.seen[s] {
		return 0
	}
	rk.seen[s] = true
	out := 2
	if rk.planGot(s, 0) {
		out--
	}
	if rk.planGot(s, 1) {
		out--
	}
	return out
}

// execExchangeGhosts is the forward exchange (cmdPack): stage self-owned
// periodic images directly, push each peer the positions it planned for as
// one KindGhostPos frame, and scatter arriving frames into the current half
// of the double-buffered arena. packNs records the post-to-staged wall,
// which the overlap pipeline hides behind the interior block.
func (rk *rank) execExchangeGhosts() {
	rt := rk.rt
	buf := rk.ghost[rt.parity]
	for k, idx := range rk.selfGhostIdx {
		buf[idx] = rt.pw[rk.selfGhostAtom[k]]
	}
	nr := len(rt.ranks)
	if nr > 1 {
		tick := rt.stepTick
		f := &rk.sendF
		for d := 0; d < nr; d++ {
			if d == rk.id || len(rk.sendFwd[d]) == 0 {
				continue
			}
			if rt.deadRank[d].Load() {
				rk.noteDeath(d)
				continue
			}
			f.Reset(transport.KindGhostPos, d, tick)
			vecs := f.EnsureVecs(len(rk.sendFwd[d]))
			for k, g := range rk.sendFwd[d] {
				vecs[k] = rt.pw[g]
			}
			if err := rk.ep.Send(f); err != nil {
				rk.handleSendErr(d, err)
			}
		}
		pending := 0
		for s := 0; s < nr; s++ {
			expect := s != rk.id && len(rk.fwdNeed[s]) > 0 && !rt.deadRank[s].Load()
			rk.seen[s] = !expect
			if expect {
				pending++
			}
		}
		for pending > 0 {
			if err := rk.recvExpect(transport.KindGhostPos, transport.KindInvalid); err != nil {
				rk.noteErr(err)
				break
			}
			g := &rk.recvF
			s := int(g.Src)
			switch g.Kind {
			case transport.KindGhostPos:
				if g.Step != tick || s < 0 || s >= nr || rk.seen[s] {
					continue // stale step or fault-injected duplicate
				}
				idxs := rk.fwdArena[s]
				if len(g.Vecs) != len(idxs) {
					rk.noteErr(fmt.Errorf("domain: rank %d: ghost frame from %d carries %d positions, plan expects %d",
						rk.id, s, len(g.Vecs), len(idxs)))
					continue
				}
				for k, idx := range idxs {
					buf[idx] = g.Vecs[k]
				}
				rk.seen[s] = true
				pending--
			case transport.KindDeath:
				rk.noteDeath(s)
				if s >= 0 && s < nr && !rk.seen[s] {
					rk.seen[s] = true
					pending--
				}
				if s == rk.id {
					pending = 0 // our own endpoint died; drain no further
				}
			case transport.KindRecover:
				// The epoch supersedes a peer death latched earlier in this
				// phase (noteErr keeps only the first error): the caller
				// must see the interrupt, or it walks into the row exchange
				// with the epoch frame parked where that phase never looks.
				rk.stashData()
				rk.commErr = errRecoverInterrupt
				pending = 0
			default:
				rk.stashData()
			}
		}
	}
	rk.packNs = time.Since(rt.postTime).Nanoseconds()
}

// execExchangeRows is the reverse exchange (cmdExchangeRows): push every
// peer the force rows of pairs whose ghost neighbor it owns — ascending
// local pair order, exactly the KindRowPlan it holds — and scatter arriving
// rows into their canonical global slots. In-process receivers overwrite
// the slots with bitwise-identical values the sender's eval already wrote;
// across processes the received copy is the only source. Either way the
// frontier reduction reads settled slots.
func (rk *rank) execExchangeRows() {
	rt := rk.rt
	nr := len(rt.ranks)
	if nr == 1 {
		return
	}
	tick := rt.stepTick
	f := &rk.sendF
	for d := 0; d < nr; d++ {
		if d == rk.id || len(rk.rowSendT[d]) == 0 {
			continue
		}
		if rt.deadRank[d].Load() {
			rk.noteDeath(d)
			continue
		}
		f.Reset(transport.KindRows, d, tick)
		vecs := f.EnsureVecs(len(rk.rowSendT[d]))
		for k, t := range rk.rowSendT[d] {
			vecs[k] = rk.rowsBuf[t]
		}
		if err := rk.ep.Send(f); err != nil {
			rk.handleSendErr(d, err)
		}
	}
	pending := 0
	for s := 0; s < nr; s++ {
		expect := s != rk.id && len(rk.rowRecv[s]) > 0 && !rt.deadRank[s].Load()
		rk.seen[s] = !expect
		if expect {
			pending++
		}
	}
	for pending > 0 {
		if err := rk.recvExpect(transport.KindRows, transport.KindInvalid); err != nil {
			rk.noteErr(err)
			return
		}
		g := &rk.recvF
		s := int(g.Src)
		switch g.Kind {
		case transport.KindRows:
			if g.Step != tick || s < 0 || s >= nr || rk.seen[s] {
				continue
			}
			plan := rk.rowRecv[s]
			if 2*len(g.Vecs) != len(plan) {
				rk.noteErr(fmt.Errorf("domain: rank %d: row frame from %d carries %d rows, plan expects %d",
					rk.id, s, len(g.Vecs), len(plan)/2))
				continue
			}
			for k, v := range g.Vecs {
				rt.rows[plan[2*k]] = v
			}
			rk.seen[s] = true
			pending--
		case transport.KindDeath:
			rk.noteDeath(s)
			if s >= 0 && s < nr && !rk.seen[s] {
				rk.seen[s] = true
				pending--
			}
			if s == rk.id {
				return
			}
		case transport.KindRecover:
			rk.stashData()
			rk.noteErr(errRecoverInterrupt)
			return
		default:
			rk.stashData()
		}
	}
}

// handleSendErr classifies a Send failure: a DeadError marks the peer (or
// this rank itself) dead so subsequent phases skip it; anything else is
// latched as-is.
func (rk *rank) handleSendErr(dst int, err error) {
	if rank, ok := transport.IsDead(err); ok {
		rk.noteDeath(rank)
		return
	}
	_ = dst
	rk.noteErr(err)
}

// recvExpect fills rk.recvF with the next frame a phase consuming kinds a/b
// can act on: parked frames of those kinds (or death notices) first, in
// arrival order, then the endpoint. In-process the stash is always empty
// and this is exactly ep.Recv.
func (rk *rank) recvExpect(a, b transport.Kind) error {
	for i, f := range rk.stash {
		if f.Kind == a || f.Kind == b || f.Kind == transport.KindDeath {
			transport.CopyFrame(&rk.recvF, f)
			rk.stash = append(rk.stash[:i], rk.stash[i+1:]...)
			return nil
		}
	}
	return rk.ep.Recv(&rk.recvF)
}

// stashData parks rk.recvF for a later phase if it is a cross-phase data
// frame: a fast remote peer racing ahead (plans, ghosts, rows) or — on a
// rank process, whose serve loop has no global barrier against the driver —
// a driver frame pipelined behind the one being processed (owned positions
// sent right after a rebuild's layout broadcast). Control and unknown
// frames are dropped.
func (rk *rank) stashData() {
	switch rk.recvF.Kind {
	case transport.KindFwdPlan, transport.KindRowPlan, transport.KindGhostPos, transport.KindRows,
		transport.KindRebuild, transport.KindLayout, transport.KindOwnedPos, transport.KindShutdown,
		transport.KindReplica, transport.KindReplicaReq, transport.KindRecover:
		cp := new(transport.Frame)
		transport.CopyFrame(cp, &rk.recvF)
		rk.stash = append(rk.stash, cp)
	}
}
