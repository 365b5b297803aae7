package domain

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/transport"
)

// errRecoverInterrupt marks a phase cut short because a KindRecover epoch
// frame arrived mid-phase: the driver has declared a new generation, so
// waiting for the current phase's remaining frames (possibly from a corpse
// the transport never got to declare dead) would hang forever. The rank
// server treats it as a recoverable abort, not a fatal error.
var errRecoverInterrupt = errors.New("domain: phase interrupted by recovery epoch")

// This file is a rank's attachment to the pluggable transport: the
// rebuild-time exchange-plan swap and the two per-step framed exchanges
// (forward ghost positions, reverse ghost force partials).
//
// The plan makes per-step payloads self-describing by position instead of
// by metadata: at every rebuild, rank d sends rank s the global atom ids it
// needs forwarded, in d's ghost-arena order (KindFwdPlan). A step then
// moves pure payload: s packs positions in exactly the order d asked for,
// d scatters payload k to its k-th planned arena slot. The reverse exchange
// runs the same plan transposed, as LAMMPS reverse communication does: d
// sends s one exact force partial per planned arena slot, in the same
// order, and s merges payload k into the owned atom it packed k-th. One
// frame per link per phase, staged through reusable Frame buffers, so the
// steady state allocates nothing on the chan transport.
//
// Failure: a phase that observes a KindDeath notice (or a DeadError from
// Send/Recv) marks the peer in deadRank, forfeits the pending expectation
// so no phase ever hangs, and latches commErr; the rank server NACKs the
// driver, which runs elastic recovery (recover.go). On the in-process
// channel transport ranks cannot die, and Runtime panics on a latched
// error.

// noteErr latches this rank's first transport failure.
func (rk *rank) noteErr(err error) {
	if rk.commErr == nil && err != nil {
		rk.commErr = err
	}
}

// noteDeath records a death notice: the rank is marked dead and the
// failure latched (a dead peer aborts the phase, even when the victim is
// not this rank).
func (rk *rank) noteDeath(dead int) {
	h := rk.h
	if dead >= 0 && dead < h.nr {
		h.deadRank[dead] = true
	}
	rk.noteErr(&transport.DeadError{Rank: dead})
}

// derivePlans recomputes the rank's local half of the exchange plan from
// the freshly built ghost list (rebuild only): every ghost is either a
// self-owned periodic image (staged and folded locally) or an import from
// its owning rank, in arena order.
func (rk *rank) derivePlans() {
	h := rk.h
	rk.selfGhostIdx = rk.selfGhostIdx[:0]
	rk.selfGhostOwn = rk.selfGhostOwn[:0]
	for d := 0; d < h.nr; d++ {
		rk.fwdNeed[d] = rk.fwdNeed[d][:0]
		rk.fwdArena[d] = rk.fwdArena[d][:0]
	}
	for t := rk.nOwned; t < len(rk.gOf); t++ {
		g := rk.gOf[t]
		o := int(h.owner[g])
		idx := int32(t - rk.nOwned)
		if o == rk.id {
			own, _ := rk.ownedLocal(g)
			rk.selfGhostIdx = append(rk.selfGhostIdx, idx)
			rk.selfGhostOwn = append(rk.selfGhostOwn, own)
		} else {
			rk.fwdNeed[o] = append(rk.fwdNeed[o], g)
			rk.fwdArena[o] = append(rk.fwdArena[o], idx)
		}
	}
}

// ownedLocal returns the local index of owned global atom g (owned atoms
// lead the local order, ascending).
func (rk *rank) ownedLocal(g int32) (int32, bool) {
	t, ok := slices.BinarySearch(rk.gOf[:rk.nOwned], g)
	return int32(t), ok
}

// execPlanExchange derives this rank's plan half and swaps it with every
// peer: one KindFwdPlan per link, tagged with the rebuild tick. Plans are
// exchanged even when empty so every rank expects exactly one frame per
// live peer. A received plan is stored as owned local indices: the pack
// order of the forward exchange and the merge order of the reverse one.
func (rk *rank) execPlanExchange() {
	h := rk.h
	rk.derivePlans()
	nr := h.nr
	if nr == 1 {
		return
	}
	tick := h.rebuildTick
	f := &rk.sendF
	for d := 0; d < nr; d++ {
		if d == rk.id || h.deadRank[d] {
			continue
		}
		f.Reset(transport.KindFwdPlan, d, tick)
		copy(f.EnsureInts(len(rk.fwdNeed[d])), rk.fwdNeed[d])
		if err := rk.ep.Send(f); err != nil {
			rk.handleSendErr(err)
		}
	}
	pending := 0
	for s := 0; s < nr; s++ {
		alive := s != rk.id && !h.deadRank[s]
		rk.seen[s] = !alive // seen == true means "nothing more expected"
		if alive {
			pending++
			rk.sendFwd[s] = rk.sendFwd[s][:0]
		}
	}
	for pending > 0 {
		if err := rk.recvExpect(transport.KindFwdPlan, transport.KindInvalid); err != nil {
			rk.noteErr(err)
			return
		}
		g := &rk.recvF
		s := int(g.Src)
		switch g.Kind {
		case transport.KindFwdPlan:
			if g.Step != tick || s < 0 || s >= nr || rk.seen[s] {
				continue
			}
			for _, a := range g.Ints {
				loc, ok := rk.ownedLocal(a)
				if !ok {
					rk.noteErr(fmt.Errorf("domain: rank %d: peer %d plans atom %d, which this rank does not own", rk.id, s, a))
					break
				}
				rk.sendFwd[s] = append(rk.sendFwd[s], loc)
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

// postGhosts opens the forward exchange: stage self-owned periodic images
// directly into the current half of the double-buffered arena and push
// each peer the positions it planned for as one KindGhostPos frame. The
// rank then evaluates its interior block while the frames travel.
func (rk *rank) postGhosts() {
	h := rk.h
	buf := rk.ghost[h.parity]
	for k, idx := range rk.selfGhostIdx {
		buf[idx] = h.pw[rk.gOf[rk.selfGhostOwn[k]]]
	}
	f := &rk.sendF
	for d := 0; d < h.nr; d++ {
		if d == rk.id || len(rk.sendFwd[d]) == 0 {
			continue
		}
		if h.deadRank[d] {
			rk.noteDeath(d)
			continue
		}
		f.Reset(transport.KindGhostPos, d, h.stepTick)
		vecs := f.EnsureVecs(len(rk.sendFwd[d]))
		for k, t := range rk.sendFwd[d] {
			vecs[k] = h.pw[rk.gOf[t]]
		}
		if err := rk.ep.Send(f); err != nil {
			rk.handleSendErr(err)
		}
	}
}

// waitGhosts closes the forward exchange: receive every planned peer's
// KindGhostPos frame and scatter it into the current half of the arena.
func (rk *rank) waitGhosts() {
	h := rk.h
	nr := h.nr
	buf := rk.ghost[h.parity]
	pending := 0
	for s := 0; s < nr; s++ {
		expect := s != rk.id && len(rk.fwdNeed[s]) > 0 && !h.deadRank[s]
		rk.seen[s] = !expect
		if expect {
			pending++
		}
	}
	for pending > 0 {
		if err := rk.recvExpect(transport.KindGhostPos, transport.KindInvalid); err != nil {
			rk.noteErr(err)
			return
		}
		g := &rk.recvF
		s := int(g.Src)
		switch g.Kind {
		case transport.KindGhostPos:
			if g.Step != h.stepTick || s < 0 || s >= nr || rk.seen[s] {
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
				return // our own endpoint died; drain no further
			}
		case transport.KindRecover:
			// The epoch supersedes a peer death latched earlier in this
			// phase (noteErr keeps only the first error): the caller
			// must see the interrupt, or it walks into the reverse exchange
			// with the epoch frame parked where that phase never looks.
			rk.stashData()
			rk.commErr = errRecoverInterrupt
			return
		default:
			rk.stashData()
		}
	}
}

// execReverse is the reverse exchange: send every peer the exact force
// partials of the ghosts it owns — one per arena slot, in the forward plan
// order it asked for — and merge every arriving partial into the owned atom
// the transposed plan names. Merges are exact, so the arrival order does
// not matter.
func (rk *rank) execReverse() {
	h := rk.h
	nr := h.nr
	if nr == 1 {
		return
	}
	tick := h.stepTick
	f := &rk.sendF
	for d := 0; d < nr; d++ {
		if d == rk.id || len(rk.fwdArena[d]) == 0 {
			continue
		}
		if h.deadRank[d] {
			rk.noteDeath(d)
			continue
		}
		f.Reset(transport.KindRows, d, tick)
		ints := f.EnsureInts(partialWords * len(rk.fwdArena[d]))
		for k, idx := range rk.fwdArena[d] {
			for c, a := range &rk.sum.Forces[rk.nOwned+int(idx)] {
				a.PutWords(ints[partialWords*k+core.ExactSumWords*c:])
			}
		}
		if err := rk.ep.Send(f); err != nil {
			rk.handleSendErr(err)
		}
	}
	pending := 0
	for s := 0; s < nr; s++ {
		expect := s != rk.id && len(rk.sendFwd[s]) > 0 && !h.deadRank[s]
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
			plan := rk.sendFwd[s]
			if len(g.Ints) != partialWords*len(plan) {
				rk.noteErr(fmt.Errorf("domain: rank %d: partial frame from %d carries %d words, plan expects %d ghosts",
					rk.id, s, len(g.Ints), len(plan)))
				continue
			}
			for k, t := range plan {
				acc := &rk.sum.Forces[t]
				for c := range acc {
					acc[c].Merge(core.ExactSumFromWords(g.Ints[partialWords*k+core.ExactSumWords*c:]))
				}
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

// partialWords is the wire size of one atom's force partial: three exact
// sums (48 B).
const partialWords = 3 * core.ExactSumWords

// handleSendErr classifies a Send failure: a DeadError marks the peer (or
// this rank itself) dead so subsequent phases skip it; anything else is
// latched as-is.
func (rk *rank) handleSendErr(err error) {
	if rank, ok := transport.IsDead(err); ok {
		rk.noteDeath(rank)
		return
	}
	rk.noteErr(err)
}

// recvExpect fills rk.recvF with the next frame a phase consuming kinds a/b
// can act on: parked frames of those kinds (or death notices) first, in
// arrival order, then the endpoint.
func (rk *rank) recvExpect(a, b transport.Kind) error {
	for i, f := range rk.stash {
		if f.Kind == a || f.Kind == b || f.Kind == transport.KindDeath {
			rk.unstash(i)
			return nil
		}
	}
	return rk.ep.Recv(&rk.recvF)
}

// unstash moves parked frame i into rk.recvF and recycles its buffer.
func (rk *rank) unstash(i int) {
	f := rk.stash[i]
	transport.CopyFrame(&rk.recvF, f)
	rk.stash = append(rk.stash[:i], rk.stash[i+1:]...)
	rk.free = append(rk.free, f)
}

// reservePark sizes the parking pool for the steady state after a plan
// swap: a step parks at most one ghost frame and one partial frame per
// peer, none larger than the plans just exchanged, so between rebuilds the
// stash never needs a new frame, a larger buffer or a longer list.
func (rk *rank) reservePark() {
	h := rk.h
	vecs, ints := 0, 0
	for s := 0; s < h.nr; s++ {
		vecs = max(vecs, len(rk.fwdArena[s]))
		ints = max(ints, partialWords*len(rk.sendFwd[s]))
	}
	for len(rk.free)+len(rk.stash) < 2*(h.nr-1) {
		rk.free = append(rk.free, new(transport.Frame))
	}
	for _, f := range slices.Concat(rk.free, rk.stash) {
		// Grow keeps a parked frame's payload.
		if n := vecs - len(f.Vecs); n > 0 {
			f.Vecs = slices.Grow(f.Vecs, n)
		}
		if n := ints - len(f.Ints); n > 0 {
			f.Ints = slices.Grow(f.Ints, n)
		}
	}
	frames := len(rk.free) + len(rk.stash)
	rk.free = slices.Grow(rk.free, frames-len(rk.free))
	rk.stash = slices.Grow(rk.stash, frames-len(rk.stash))
}

// stashData parks rk.recvF for a later phase if it is a cross-phase data
// frame: a fast peer racing ahead (plans, ghosts, partials) or a driver
// frame pipelined behind the one being processed (owned positions sent
// right after a rebuild broadcast). Control and unknown frames are
// dropped.
func (rk *rank) stashData() {
	switch rk.recvF.Kind {
	case transport.KindFwdPlan, transport.KindGhostPos, transport.KindRows,
		transport.KindRebuild, transport.KindOwnedPos, transport.KindShutdown,
		transport.KindReplica, transport.KindReplicaReq, transport.KindRecover:
		var cp *transport.Frame
		if n := len(rk.free); n > 0 {
			cp, rk.free = rk.free[n-1], rk.free[:n-1]
		} else {
			cp = new(transport.Frame)
		}
		transport.CopyFrame(cp, &rk.recvF)
		rk.stash = append(rk.stash, cp)
	}
}
