package transport

import (
	"fmt"
	"sync/atomic"
	"time"
)

// chanSlot is one staged frame in flight on an in-process link. Slots cycle
// through their home free list so the steady-state exchange allocates
// nothing; a slot with a nil home (death notices, burst overflow) is simply
// dropped after delivery.
type chanSlot struct {
	f    Frame
	home chan *chanSlot
}

// slotsPerLink is the number of preallocated staging frames per directed
// link. A step keeps up to two frames in flight per link (a ghost frame
// and a partial frame racing ahead of it); doubled for headroom against
// fault-injected duplicates.
const slotsPerLink = 4

type chanLink struct {
	free chan *chanSlot
	seq  atomic.Uint64
	// Largest Ints/Vecs/Scalars payloads sent on the link so far (written
	// by the sending endpoint only; Send is not concurrent with itself).
	ints, vecs, scalars int
}

// reserve grows a staging slot to the largest Ints/Vecs/Scalars payloads
// the link has carried, so every slot warms up within one pass of the free
// list instead of whenever the schedule first hands it the largest frame
// kind. Bytes (configuration payloads) are staged at their own size.
func (lk *chanLink) reserve(s *chanSlot, f *Frame) {
	lk.ints = max(lk.ints, len(f.Ints))
	lk.vecs = max(lk.vecs, len(f.Vecs))
	lk.scalars = max(lk.scalars, len(f.Scalars))
	s.f.EnsureInts(lk.ints)
	s.f.EnsureVecs(lk.vecs)
	s.f.EnsureScalars(lk.scalars)
}

type chanEndpoint struct {
	t     *chanTransport
	rank  int
	inbox chan *chanSlot
	out   []*chanLink
}

// chanTransport is the in-process transport: one endpoint per rank
// goroutine, frames staged through preallocated per-link buffers. It is the
// default transport of domain.Runtime and preserves the runtime's
// zero-allocation steady state.
type chanTransport struct {
	n       int
	eps     []*chanEndpoint
	dead    []atomic.Bool
	closed  atomic.Bool
	closeCh chan struct{}
}

// NewChan builds an in-process transport for n ranks with every endpoint
// pre-created and every link's staging slots preallocated.
func NewChan(n int) Transport {
	t := &chanTransport{
		n:       n,
		eps:     make([]*chanEndpoint, n),
		dead:    make([]atomic.Bool, n),
		closeCh: make(chan struct{}),
	}
	for r := 0; r < n; r++ {
		ep := &chanEndpoint{
			t:     t,
			rank:  r,
			inbox: make(chan *chanSlot, 8*n+16),
			out:   make([]*chanLink, n),
		}
		for d := 0; d < n; d++ {
			lk := &chanLink{free: make(chan *chanSlot, slotsPerLink)}
			for s := 0; s < slotsPerLink; s++ {
				lk.free <- &chanSlot{home: lk.free}
			}
			ep.out[d] = lk
		}
		t.eps[r] = ep
	}
	return t
}

func (t *chanTransport) Ranks() int { return t.n }

func (t *chanTransport) Endpoint(rank int) (Endpoint, error) {
	if rank < 0 || rank >= t.n {
		return nil, fmt.Errorf("transport: rank %d out of range [0, %d)", rank, t.n)
	}
	return t.eps[rank], nil
}

func (t *chanTransport) Close() error {
	if t.closed.CompareAndSwap(false, true) {
		close(t.closeCh)
	}
	return nil
}

// Kill marks a rank dead: its endpoint starts failing, and a KindDeath
// notice is pushed into every inbox (including the victim's, to unblock a
// pending Recv).
func (t *chanTransport) Kill(rank int) {
	if rank < 0 || rank >= t.n || !t.dead[rank].CompareAndSwap(false, true) {
		return
	}
	for _, ep := range t.eps {
		s := &chanSlot{}
		s.f.Kind = KindDeath
		s.f.Src = int32(rank)
		s.f.Dst = int32(ep.rank)
		select {
		case ep.inbox <- s:
		default: // inbox saturated; the peer will hit ErrPeerDead on Send instead
		}
	}
}

// Revive brings a killed rank back. It must be called while the runtime is
// quiescent (no exchange phase in flight): it drains every inbox so stale
// frames and death notices from the previous incarnation cannot leak into
// the restored run.
func (t *chanTransport) Revive(rank int) error {
	if rank < 0 || rank >= t.n {
		return fmt.Errorf("transport: rank %d out of range [0, %d)", rank, t.n)
	}
	if !t.dead[rank].CompareAndSwap(true, false) {
		return nil
	}
	for _, ep := range t.eps {
		for {
			select {
			case s := <-ep.inbox:
				if s.home != nil {
					select {
					case s.home <- s:
					default:
					}
				}
			default:
				goto next
			}
		}
	next:
	}
	return nil
}

func (e *chanEndpoint) Rank() int { return e.rank }

func (e *chanEndpoint) Send(f *Frame) error {
	t := e.t
	if t.closed.Load() {
		return ErrClosed
	}
	if t.dead[e.rank].Load() {
		return &DeadError{Rank: e.rank}
	}
	dst := int(f.Dst)
	if dst < 0 || dst >= t.n {
		return fmt.Errorf("transport: send to rank %d out of range [0, %d)", dst, t.n)
	}
	if t.dead[dst].Load() {
		return &DeadError{Rank: dst}
	}
	lk := e.out[dst]
	var s *chanSlot
	select {
	case s = <-lk.free:
	default:
		s = &chanSlot{} // burst overflow: one-shot slot, dropped after delivery
	}
	f.Src = int32(e.rank)
	f.Seq = lk.seq.Add(1)
	lk.reserve(s, f)
	CopyFrame(&s.f, f)
	select {
	case t.eps[dst].inbox <- s:
		return nil
	case <-t.closeCh:
		return ErrClosed
	}
}

func (e *chanEndpoint) Recv(f *Frame) error {
	t := e.t
	if t.closed.Load() {
		return ErrClosed
	}
	if t.dead[e.rank].Load() {
		return &DeadError{Rank: e.rank}
	}
	select {
	case s := <-e.inbox:
		CopyFrame(f, &s.f)
		if s.home != nil {
			select {
			case s.home <- s:
			default:
			}
		}
		return nil
	case <-t.closeCh:
		return ErrClosed
	}
}

// RecvTimeout implements TimedRecver.
func (e *chanEndpoint) RecvTimeout(f *Frame, d time.Duration) (bool, error) {
	t := e.t
	if t.closed.Load() {
		return false, ErrClosed
	}
	if t.dead[e.rank].Load() {
		return false, &DeadError{Rank: e.rank}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case s := <-e.inbox:
		CopyFrame(f, &s.f)
		if s.home != nil {
			select {
			case s.home <- s:
			default:
			}
		}
		return true, nil
	case <-t.closeCh:
		return false, ErrClosed
	case <-timer.C:
		return false, nil
	}
}

func (e *chanEndpoint) Close() error { return nil }
