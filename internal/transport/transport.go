// Package transport is the pluggable rank-to-rank message layer under the
// domain-decomposed runtime: the double-buffered ghost-position exchange,
// the reverse force-row reduction, and the driver/rank control protocol of
// the multi-process runtime all post framed messages through one
// Transport/Endpoint interface instead of touching shared memory directly.
//
// Three implementations ship:
//
//   - NewChan: in-process Go channels between rank goroutines — the MPI
//     stand-in the in-process runtime builds and owns. Frames are staged
//     into preallocated per-link buffers (no wire serialization, no
//     steady-state allocation), so the single-process runtime keeps its
//     zero-allocation step.
//   - NewTCP: stdlib net sockets between OS processes — length-prefixed
//     frames over persistent connections, bounded dial retry with backoff,
//     write deadlines, heartbeat-based peer liveness, and measured per-link
//     latency/bandwidth statistics that feed the cluster performance model.
//   - NewFault: a wrapper injecting message drops (retransmitted after a
//     delay, the reliable-link abstraction), duplicate delivery, random
//     delays, and scheduled rank death under a seeded plan — the test
//     harness of the rank-server fleet (driver and rank servers over one
//     wrapped world), the only path that can lose a rank and recover.
//
// Delivery contract: frames between one (src, dst) pair arrive in order on
// the chan and tcp transports; the fault transport may duplicate or delay
// them. Receivers therefore treat frames as idempotent by (Src, Kind, Step)
// — the runtime discards a frame whose step tag does not match the phase it
// is waiting on. Rank death surfaces as a KindDeath frame pushed into every
// live endpoint's inbox (and as ErrPeerDead from Send), so a receiver
// blocked on a dead peer unblocks instead of hanging.
package transport

import (
	"errors"
	"fmt"
	"time"
)

// Endpoint is one rank's attachment to the transport. Send and Recv may be
// called from different goroutines; neither is safe for concurrent calls
// with itself.
type Endpoint interface {
	// Rank returns the rank this endpoint speaks for.
	Rank() int
	// Send delivers f to rank f.Dst. The frame is staged (copied or
	// serialized) before Send returns: the caller owns f again and may
	// reuse its payload slices immediately. Send stamps f.Src and f.Seq.
	Send(f *Frame) error
	// Recv blocks for the next inbound frame and copies it into f, reusing
	// f's payload capacity. Control frames the transport handles itself
	// (heartbeats) are not surfaced; death notices are (KindDeath).
	Recv(f *Frame) error
	// Close detaches the endpoint. Pending Recv calls return ErrClosed.
	Close() error
}

// Transport hands out endpoints for a fixed-size rank world.
type Transport interface {
	// Ranks returns the world size (endpoints are addressed 0..Ranks-1).
	Ranks() int
	// Endpoint returns the endpoint of the given rank. In-process
	// transports serve every rank; a TCP transport serves only the rank of
	// its own process and errors for any other.
	Endpoint(rank int) (Endpoint, error)
	// Close tears the transport down; all endpoints become unusable.
	Close() error
}

// Killer is implemented by transports that can simulate the death of a rank
// (the fault-injection hook): the victim's endpoint starts failing and every
// other endpoint receives a KindDeath notice.
type Killer interface {
	Kill(rank int)
}

// Reviver is implemented by transports that can bring a killed rank back —
// the rejoin half of the fleet's quiesce-and-rejoin recovery protocol.
type Reviver interface {
	Revive(rank int) error
}

// LinkStats is the measured behaviour of one directed link, as observed by
// the endpoint that owns the sending side.
type LinkStats struct {
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	FramesSent int64   `json:"frames_sent"`
	FramesRecv int64   `json:"frames_recv"`
	BytesSent  int64   `json:"bytes_sent"`
	BytesRecv  int64   `json:"bytes_recv"`
	LatencySec float64 `json:"latency_s"`     // smoothed one-way latency (heartbeat RTT/2)
	Bandwidth  float64 `json:"bandwidth_bps"` // achieved payload bytes/s of the send path
}

// TimedRecver is implemented by endpoints that support a bounded receive —
// the supervisor loop uses it to drain stale frames and to poll for a
// replacement rank without blocking forever. ok is false when the timeout
// elapsed with no frame.
type TimedRecver interface {
	RecvTimeout(f *Frame, d time.Duration) (ok bool, err error)
}

// StatsReporter is implemented by transports that measure their links
// (NewTCP). The runtime forwards these numbers to the cluster performance
// model, which then predicts multi-node step time from measured per-link
// latency and bandwidth instead of frozen constants.
type StatsReporter interface {
	LinkStats() []LinkStats
}

// ErrClosed is returned by operations on a closed transport or endpoint.
var ErrClosed = errors.New("transport: closed")

// DeadError reports that a rank is (or became) unreachable: its process
// died, its heartbeat timed out, or a fault plan killed it.
type DeadError struct {
	Rank int
}

func (e *DeadError) Error() string {
	return fmt.Sprintf("transport: rank %d is dead", e.Rank)
}

// IsDead reports whether err indicates a dead peer and, if so, which rank.
func IsDead(err error) (int, bool) {
	var de *DeadError
	if errors.As(err, &de) {
		return de.Rank, true
	}
	return 0, false
}

// Group composes per-rank transports into one world: Endpoint(r) is served
// by the first member that owns rank r. It is how a test (or a single
// process hosting several TCP ranks on localhost) presents N one-rank TCP
// transports to a runtime that asks one Transport for every endpoint.
type Group struct {
	members []Transport
	ranks   int
}

// NewGroup builds a composite transport over the members. The world size is
// the largest member world.
func NewGroup(members ...Transport) *Group {
	g := &Group{members: members}
	for _, m := range members {
		if m.Ranks() > g.ranks {
			g.ranks = m.Ranks()
		}
	}
	return g
}

// Ranks implements Transport.
func (g *Group) Ranks() int { return g.ranks }

// Endpoint implements Transport: the first member serving the rank wins.
func (g *Group) Endpoint(rank int) (Endpoint, error) {
	var firstErr error
	for _, m := range g.members {
		ep, err := m.Endpoint(rank)
		if err == nil {
			return ep, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("transport: no member serves rank %d", rank)
	}
	return nil, firstErr
}

// Close closes every member.
func (g *Group) Close() error {
	var first error
	for _, m := range g.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LinkStats aggregates the members' link statistics (members that measure
// nothing contribute nothing).
func (g *Group) LinkStats() []LinkStats {
	var all []LinkStats
	for _, m := range g.members {
		if sr, ok := m.(StatsReporter); ok {
			all = append(all, sr.LinkStats()...)
		}
	}
	return all
}
