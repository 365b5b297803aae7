package domain

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// This file is the driver half of elastic recovery: when a rank of the
// remote fleet dies, the supervisor (cmd/allegro-md or a test harness)
// drives the sequence
//
//	detect   EnergyForcesInto latches a RankFailure (phase-typed)
//	quiesce  Quiesce: drain stale frames, open a new generation on the
//	         survivors (KindRecover broadcast + acks)
//	restore  Rejoin: reship the saved config to the replacement rank;
//	         RecoverState: reassemble the last replication point from the
//	         survivors' buddy shards (KindReplicaReq/KindReplicaRep)
//	resume   ClearFailure + rewinding the integrator to the replication
//	         point; replayed steps are bit-identical to the uninterrupted
//	         run because the canonical slot-order reduction makes forces a
//	         pure function of positions.
//
// Each phase is timed into a RecoveryTimers record, exported through
// perfmodel into BENCH_recovery.json.

// Phase names the protocol phase a rank failure surfaced in.
type Phase string

const (
	// PhaseConfig: the rendezvous (initial or rejoin config reship).
	PhaseConfig Phase = "config"
	// PhaseRebuild: the rebuild broadcast / counts / layout protocol.
	PhaseRebuild Phase = "rebuild"
	// PhaseStep: a per-step force evaluation.
	PhaseStep Phase = "step"
	// PhaseReplicate: a replication-point broadcast.
	PhaseReplicate Phase = "replicate"
	// PhaseRecover: the recovery protocol itself (quiesce/rejoin/restore).
	PhaseRecover Phase = "recover"
)

// RankFailure is the typed error a RemoteRuntime surfaces when a rank dies:
// it names the dead rank (-1 when unknown), the protocol phase, and whether
// the failure is retriable. It is latched — steps short-circuit — but not
// permanent: the supervisor clears it with ClearFailure after recovery.
type RankFailure struct {
	Rank  int
	Phase Phase
	Err   error
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("domain: rank %d failed during %s: %v", e.Rank, e.Phase, e.Err)
}

func (e *RankFailure) Unwrap() error { return e.Err }

// Retriable reports whether the failed operation can simply be re-driven
// after the fleet is repaired, without rewinding integrator state: config,
// rebuild, and replication failures consume no per-step state (ranks are
// stateless force servers and rebuilds do not perturb trajectories). A
// mid-step failure left the integrator advanced on stale forces, so the
// supervisor must additionally rewind to the last replication point via
// RecoverState.
func (e *RankFailure) Retriable() bool { return e.Phase != PhaseStep }

// AsRankFailure extracts a RankFailure from an error chain.
func AsRankFailure(err error) (*RankFailure, bool) {
	var rf *RankFailure
	if errors.As(err, &rf) {
		return rf, true
	}
	return nil, false
}

// RecoveryTimers is one recovery's detect -> quiesce -> restore -> resume
// phase breakdown, exported into BENCH_recovery.json.
type RecoveryTimers struct {
	DeadRank   int    `json:"dead_rank"`
	Phase      string `json:"phase"`
	Generation uint64 `json:"generation"`
	// DetectNs: wall from the last successful force call to the latched
	// failure (includes the transport's death-silence timeout).
	DetectNs int64 `json:"detect_ns"`
	// QuiesceNs: drain + KindRecover epoch broadcast + survivor acks.
	QuiesceNs int64 `json:"quiesce_ns"`
	// RestoreNs: replacement rejoin (config reship + ack) plus replica
	// gather and reassembly.
	RestoreNs int64 `json:"restore_ns"`
	// ResumeNs: ClearFailure to the first successful force call after it.
	ResumeNs int64 `json:"resume_ns"`
	// RewindSteps: how many MD steps the integrator rewound (0 for
	// retriable failures).
	RewindSteps int `json:"rewind_steps"`
}

// fail wraps err into a phase-typed RankFailure (idempotent).
func (r *RemoteRuntime) fail(phase Phase, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := AsRankFailure(err); ok {
		return err
	}
	rank := -1
	if d, ok := transport.IsDead(err); ok {
		rank = d
	}
	return &RankFailure{Rank: rank, Phase: phase, Err: err}
}

// latch records a failure and starts the recovery timer record.
func (r *RemoteRuntime) latch(phase Phase, err error) error {
	r.err = r.fail(phase, err)
	if r.rec == nil {
		rf, _ := AsRankFailure(r.err)
		r.rec = &RecoveryTimers{DeadRank: rf.Rank, Phase: string(rf.Phase)}
		if !r.lastOK.IsZero() {
			r.rec.DetectNs = time.Since(r.lastOK).Nanoseconds()
		}
	}
	return r.err
}

// noteOK stamps a successful force call: the detect-timer base, and the
// resume timer of a recovery in flight.
func (r *RemoteRuntime) noteOK() {
	if r.rec != nil && !r.recClear.IsZero() {
		r.rec.ResumeNs = time.Since(r.recClear).Nanoseconds()
		r.recovered = append(r.recovered, *r.rec)
		r.rec = nil
		r.recClear = time.Time{}
	}
	r.lastOK = time.Now()
}

// Recoveries returns the completed recovery records, oldest first.
func (r *RemoteRuntime) Recoveries() []RecoveryTimers { return r.recovered }

// Generation returns the current fleet generation (0 until the first
// recovery).
func (r *RemoteRuntime) Generation() uint64 { return r.generation }

// timedEp returns the driver endpoint's bounded-receive interface.
func (r *RemoteRuntime) timedEp() (transport.TimedRecver, error) {
	tr, ok := r.ep.(transport.TimedRecver)
	if !ok {
		return nil, fmt.Errorf("domain: transport endpoint %T does not support timed receive", r.ep)
	}
	return tr, nil
}

// Quiesce settles the fleet after the death of `dead`: the transport's dead
// mark is lifted (transports that implement Reviver), the driver's inbox is
// drained of stale pre-death traffic, and a new generation is opened on the
// survivors with a KindRecover broadcast — each survivor clears its dead
// marks and parked phase frames, then acks. After Quiesce returns, every
// survivor is idle in its serve loop and nothing from the old epoch can
// surface again.
func (r *RemoteRuntime) Quiesce(dead int) error {
	start := time.Now()
	if rv, ok := r.tr.(transport.Reviver); ok && dead >= 0 {
		if err := rv.Revive(dead); err != nil {
			return fmt.Errorf("domain: revive rank %d: %w", dead, err)
		}
	}
	tr, err := r.timedEp()
	if err != nil {
		return err
	}
	// Drain until the inbox has been quiet for one timeout slice. Nothing
	// queued is needed: forces and counts of the failed phase are stale, and
	// replica shards are only requested after the drain.
	for {
		got, err := tr.RecvTimeout(&r.recvF, 30*time.Millisecond)
		if err != nil {
			return err
		}
		if !got {
			break
		}
	}
	r.generation++
	f := &r.sendF
	for d := 0; d < r.nr; d++ {
		if d == dead {
			continue
		}
		f.Reset(transport.KindRecover, d, r.generation)
		if err := r.ep.Send(f); err != nil {
			return r.fail(PhaseRecover, err)
		}
	}
	if err := r.collect(transport.KindRecover, r.generation, dead, nil); err != nil {
		return r.fail(PhaseRecover, err)
	}
	if r.rec != nil {
		r.rec.QuiesceNs = time.Since(start).Nanoseconds()
		r.rec.Generation = r.generation
	}
	return nil
}

// Rejoin re-admits a replacement process for the dead rank: the saved
// run configuration is reshipped (KindConfig stamped with the current
// generation) until the replacement acks it or the timeout expires. The
// replacement may come up at any point within the window — config sends to
// a not-yet-listening process fail or go unanswered and are retried.
func (r *RemoteRuntime) Rejoin(dead int, timeout time.Duration) error {
	start := time.Now()
	deadline := start.Add(timeout)
	tr, err := r.timedEp()
	if err != nil {
		return err
	}
	f := &r.sendF
	for time.Now().Before(deadline) {
		f.Reset(transport.KindConfig, dead, r.generation)
		copy(f.EnsureBytes(len(r.cfgBody)), r.cfgBody)
		if err := r.ep.Send(f); err != nil {
			// Replacement not reachable yet; retry until the deadline.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		ackBy := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(ackBy) {
			got, err := tr.RecvTimeout(&r.recvF, 50*time.Millisecond)
			if err != nil {
				return err
			}
			if !got {
				continue
			}
			g := &r.recvF
			switch {
			case g.Kind == transport.KindConfig && int(g.Src) == dead && g.Step == r.generation:
				if r.rec != nil {
					r.rec.RestoreNs += time.Since(start).Nanoseconds()
				}
				return nil
			case g.Kind == transport.KindDeath && int(g.Src) != dead:
				return r.fail(PhaseRecover, &transport.DeadError{Rank: int(g.Src)})
			default:
				// Stale aborts, hellos, death notices for the rank being
				// replaced: discard.
			}
		}
	}
	return fmt.Errorf("domain: rank %d did not rejoin within %v", dead, timeout)
}

// Replicate records a replication point across the fleet: every rank
// receives its owned-atom shard of pos/vel (the integrator's raw state at
// MD step `step`) and forwards a copy to its buddy rank, so any single rank
// death afterwards is recoverable from fleet memory. On a one-rank grid the
// driver itself keeps the replica (there is no peer to buddy with). The
// call is fire-and-forget: shard frames are idempotent by (owner, step) and
// a failure latches like any other, recoverable and — being outside any
// step — retriable without a rewind.
func (r *RemoteRuntime) Replicate(step uint64, pos, vel [][3]float64) error {
	if r.err != nil {
		return r.err
	}
	if !r.started {
		return fmt.Errorf("domain: Replicate before the first step")
	}
	if len(pos) != r.n || len(vel) != r.n {
		return fmt.Errorf("domain: Replicate buffer length mismatch (%d/%d positions, need %d)",
			len(pos), len(vel), r.n)
	}
	f := &r.sendF
	for d := 0; d < r.nr; d++ {
		owned := r.ownedOf[d]
		f.Reset(transport.KindReplica, d, step)
		copy(f.EnsureInts(len(owned)), owned)
		vecs := f.EnsureVecs(2 * len(owned))
		for k, a := range owned {
			vecs[k] = pos[a]
			vecs[len(owned)+k] = vel[a]
		}
		if err := r.ep.Send(f); err != nil {
			return r.latch(PhaseReplicate, err)
		}
	}
	if r.nr == 1 {
		r.driverRepl.put(step, 0, r.ownedOf[0], pos, vel)
	}
	return nil
}

// RecoverState reassembles the newest complete replication point from the
// survivors' in-memory shards (and the driver's own store on one-rank
// grids) into pos and vel, returning its MD step. dead names the rank whose
// memory is lost; call after Quiesce, before or after Rejoin (a fresh
// replacement holds no shards and is not asked).
func (r *RemoteRuntime) RecoverState(dead int, pos, vel [][3]float64) (uint64, error) {
	if len(pos) != r.n || len(vel) != r.n {
		return 0, fmt.Errorf("domain: RecoverState buffer length mismatch")
	}
	start := time.Now()
	r.replReqTick++
	f := &r.sendF
	for d := 0; d < r.nr; d++ {
		if d == dead {
			continue
		}
		f.Reset(transport.KindReplicaReq, d, r.replReqTick)
		if err := r.ep.Send(f); err != nil {
			return 0, r.fail(PhaseRecover, err)
		}
	}
	var shards []replShard
	err := r.collect(transport.KindReplicaRep, r.replReqTick, dead, func(s int, g *transport.Frame) error {
		sh, ok := unpackReplicaRep(g)
		if !ok {
			return fmt.Errorf("domain: malformed replica reply from rank %d", s)
		}
		shards = append(shards, sh...)
		return nil
	})
	if err != nil {
		return 0, r.fail(PhaseRecover, err)
	}
	shards = append(shards, r.driverRepl.shards()...)
	step, ok := assembleReplicas(shards, pos, vel)
	if !ok {
		return 0, fmt.Errorf("domain: no complete replication point survives among %d shards", len(shards))
	}
	if r.rec != nil {
		r.rec.RestoreNs += time.Since(start).Nanoseconds()
	}
	return step, nil
}

// ClearFailure lifts the latched failure after a successful recovery and
// forces the next force call to rebuild (fresh ownership, lists, and plans
// across the repaired fleet). rewindSteps records how far the supervisor
// rewound the integrator (0 for retriable failures) — it lands in the
// recovery's timer record.
func (r *RemoteRuntime) ClearFailure(rewindSteps int) {
	r.err = nil
	r.started = false
	if r.rec != nil {
		r.rec.RewindSteps = rewindSteps
		r.recClear = time.Now()
	}
}
