package domain

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/units"
)

// This file is the driver half of the decomposition: a RemoteRuntime runs
// the global bookkeeping — ownership classification, the rebuild trigger,
// force and energy assembly, the step statistics — while the rank bodies
// run as RankServers: separate processes (allegro-rankd) on a TCP fleet,
// or goroutines on the channel transport behind Runtime. Everything
// rank-local travels as transport frames; everything global is derived
// with the shared helpers (wrapPositions, skinTriggered, rankOfCell) and
// every sum is exact (core.ExactSum), so a trajectory is bit-identical on
// every host and equal to the serial engine's.
//
// Protocol (driver is transport rank nranks; grid ranks are 0..nranks-1):
//
//	rendezvous  driver -> rank  KindConfig   JSON config + serialized model
//	            rank -> driver  KindConfig   ready ack
//	rebuild     driver -> all   KindRebuild  Ints=owner, Vecs=wrapped pos
//	            rank -> driver  KindCounts   Ints=interior pairs, ghosts,
//	                                         remote ghosts, pairs
//	            rank <-> rank   KindFwdPlan  (peer plan swap)
//	step        driver -> rank  KindOwnedPos Vecs=wrapped owned positions
//	            rank <-> rank   KindGhostPos forward, KindRows reverse
//	                                         (one exact partial per ghost)
//	            rank -> driver  KindForces   Vecs=owned forces (rounded),
//	                                         Ints=energy partial (4 words),
//	                                         Scalars=phase timers
//	shutdown    driver -> all   KindShutdown
//	            rank -> driver  KindShutdown ack; the driver then closes
//	                                         the transport
//
// Frames between driver and one rank are ordered (per-link FIFO), and the
// driver never issues step k+1 before every rank delivered step k, so rank
// serve loops see a strict Rebuild/OwnedPos sequence; only peer frames can
// race ahead, which the rank phases park in their stash.

// RemoteOptions configures a distributed runtime.
type RemoteOptions struct {
	// Grid is the subdomain decomposition; Grid[0]*Grid[1]*Grid[2] rank
	// processes serve it, and the transport world must hold one more
	// endpoint (the driver, transport rank nranks).
	Grid [3]int
	// Skin, Halo, WorkersPerRank mirror RuntimeOptions and are shipped to
	// every rank process.
	Skin           float64
	Halo           float64
	WorkersPerRank int
	// Transport carries the protocol. Required; its world must span
	// nranks+1 endpoints. The RemoteRuntime takes ownership: Close closes
	// it after the shutdown broadcast.
	Transport transport.Transport
}

// remoteWire is the JSON body of the KindConfig frame.
type remoteWire struct {
	Grid    [3]int          `json:"grid"`
	Skin    float64         `json:"skin"`
	Halo    float64         `json:"halo"`
	Workers int             `json:"workers"`
	Cell    [3]float64      `json:"cell"`
	Species []units.Species `json:"species"`
	Model   json.RawMessage `json:"model"`
}

// RemoteRuntime drives a rank-server fleet as an md.InPlacePotential: the
// integrator lives in this process, force evaluation is distributed. It is
// bound to the system it was constructed with, like Runtime, and it is the
// driver Runtime runs over its goroutine ranks. Each rank hides its ghost
// exchange behind its interior block; trajectories are bit-identical to
// the in-process Runtime regardless of the wire.
type RemoteRuntime struct {
	model *core.Model
	sys   *atoms.System
	opts  RemoteOptions
	grid  [3]int
	sub   [3]float64
	nr    int

	tr transport.Transport
	ep transport.Endpoint

	n       int
	pw      [][3]float64
	refPos  [][3]float64
	owner   []int32
	ownedOf [][]int32 // per rank: owned atoms ascending (rebuilt each rebuild)

	sendF, recvF transport.Frame
	seen         []bool

	stepTick, rebuildTick uint64
	energy                float64
	started               bool
	closed                bool
	err                   error
	stats                 RuntimeStats

	// Elastic-recovery state (see recover.go): the saved config body for
	// rejoin reships, the fleet generation (bumped per recovery epoch), the
	// replica-request tick, and the driver-held replica store covering
	// one-rank grids. lastOK/rec/recClear/recovered drive the
	// detect/quiesce/restore/resume phase timers.
	cfgBody     []byte
	generation  uint64
	replReqTick uint64
	driverRepl  *replStore
	lastOK      time.Time
	rec         *RecoveryTimers
	recClear    time.Time
	recovered   []RecoveryTimers
}

// NewRemoteRuntime performs the rendezvous: the model and decomposition
// config are shipped to every rank process, and construction returns once
// each has acknowledged. No evaluation happens until the first step.
func NewRemoteRuntime(m *core.Model, sys *atoms.System, opts RemoteOptions) (*RemoteRuntime, error) {
	if opts.Halo == 0 {
		opts.Halo = m.Cuts.Max()
	}
	if err := validateRuntime(sys, RuntimeOptions{
		Grid: opts.Grid, Skin: opts.Skin, Halo: opts.Halo,
	}); err != nil {
		return nil, err
	}
	nr := opts.Grid[0] * opts.Grid[1] * opts.Grid[2]
	if opts.Transport == nil {
		return nil, fmt.Errorf("domain: RemoteOptions.Transport is required")
	}
	if opts.Transport.Ranks() < nr+1 {
		return nil, fmt.Errorf("domain: transport serves %d endpoints, remote grid needs %d ranks + 1 driver",
			opts.Transport.Ranks(), nr)
	}
	ep, err := opts.Transport.Endpoint(nr)
	if err != nil {
		return nil, fmt.Errorf("domain: driver endpoint: %w", err)
	}
	n := sys.NumAtoms()
	r := &RemoteRuntime{
		model: m, sys: sys, opts: opts, grid: opts.Grid, nr: nr,
		tr: opts.Transport, ep: ep,
		n:       n,
		pw:      make([][3]float64, n),
		refPos:  make([][3]float64, n),
		owner:   make([]int32, n),
		ownedOf: make([][]int32, nr),
		seen:    make([]bool, nr),

		driverRepl: newReplStore(),
	}
	for k := 0; k < 3; k++ {
		r.sub[k] = sys.Cell[k] / float64(opts.Grid[k])
	}

	modelJSON, err := core.MarshalModel(m)
	if err != nil {
		return nil, err
	}
	wire := remoteWire{
		Grid: opts.Grid, Skin: opts.Skin, Halo: opts.Halo,
		Workers: opts.WorkersPerRank,
		Cell:    sys.Cell, Species: sys.Species, Model: modelJSON,
	}
	body, err := json.Marshal(&wire)
	if err != nil {
		return nil, fmt.Errorf("domain: marshal remote config: %w", err)
	}
	r.cfgBody = body // saved for rejoin reships after a rank death
	f := &r.sendF
	for d := 0; d < nr; d++ {
		f.Reset(transport.KindConfig, d, 0)
		copy(f.EnsureBytes(len(body)), body)
		if err := r.ep.Send(f); err != nil {
			return nil, r.fail(PhaseConfig, fmt.Errorf("domain: send config to rank %d: %w", d, err))
		}
	}
	if err := r.collect(transport.KindConfig, 0, -1, nil); err != nil {
		return nil, r.fail(PhaseConfig, fmt.Errorf("domain: rank rendezvous: %w", err))
	}
	return r, nil
}

// collect receives one frame of the given kind and tick from every grid
// rank except skip (-1 expects all), invoking handle (when non-nil) per
// frame. Control noise is discarded; a death notice (for a rank other than
// skip), a tick-matching abort, or a transport error ends the collection.
func (r *RemoteRuntime) collect(kind transport.Kind, tick uint64, skip int, handle func(src int, f *transport.Frame) error) error {
	pending := 0
	for s := range r.seen {
		r.seen[s] = s == skip
		if s != skip {
			pending++
		}
	}
	for pending > 0 {
		if err := r.ep.Recv(&r.recvF); err != nil {
			return err
		}
		g := &r.recvF
		s := int(g.Src)
		switch g.Kind {
		case kind:
			if g.Step != tick || s < 0 || s >= r.nr || r.seen[s] {
				continue
			}
			if handle != nil {
				if err := handle(s, g); err != nil {
					return err
				}
			}
			r.seen[s] = true
			pending--
		case transport.KindDeath:
			if s == skip {
				continue // a stale notice for the rank being replaced
			}
			return &transport.DeadError{Rank: s}
		case transport.KindAbort:
			// A rank could not complete the phase because a peer died
			// mid-phase. Only honored for the phase being collected —
			// stale aborts from an abandoned epoch carry older ticks.
			if (kind == transport.KindCounts || kind == transport.KindForces) && g.Step == tick {
				dead := -1
				if len(g.Ints) > 0 {
					dead = int(g.Ints[0])
				}
				return &transport.DeadError{Rank: dead}
			}
		default:
			// Hellos, stale traffic.
		}
	}
	return nil
}

// Err returns the first failure observed on the protocol; once non-nil,
// steps short-circuit with stale forces and energy.
func (r *RemoteRuntime) Err() error { return r.err }

// Energy returns the last reduced potential energy.
func (r *RemoteRuntime) Energy() float64 { return r.energy }

// NumRanks returns the number of rank processes.
func (r *RemoteRuntime) NumRanks() int { return r.nr }

// Grid returns the decomposition grid.
func (r *RemoteRuntime) Grid() [3]int { return r.grid }

// Stats returns cumulative runtime statistics: steps, rebuilds, migrations,
// the ranks' workload counters at the last rebuild, and the slowest rank's
// phase timers per step.
func (r *RemoteRuntime) Stats() RuntimeStats { return r.stats }

// LinkStats returns the transport's measured per-link statistics.
func (r *RemoteRuntime) LinkStats() []transport.LinkStats {
	if sr, ok := r.tr.(transport.StatsReporter); ok {
		return sr.LinkStats()
	}
	return nil
}

// Close broadcasts shutdown to the rank processes and closes the transport.
func (r *RemoteRuntime) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.broadcastShutdown()
	// Closing the wire before a rank has read its shutdown fails that
	// rank's pending Recv, so wait for every rank's acknowledgement (or
	// death notice). A rank that died unnoticed never answers: the wait is
	// bounded. Without timed receives, give the frames a moment to flush.
	if tr, err := r.timedEp(); err == nil {
		pending := r.nr
		for s := range r.seen {
			r.seen[s] = false
		}
		for deadline := time.Now().Add(time.Second); pending > 0 && time.Now().Before(deadline); {
			got, err := tr.RecvTimeout(&r.recvF, time.Until(deadline))
			if err != nil || !got {
				break
			}
			g := &r.recvF
			s := int(g.Src)
			if (g.Kind == transport.KindShutdown || g.Kind == transport.KindDeath) && s >= 0 && s < r.nr && !r.seen[s] {
				r.seen[s] = true
				pending--
			}
		}
	} else {
		time.Sleep(10 * time.Millisecond)
	}
	r.tr.Close()
}

// broadcastShutdown sends every rank its shutdown frame (best effort: a
// dead rank cannot be shut down).
func (r *RemoteRuntime) broadcastShutdown() {
	f := &r.sendF
	for d := 0; d < r.nr; d++ {
		f.Reset(transport.KindShutdown, d, r.stepTick)
		_ = r.ep.Send(f)
	}
}

// EnergyForces implements md.Potential.
func (r *RemoteRuntime) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, r.n)
	e := r.EnergyForcesInto(sys, forces)
	return e, forces
}

// EnergyForcesInto implements md.InPlacePotential over the rank fleet.
func (r *RemoteRuntime) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	return r.energyForces(sys, forces, nil)
}

// energyForces is one force evaluation over the fleet; ready (when non-nil)
// receives each rank's owned atoms, ascending, as that rank's forces land.
func (r *RemoteRuntime) energyForces(sys *atoms.System, forces [][3]float64, ready func([]int32)) float64 {
	if sys != r.sys {
		panic("domain: RemoteRuntime is bound to the system it was constructed with")
	}
	if len(forces) != r.n {
		panic("domain: force buffer length mismatch")
	}
	if r.err != nil {
		return r.energy
	}
	wrapPositions(r.pw, r.sys.Pos, r.sys.Cell)
	r.stepTick++
	if !r.started || skinTriggered(r.opts.Skin, r.sys.Pos, r.refPos) {
		if err := r.rebuild(); err != nil {
			r.latch(PhaseRebuild, err)
			return r.energy
		}
	}
	if err := r.step(forces, ready); err != nil {
		r.latch(PhaseStep, err)
		return r.energy
	}
	r.stats.Steps++
	r.noteOK()
	return r.energy
}

// rebuild re-derives ownership and drives the rank fleet's rebuild (their
// lists, plans, and peer plan swap).
func (r *RemoteRuntime) rebuild() error {
	r.stats.Rebuilds++
	r.rebuildTick++
	mig := 0
	for d := 0; d < r.nr; d++ {
		r.ownedOf[d] = r.ownedOf[d][:0]
	}
	for i := 0; i < r.n; i++ {
		o := int32(rankOfCell(r.grid, r.sub, r.pw[i]))
		if r.started && o != r.owner[i] {
			mig++
		}
		r.owner[i] = o
		r.ownedOf[o] = append(r.ownedOf[o], int32(i))
	}
	if r.started {
		r.stats.Migrations += mig
	}
	copy(r.refPos, r.sys.Pos)

	f := &r.sendF
	for d := 0; d < r.nr; d++ {
		f.Reset(transport.KindRebuild, d, r.rebuildTick)
		copy(f.EnsureInts(r.n), r.owner)
		copy(f.EnsureVecs(r.n), r.pw)
		if err := r.ep.Send(f); err != nil {
			return fmt.Errorf("domain: rebuild broadcast to rank %d: %w", d, err)
		}
	}
	// Each rank returns its workload counters.
	st := &r.stats
	st.PairWork, st.InteriorPairs, st.MaxOwned, st.MaxGhosts, st.TotalGhost = 0, 0, 0, 0, 0
	st.ForwardBytesPerStep, st.ReverseBytesPerStep = 0, 0
	err := r.collect(transport.KindCounts, r.rebuildTick, -1, func(s int, g *transport.Frame) error {
		if len(g.Ints) != countsLen {
			return fmt.Errorf("domain: rank %d sent %d counters, want %d", s, len(g.Ints), countsLen)
		}
		interior, ghosts, remote, pairs := int(g.Ints[0]), int(g.Ints[1]), int(g.Ints[2]), int(g.Ints[3])
		st.PairWork += pairs
		st.InteriorPairs += interior
		st.MaxOwned = max(st.MaxOwned, len(r.ownedOf[s]))
		st.MaxGhosts = max(st.MaxGhosts, ghosts)
		st.TotalGhost += ghosts
		st.ForwardBytesPerStep += ghosts * 24               // 3 float64 per ghost position
		st.ReverseBytesPerStep += remote * partialWords * 4 // one exact partial per remote ghost
		return nil
	})
	if err != nil {
		return err
	}
	// The ranks now run the peer plan swap on their own; the next step's
	// owned positions queue behind it (FIFO links).
	r.started = true
	return nil
}

// step ships every rank its owned positions and assembles the returned
// forces, the energy (the ranks' exact partials merged, rounded once) and
// the phase timers (the slowest rank's per phase).
func (r *RemoteRuntime) step(forces [][3]float64, ready func([]int32)) error {
	f := &r.sendF
	for d := 0; d < r.nr; d++ {
		owned := r.ownedOf[d]
		f.Reset(transport.KindOwnedPos, d, r.stepTick)
		vecs := f.EnsureVecs(len(owned))
		for k, a := range owned {
			vecs[k] = r.pw[a]
		}
		if err := r.ep.Send(f); err != nil {
			return fmt.Errorf("domain: positions to rank %d: %w", d, err)
		}
	}
	var slowest [forcesTrailer]float64
	var energy core.ExactSum
	err := r.collect(transport.KindForces, r.stepTick, -1, func(s int, g *transport.Frame) error {
		owned := r.ownedOf[s]
		if len(g.Vecs) != len(owned) || len(g.Ints) != core.ExactSumWords || len(g.Scalars) != forcesTrailer {
			return fmt.Errorf("domain: rank %d sent %d forces, %d energy words and %d timers; owns %d atoms",
				s, len(g.Vecs), len(g.Ints), len(g.Scalars), len(owned))
		}
		for i, a := range owned {
			forces[a] = g.Vecs[i]
		}
		energy.Merge(core.ExactSumFromWords(g.Ints))
		for i, ns := range g.Scalars {
			slowest[i] = max(slowest[i], ns)
		}
		if ready != nil {
			ready(owned)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.energy = r.model.RoundEnergy(energy)
	st := &r.stats
	st.CommWallNs += int64(slowest[0])
	st.ExchangeWaitNs += int64(slowest[1])
	st.InteriorNs += int64(slowest[2])
	st.FrontierNs += int64(slowest[3])
	st.ReduceNs += int64(slowest[4])
	return nil
}
