package domain

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"repro/internal/atoms"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/transport"
)

// rankProc is one rank-server "process": a goroutine with its own exit
// channel, so the harness can wait for a specific incarnation to die before
// admitting its replacement (a real supervisor waits on the OS process).
type rankProc struct {
	done chan error
}

func startRankProc(ep transport.Endpoint) *rankProc {
	p := &rankProc{done: make(chan error, 1)}
	go func() {
		srv, err := NewRankServer(ep, nil)
		if err != nil {
			p.done <- err
			return
		}
		defer srv.Close()
		p.done <- srv.Serve()
	}()
	return p
}

// superviseRecovery drives one full driver-side recovery: wait for the dead
// incarnation to exit, quiesce the fleet into a new generation, admit the
// replacement (respawn), reship config, and — for failures that consumed
// per-step state — reassemble the last replication point and rewind the
// integrator. Mirrors cmd/allegro-md's supervisor loop.
func superviseRecovery(t *testing.T, rr *RemoteRuntime, sim *md.DecomposedSim, procs []*rankProc, respawn func(dead int) *rankProc, replEach int) {
	t.Helper()
	for round := 0; rr.Err() != nil; round++ {
		if round > 4 {
			t.Fatalf("recovery did not converge: %v", rr.Err())
		}
		rf, ok := AsRankFailure(rr.Err())
		if !ok || rf.Rank < 0 || rf.Rank >= len(procs) {
			t.Fatalf("unrecoverable failure: %v", rr.Err())
		}
		dead := rf.Rank
		select {
		case <-procs[dead].done:
			// The dead incarnation has exited; its endpoint is free.
		case <-time.After(15 * time.Second):
			t.Fatalf("rank %d's dead server never exited", dead)
		}
		if err := rr.Quiesce(dead); err != nil {
			t.Fatalf("Quiesce(%d): %v", dead, err)
		}
		procs[dead] = respawn(dead)
		if err := rr.Rejoin(dead, 20*time.Second); err != nil {
			t.Fatalf("Rejoin(%d): %v", dead, err)
		}
		if rf.Phase == PhaseStep || rf.Phase == PhaseRebuild {
			// The integrator advanced on stale forces (a rebuild failure
			// happens inside a force call too): rewind to the newest
			// complete replication point — and never past it.
			n := len(sim.Sys.Pos)
			pos := make([][3]float64, n)
			vel := make([][3]float64, n)
			step, err := rr.RecoverState(dead, pos, vel)
			if err != nil {
				t.Fatalf("RecoverState(%d): %v", dead, err)
			}
			rewind := sim.StepNum - int(step)
			if rewind < 0 || rewind > 2*replEach {
				t.Fatalf("rewound %d steps, outside the replication window [0, %d]", rewind, 2*replEach)
			}
			rr.ClearFailure(rewind)
			sim.SetState(int(step), pos, vel)
		} else {
			rr.ClearFailure(0)
		}
	}
}

// runSupervised advances the trajectory to `steps` under the supervisor,
// replicating every replEach steps and invoking kill at each step boundary.
func runSupervised(t *testing.T, rr *RemoteRuntime, sim *md.DecomposedSim, steps, replEach int, kill func(step int), procs []*rankProc, respawn func(dead int) *rankProc) {
	t.Helper()
	replicate := func() {
		if err := rr.Replicate(uint64(sim.StepNum), sim.Sys.Pos, sim.Vel); err != nil {
			superviseRecovery(t, rr, sim, procs, respawn, replEach)
		}
	}
	replicate()
	for sim.StepNum < steps {
		if kill != nil {
			kill(sim.StepNum)
		}
		sim.Step()
		if rr.Err() != nil {
			superviseRecovery(t, rr, sim, procs, respawn, replEach)
			continue
		}
		if sim.StepNum%replEach == 0 {
			replicate()
		}
	}
}

// Recovery trajectories: 40 NVE steps (the thermostat RNG is not
// replicated, so determinism is only defined without one), replicated
// every 5 steps.
const (
	recSteps    = 40
	recReplEach = 5
	recTemp     = 600.0
)

// checkElasticRecovery runs a supervised trajectory on rank servers over
// tr (world nr+1), with kill (nil under scheduled chaos) invoked at every
// step boundary, and requires it to be bit-identical to base, the
// failure-free in-process run of the same grid. The recovery timers must
// record exactly `kills` recoveries, one generation each; manual kills
// target the last rank.
func checkElasticRecovery(t *testing.T, name string, grid [3]int, tr transport.Transport, kill func(step int), kills int, base *md.DecomposedSim) {
	t.Helper()
	nr := grid[0] * grid[1] * grid[2]
	endpoint := func(r int) transport.Endpoint {
		ep, err := tr.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	procs := make([]*rankProc, nr)
	for r := range procs {
		procs[r] = startRankProc(endpoint(r))
	}
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rr, err := NewRemoteRuntime(tinyModel(t), sys, RemoteOptions{Grid: grid, Skin: 0.5, Transport: tr})
	if err != nil {
		t.Fatalf("grid %v %s: %v", grid, name, err)
	}
	sim := md.NewDecomposedSim(sys, rr, 0.5)
	sim.InitVelocities(recTemp, rand.New(rand.NewPCG(33, 34)))

	respawn := func(dead int) *rankProc { return startRankProc(endpoint(dead)) }
	runSupervised(t, rr, sim, recSteps, recReplEach, kill, procs, respawn)

	if sim.Energy != base.Energy {
		t.Errorf("grid %v %s: energy %.17g != clean %.17g", grid, name, sim.Energy, base.Energy)
	}
	for i := range base.Sys.Pos {
		if sim.Sys.Pos[i] != base.Sys.Pos[i] {
			t.Errorf("grid %v %s: position of atom %d diverged after replacement", grid, name, i)
			break
		}
		if sim.Forces[i] != base.Forces[i] {
			t.Errorf("grid %v %s: force on atom %d diverged after replacement", grid, name, i)
			break
		}
	}
	if f, ok := tr.(*transport.Fault); ok {
		if st := f.Stats(); st.Kills != int64(kills) || st.Dups == 0 || st.Drops == 0 || st.Delays == 0 {
			t.Errorf("grid %v %s: fault stats %+v, want %d kills and some drops, dups and delays", grid, name, st, kills)
		}
	}
	recs := rr.Recoveries()
	if len(recs) != kills || rr.Generation() != uint64(kills) {
		t.Fatalf("grid %v %s: %d recoveries recorded (generation %d), want %d",
			grid, name, len(recs), rr.Generation(), kills)
	}
	for i, rec := range recs {
		if rec.Generation != uint64(i+1) {
			t.Errorf("grid %v %s: recovery %d opened generation %d, want %d", grid, name, i, rec.Generation, i+1)
		}
		if kill != nil && rec.DeadRank != nr-1 {
			t.Errorf("grid %v %s: recovery record %+v, want dead rank %d", grid, name, rec, nr-1)
		}
		if rec.RewindSteps < 0 || rec.RewindSteps > 2*recReplEach {
			t.Errorf("grid %v %s: rewound %d steps, outside [0, %d]", grid, name, rec.RewindSteps, 2*recReplEach)
		}
		if rec.QuiesceNs <= 0 || rec.RestoreNs <= 0 || rec.ResumeNs <= 0 {
			t.Errorf("grid %v %s: recovery timers not populated: %+v", grid, name, rec)
		}
	}

	rr.Close()
	for r := range procs {
		if err := <-procs[r].done; err != nil {
			t.Errorf("grid %v %s: rank server %d: %v", grid, name, r, err)
		}
	}
}

// TestRemoteRuntimeElasticRecoveryBitwise is the elastic recovery property
// on every rank grid: a rank server is killed mid-trajectory, a fresh
// replacement is admitted into a new generation (config reshipped, state
// reassembled from the survivors' buddy shards — no disk), and the finished
// trajectory is bit-identical to the failure-free run. The recovery timers
// must record exactly one recovery.
func TestRemoteRuntimeElasticRecoveryBitwise(t *testing.T) {
	const killAt = 17
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}} {
		nr := grid[0] * grid[1] * grid[2]
		base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, recSteps, recTemp)
		tr := transport.NewChan(nr + 1)
		killed := false // fire once: the replay passes killAt again
		kill := func(step int) {
			if step == killAt && !killed {
				killed = true
				tr.(transport.Killer).Kill(nr - 1)
			}
		}
		checkElasticRecovery(t, "chan-manual", grid, tr, kill, 1, base)
		base.Close()
	}
}

// TestRuntimeChaosRecoveryBitwise is the elastic recovery property under
// chaos: two seeded kills, at ranks and ticks the fault plan picks, on a
// wire that also drops, duplicates and delays frames. The supervise loop —
// recover state from the survivors' buddy shards, readmit the replacement,
// rewind the integrator to the replication point — must reproduce the
// failure-free trajectory bit for bit, with two recoveries recorded, on
// every multi-rank grid (a one-rank fleet has no peer traffic for the
// chaos schedule to cut).
func TestRuntimeChaosRecoveryBitwise(t *testing.T) {
	for _, grid := range [][3]int{{2, 1, 1}, {2, 2, 2}} {
		nr := grid[0] * grid[1] * grid[2]
		base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, recSteps, recTemp)
		tr := transport.NewFault(transport.NewChan(nr+1), transport.FaultPlan{
			Seed: 1234, Drop: 0.05, Dup: 0.05, Delay: 0.10, KillRank: -1,
			ChaosKills: 2, ChaosFirst: 15, ChaosEvery: 20, ChaosRanks: nr,
		})
		checkElasticRecovery(t, "fault-chaos", grid, tr, nil, 2, base)
		base.Close()
	}
}

// TestRuntimeRankDeathRecovery exercises the checkpoint side of the failure
// path: a seeded fault plan kills a rank server mid-trajectory, the
// survivors detect the death without hanging a phase, the driver surfaces
// it through RemoteRuntime.Err, and Quiesce + Rejoin + a rewind from an
// md.Simulation checkpoint (no replication) reproduces the uninterrupted
// in-process trajectory bit for bit: rebuilds are invisible to the
// physics, so the recovered run re-enters the exact same orbit.
func TestRuntimeRankDeathRecovery(t *testing.T) {
	const (
		steps    = 40
		ckptAt   = 20
		killTick = 30 // force-call tick (the construction evaluation is tick 1)
		temp     = 600.0
		seed     = 7
		dt       = 0.5
	)
	grid := [3]int{2, 1, 1}
	nr := 2
	m := tinyModel(t)
	newSim := func(pot md.Potential, sys *atoms.System) *md.Simulation {
		sim, err := md.NewSimulation(sys, pot,
			md.WithTimestep(dt), md.WithSeed(seed), md.WithTemperature(temp),
			md.WithThermostat(nil)) // NVE: recovery must be bitwise, not statistical
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	// Reference: the uninterrupted in-process run.
	refSys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rt, err := NewRuntime(m, refSys, RuntimeOptions{Grid: grid, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ref := newSim(rt, refSys)
	defer ref.Close()
	if err := ref.Run(context.Background(), steps); err != nil {
		t.Fatal(err)
	}
	refRep := ref.Report()

	// Faulted run: rank 1 dies at the scheduled tick.
	fault := transport.NewFault(transport.NewChan(nr+1), transport.FaultPlan{
		Seed: 99, KillRank: 1, KillAtStep: killTick,
	})
	endpoint := func(r int) transport.Endpoint {
		ep, err := fault.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	procs := make([]*rankProc, nr)
	for r := range procs {
		procs[r] = startRankProc(endpoint(r))
	}
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rr, err := NewRemoteRuntime(m, sys, RemoteOptions{Grid: grid, Skin: 0.5, Transport: fault})
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(rr, sys)

	var ckpt bytes.Buffer
	if err := sim.Run(context.Background(), ckptAt); err != nil {
		t.Fatal(err)
	}
	if err := sim.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Step into the failure. The integrator keeps calling the driver; once
	// the kill fires, Err latches and force calls short-circuit.
	for i := ckptAt; i < steps && rr.Err() == nil; i++ {
		sim.Step()
	}
	rf, ok := AsRankFailure(rr.Err())
	if !ok || rf.Rank != 1 {
		t.Fatalf("scheduled kill at tick %d surfaced as %v, want a failure of rank 1", killTick, rr.Err())
	}
	if stats := fault.Stats(); stats.Kills != 1 {
		t.Fatalf("fault stats record %d kills, want 1", stats.Kills)
	}

	// Recover: readmit a replacement, then rewind the integrator. The fleet
	// must be whole first — Resume re-evaluates forces, which needs live
	// ranks.
	select {
	case <-procs[rf.Rank].done:
	case <-time.After(15 * time.Second):
		t.Fatalf("rank %d's dead server never exited", rf.Rank)
	}
	if err := rr.Quiesce(rf.Rank); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	procs[rf.Rank] = startRankProc(endpoint(rf.Rank))
	if err := rr.Rejoin(rf.Rank, 20*time.Second); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	rr.ClearFailure(sim.Report().Step - ckptAt)
	if err := sim.Resume(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := sim.Run(context.Background(), steps-ckptAt); err != nil {
		t.Fatal(err)
	}
	if rr.Err() != nil {
		t.Fatalf("recovered run failed again: %v", rr.Err())
	}

	rep := sim.Report()
	if rep.Step != refRep.Step {
		t.Fatalf("recovered run ended at step %d, reference at %d", rep.Step, refRep.Step)
	}
	if rep.PotentialEnergy != refRep.PotentialEnergy || rep.TotalEnergy != refRep.TotalEnergy {
		t.Errorf("recovered energies diverged: E_pot %.17g vs %.17g, E_tot %.17g vs %.17g",
			rep.PotentialEnergy, refRep.PotentialEnergy, rep.TotalEnergy, refRep.TotalEnergy)
	}
	for i := range refSys.Pos {
		if sys.Pos[i] != refSys.Pos[i] {
			t.Errorf("recovered position of atom %d diverged: %v vs %v", i, sys.Pos[i], refSys.Pos[i])
			break
		}
	}
	if recs := rr.Recoveries(); len(recs) != 1 || recs[0].DeadRank != 1 || rr.Generation() != 1 {
		t.Errorf("recoveries %+v (generation %d), want one recovery of rank 1 at generation 1", recs, rr.Generation())
	}

	sim.Close() // closes the driver, which shuts the fleet down
	for r := range procs {
		if err := <-procs[r].done; err != nil {
			t.Errorf("rank server %d: %v", r, err)
		}
	}
}

// TestRemoteRuntimeElasticRecoveryOverTCP runs the replacement flow over
// real sockets: the victim's transport is closed (its process "dies"), the
// survivors detect the silence by heartbeat, and the replacement rejoins on
// the same address with a bumped generation — so any pre-death frames still
// buffered on old connections are provably fenced. Bitwise against the
// in-process run, like everything else.
func TestRemoteRuntimeElasticRecoveryOverTCP(t *testing.T) {
	const (
		steps    = 30
		replEach = 5
		killAt   = 13
		temp     = 600.0
	)
	grid := [3]int{2, 1, 1}
	nr := 2
	m := tinyModel(t)
	base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, steps, temp)
	defer base.Close()

	listeners := make([]net.Listener, nr+1)
	hosts := make([]string, nr+1)
	for r := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[r] = ln
		hosts[r] = ln.Addr().String()
	}
	mk := func(rank int, ln net.Listener, gen uint64) transport.Transport {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Rank: rank, Hosts: hosts, Listener: ln, Generation: gen,
			// Fast failure detection: short heartbeats, few dial retries.
			HeartbeatEvery:   20 * time.Millisecond,
			HeartbeatTimeout: 250 * time.Millisecond,
			DialRetries:      3,
			DialBackoff:      20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	members := make([]transport.Transport, nr+1)
	for r := range members {
		members[r] = mk(r, listeners[r], 0)
	}
	tr := transport.NewGroup(members...)

	procs := make([]*rankProc, nr)
	for r := range procs {
		ep, err := members[r].Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		procs[r] = startRankProc(ep)
	}
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rr, err := NewRemoteRuntime(m, sys, RemoteOptions{Grid: grid, Skin: 0.5, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	sim := md.NewDecomposedSim(sys, rr, 0.5)
	sim.InitVelocities(temp, rand.New(rand.NewPCG(33, 34)))

	victim := 1
	killed := false
	kill := func(step int) {
		if step == killAt && !killed {
			killed = true
			members[victim].Close() // the rank process dies, sockets and all
		}
	}
	respawn := func(dead int) *rankProc {
		// Rebind the dead rank's address (the OS may lag releasing it) and
		// come up in the fleet's new generation, like a restarted rankd
		// launched with -generation.
		var ln net.Listener
		deadline := time.Now().Add(10 * time.Second)
		for {
			var err error
			ln, err = net.Listen("tcp", hosts[dead])
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebind %s: %v", hosts[dead], err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		nt := mk(dead, ln, rr.Generation())
		ep, err := nt.Endpoint(dead)
		if err != nil {
			t.Fatal(err)
		}
		return startRankProc(ep)
	}
	runSupervised(t, rr, sim, steps, replEach, kill, procs, respawn)

	if sim.Energy != base.Energy {
		t.Errorf("energy %.17g != clean %.17g", sim.Energy, base.Energy)
	}
	for i := range base.Sys.Pos {
		if sim.Sys.Pos[i] != base.Sys.Pos[i] {
			t.Errorf("position of atom %d diverged after TCP replacement", i)
			break
		}
	}
	recs := rr.Recoveries()
	if len(recs) != 1 || recs[0].DeadRank != victim || rr.Generation() != 1 {
		t.Fatalf("recoveries %+v (generation %d), want one recovery of rank %d at generation 1",
			recs, rr.Generation(), victim)
	}

	rr.Close()
	for r := range procs {
		if err := <-procs[r].done; err != nil {
			t.Errorf("rank server %d: %v", r, err)
		}
	}
}
