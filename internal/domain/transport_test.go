package domain

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net"
	"testing"

	"repro/internal/atoms"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/transport"
)

// newLocalTCPGroup builds an n-rank TCP world on ephemeral localhost ports,
// all inside this process, composed into one Transport via transport.Group
// — the exact wire path of a multi-node run, minus process boundaries. The
// group is closed when the test ends: a Runtime handed a transport does not
// own it, and an open TCP member keeps heartbeat and reader goroutines
// allocating under every later test's AllocsPerRun.
func newLocalTCPGroup(t *testing.T, n int) transport.Transport {
	t.Helper()
	listeners := make([]net.Listener, n)
	hosts := make([]string, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[r] = ln
		hosts[r] = ln.Addr().String()
	}
	members := make([]transport.Transport, n)
	for r := 0; r < n; r++ {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Rank:     r,
			Hosts:    hosts,
			Listener: listeners[r],
		})
		if err != nil {
			t.Fatal(err)
		}
		members[r] = tr
	}
	g := transport.NewGroup(members...)
	t.Cleanup(func() { g.Close() })
	return g
}

// TestRuntimeTrajectoryBitwiseAcrossTransports is the transport-layer
// variant of the central bitwise property: the trajectory must not depend
// on which wire the exchanges travel. Positions and rows move as IEEE-754
// bit patterns and land in canonical slots, so the in-process channel
// transport, real TCP sockets on localhost, and the fault-injection
// wrapper (both transparent and actively dropping/duplicating/delaying)
// must all produce identical bits on every rank grid.
func TestRuntimeTrajectoryBitwiseAcrossTransports(t *testing.T) {
	const steps, temp = 30, 600.0
	grids := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}}
	for _, grid := range grids {
		nr := grid[0] * grid[1] * grid[2]
		base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, steps, temp)
		variants := []struct {
			name string
			tr   transport.Transport
		}{
			{"tcp", newLocalTCPGroup(t, nr)},
			{"fault-noop", transport.NewFault(transport.NewChan(nr), transport.NoFaults())},
			{"fault-chaos", transport.NewFault(transport.NewChan(nr), transport.FaultPlan{
				Seed: 12345, Drop: 0.05, Dup: 0.05, Delay: 0.10, KillRank: -1,
			})},
		}
		for _, v := range variants {
			sim := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5, Transport: v.tr}, steps, temp)
			if sim.Energy != base.Energy {
				t.Errorf("grid %v over %s: energy %.17g != chan %.17g", grid, v.name, sim.Energy, base.Energy)
			}
			for i := range base.Sys.Pos {
				if sim.Sys.Pos[i] != base.Sys.Pos[i] {
					t.Errorf("grid %v over %s: position of atom %d diverged", grid, v.name, i)
					break
				}
				if sim.Forces[i] != base.Forces[i] {
					t.Errorf("grid %v over %s: force on atom %d diverged", grid, v.name, i)
					break
				}
			}
			sim.Close()
		}
		base.Close()
	}
}

// TestRuntimeRankDeathRecovery exercises the full failure path: a seeded
// fault plan kills a rank mid-trajectory, the surviving ranks detect the
// death without hanging a barrier, the master surfaces the failure through
// Runtime.Err, and Restore + checkpoint rewind reproduces the uninterrupted
// trajectory bit for bit (rebuilds are invisible to the physics, so the
// recovered run re-enters the exact same orbit).
func TestRuntimeRankDeathRecovery(t *testing.T) {
	const (
		grid      = "2x1x1"
		steps     = 40
		ckptAt    = 20
		killTick  = 30 // runtime force-call tick (construction is tick 1)
		temp      = 600.0
		seed      = 7
		timestepF = 0.5
	)
	m := tinyModel(t)

	newSim := func(tr transport.Transport) (*md.Simulation, *Runtime, *atoms.System) {
		sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
		rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Skin: 0.5, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := md.NewSimulation(sys, rt,
			md.WithTimestep(timestepF), md.WithSeed(seed), md.WithTemperature(temp),
			md.WithThermostat(nil)) // NVE: recovery must be bitwise, not statistical
		if err != nil {
			t.Fatal(err)
		}
		return sim, rt, sys
	}

	// Reference: uninterrupted run.
	ref, _, refSys := newSim(nil)
	defer ref.Close()
	if err := ref.Run(context.Background(), steps); err != nil {
		t.Fatal(err)
	}
	refRep := ref.Report()

	// Faulted run: rank 1 dies at the scheduled tick.
	fault := transport.NewFault(transport.NewChan(2), transport.FaultPlan{
		Seed: 99, KillRank: 1, KillAtStep: killTick,
	})
	sim, rt, simSys := newSim(fault)
	defer sim.Close()

	var ckpt bytes.Buffer
	if err := sim.Run(context.Background(), ckptAt); err != nil {
		t.Fatal(err)
	}
	if err := sim.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Step into the failure. The integrator keeps calling the runtime; once
	// the kill fires, Err latches and force calls short-circuit.
	died := false
	for i := ckptAt; i < steps; i++ {
		sim.Step()
		if rt.Err() != nil {
			died = true
			break
		}
	}
	if !died {
		t.Fatalf("scheduled kill at tick %d never surfaced through Runtime.Err", killTick)
	}
	if stats := fault.Stats(); stats.Kills != 1 {
		t.Fatalf("fault stats record %d kills, want 1", stats.Kills)
	}

	// Recover: revive the transport, then rewind the integrator. Restore
	// must come first — Resume re-evaluates forces, which needs live ranks.
	if err := rt.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := sim.Resume(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := sim.Run(context.Background(), steps-ckptAt); err != nil {
		t.Fatal(err)
	}
	if rt.Err() != nil {
		t.Fatalf("recovered run failed again: %v", rt.Err())
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
		if simSys.Pos[i] != refSys.Pos[i] {
			t.Errorf("recovered position of atom %d diverged: %v vs %v", i, simSys.Pos[i], refSys.Pos[i])
			break
		}
	}
}

// TestRuntimeRestoreRequiresReviver pins the error contract: Restore on a
// transport that cannot revive dead ranks reports it instead of silently
// resuming over a corpse.
func TestRuntimeRestoreRequiresReviver(t *testing.T) {
	m := tinyModel(t)
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// No dead ranks: Restore is a no-op clearing of state, reviver or not.
	if err := rt.Restore(); err != nil {
		t.Fatalf("Restore with no dead ranks: %v", err)
	}
}
