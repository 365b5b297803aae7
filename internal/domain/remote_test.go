package domain

import (
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/transport"
)

// newLocalTCPGroup builds an n-rank TCP world on ephemeral localhost ports,
// all inside this process, composed into one Transport via transport.Group
// — the exact wire path of a multi-node run, minus process boundaries. The
// group is closed when the test ends (closing it twice is harmless): an
// open TCP member keeps heartbeat and reader goroutines allocating under
// every later test's AllocsPerRun.
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

// startRankServers spawns nr RankServer goroutines over the given transport
// (world nr+1, driver at rank nr) — process boundaries removed, protocol
// identical. The returned channel collects each server's Serve error.
func startRankServers(t *testing.T, tr transport.Transport, nr int) chan error {
	t.Helper()
	errs := make(chan error, nr)
	for r := 0; r < nr; r++ {
		ep, err := tr.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			srv, err := NewRankServer(ep, nil)
			if err != nil {
				errs <- err
				return
			}
			defer srv.Close()
			errs <- srv.Serve()
		}()
	}
	return errs
}

// checkRemoteBitwise runs a trajectory on rank servers behind the remote
// driver over tr (world nr+1) and requires every bit of it — energy,
// positions, forces — to match base, the in-process run of the same grid.
// Every server must exit cleanly on the driver's shutdown broadcast. check
// (when non-nil) inspects the driver before it shuts the fleet down.
func checkRemoteBitwise(t *testing.T, name string, grid [3]int, tr transport.Transport, base *md.DecomposedSim, steps int, temp float64, check func(*RemoteRuntime)) {
	t.Helper()
	nr := grid[0] * grid[1] * grid[2]
	errs := startRankServers(t, tr, nr)
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rr, err := NewRemoteRuntime(tinyModel(t), sys, RemoteOptions{Grid: grid, Skin: 0.5, Transport: tr})
	if err != nil {
		t.Fatalf("grid %v over %s: %v", grid, name, err)
	}
	sim := md.NewDecomposedSim(sys, rr, 0.5)
	sim.InitVelocities(temp, rand.New(rand.NewPCG(33, 34)))
	sim.Run(steps)
	if rr.Err() != nil {
		t.Fatalf("grid %v over %s: remote run failed: %v", grid, name, rr.Err())
	}

	if sim.Energy != base.Energy {
		t.Errorf("grid %v over %s: energy %.17g != local %.17g", grid, name, sim.Energy, base.Energy)
	}
	for i := range base.Sys.Pos {
		if sim.Sys.Pos[i] != base.Sys.Pos[i] {
			t.Errorf("grid %v over %s: position of atom %d diverged", grid, name, i)
			break
		}
		if sim.Forces[i] != base.Forces[i] {
			t.Errorf("grid %v over %s: force on atom %d diverged", grid, name, i)
			break
		}
	}
	// steps+1 force calls: the integrator evaluates once at t=0.
	if st := rr.Stats(); st.Steps != steps+1 || st.Rebuilds < 1 {
		t.Errorf("grid %v over %s: stats %+v, want %d force calls and >= 1 rebuild", grid, name, st, steps+1)
	}
	if check != nil {
		check(rr)
	}

	rr.Close() // broadcasts shutdown; every server must exit cleanly
	for r := 0; r < nr; r++ {
		if err := <-errs; err != nil {
			t.Errorf("grid %v over %s: rank server: %v", grid, name, err)
		}
	}
}

// TestRemoteRuntimeBitwiseVsLocal is the distributed variant of the central
// bitwise property: a trajectory computed by rank servers behind the remote
// driver protocol — the exact frame sequence allegro-rankd processes serve —
// must be bit-identical to the in-process runtime on every rank grid. The
// servers run as goroutines here; the protocol does not know the
// difference.
func TestRemoteRuntimeBitwiseVsLocal(t *testing.T) {
	const steps, temp = 30, 600.0
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}} {
		nr := grid[0] * grid[1] * grid[2]
		base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, steps, temp)
		checkRemoteBitwise(t, "chan", grid, transport.NewChan(nr+1), base, steps, temp, nil)
		base.Close()
	}
}

// TestRuntimeTrajectoryBitwiseAcrossTransports is the transport-layer
// variant of the central bitwise property: the trajectory must not depend
// on which wire the fleet's frames travel. Positions and rows move as
// IEEE-754 bit patterns and land in canonical slots, so the
// fault-injection wrapper — transparent, and actively dropping,
// duplicating and delaying frames, which every receiver discards by (Src,
// Kind, Step) — gives the same bits as the in-process runtime on every
// rank grid. TestRemoteRuntimeOverTCP is the real-socket wire.
func TestRuntimeTrajectoryBitwiseAcrossTransports(t *testing.T) {
	const steps, temp = 30, 600.0
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}} {
		nr := grid[0] * grid[1] * grid[2]
		base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, steps, temp)
		variants := []struct {
			name string
			tr   transport.Transport
		}{
			{"fault-noop", transport.NewFault(transport.NewChan(nr+1), transport.NoFaults())},
			{"fault-chaos", transport.NewFault(transport.NewChan(nr+1), transport.FaultPlan{
				Seed: 12345, Drop: 0.05, Dup: 0.05, Delay: 0.10, KillRank: -1,
			})},
		}
		for _, v := range variants {
			checkRemoteBitwise(t, v.name, grid, v.tr, base, steps, temp, nil)
		}
		base.Close()
	}
}

// TestRemoteRuntimeOverTCP runs the same protocol over real sockets: rank
// servers and driver in one process, frames on localhost TCP — the full
// multi-process wire path minus fork/exec — on every rank grid.
func TestRemoteRuntimeOverTCP(t *testing.T) {
	const steps, temp = 15, 600.0
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}} {
		nr := grid[0] * grid[1] * grid[2]
		base := runTrajectory(t, RuntimeOptions{Grid: grid, Skin: 0.5}, steps, temp)
		tr := newLocalTCPGroup(t, nr+1)
		checkRemoteBitwise(t, "tcp", grid, tr, base, steps, temp, func(rr *RemoteRuntime) {
			if links := rr.LinkStats(); len(links) == 0 {
				t.Errorf("grid %v: TCP transport reported no link statistics", grid)
			}
		})
		base.Close()
	}
}

// slowRanks delays every receive of the rank endpoints (ranks < nr) — rank
// servers that are busy whenever the driver sends — and leaves the
// driver's endpoint as it is.
type slowRanks struct {
	transport.Transport
	nr    int
	delay time.Duration
}

type slowEndpoint struct {
	transport.Endpoint
	delay time.Duration
}

func (s slowRanks) Endpoint(r int) (transport.Endpoint, error) {
	ep, err := s.Transport.Endpoint(r)
	if err != nil || r >= s.nr {
		return ep, err
	}
	return slowEndpoint{ep, s.delay}, nil
}

func (e slowEndpoint) Recv(f *transport.Frame) error {
	time.Sleep(e.delay)
	return e.Endpoint.Recv(f)
}

// TestRemoteRuntimeCloseWaitsForRanks: the driver may close the transport
// only after every rank has read its shutdown frame. A rank that comes
// back to its receive after the wire closed would fail with a closed
// transport instead of exiting cleanly.
func TestRemoteRuntimeCloseWaitsForRanks(t *testing.T) {
	grid := [3]int{2, 1, 1}
	const nr = 2
	tr := slowRanks{transport.NewChan(nr + 1), nr, 30 * time.Millisecond}
	errs := startRankServers(t, tr, nr)
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rr, err := NewRemoteRuntime(tinyModel(t), sys, RemoteOptions{Grid: grid, Skin: 0.5, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	sim := md.NewDecomposedSim(sys, rr, 0.5)
	sim.Run(2)
	if rr.Err() != nil {
		t.Fatalf("remote run failed: %v", rr.Err())
	}
	rr.Close()
	for r := 0; r < nr; r++ {
		if err := <-errs; err != nil {
			t.Errorf("rank server: %v", err)
		}
	}
}
