package domain

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/md"
)

// runTrajectory advances an NVE trajectory on a fresh clone of the water box
// under a decomposed runtime and returns the simulation (caller reads
// positions/forces/energy). Identical velocity seeding everywhere.
func runTrajectory(t *testing.T, opts RuntimeOptions, steps int, tempK float64) *md.DecomposedSim {
	t.Helper()
	m := tinyModel(t)
	sys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	rt, err := NewRuntime(m, sys, opts)
	if err != nil {
		t.Fatalf("grid %v skin %g: %v", opts.Grid, opts.Skin, err)
	}
	sim := md.NewDecomposedSim(sys, rt, 0.5)
	sim.InitVelocities(tempK, rand.New(rand.NewPCG(33, 34)))
	sim.Run(steps)
	return sim
}

// TestRuntimeTrajectoryBitwiseAcrossGridsAndSkins is the central property of
// the persistent runtime: NVE trajectories are bit-identical to the serial
// engine (core.Evaluator) and to the single-rank path for every rank grid
// and every Verlet skin — one per-center pair order and exact sums make the
// decomposition exact, not approximately correct. The trajectory is long
// and hot enough to trigger several rebuilds, so the rebuild schedule and
// migrations are covered too.
func TestRuntimeTrajectoryBitwiseAcrossGridsAndSkins(t *testing.T) {
	const steps, temp = 40, 600.0
	base := runTrajectory(t, RuntimeOptions{Grid: [3]int{1, 1, 1}, Skin: 0.5}, steps, temp)
	defer base.Close()

	serialSys := data.WaterBox(rand.New(rand.NewPCG(31, 32)), 3, 3, 3)
	ev := core.NewEvaluator(tinyModel(t))
	defer ev.Close()
	serial := md.NewSim(serialSys, ev, 0.5)
	serial.InitVelocities(temp, rand.New(rand.NewPCG(33, 34)))
	serial.Run(steps)
	if serial.Energy != base.Energy {
		t.Errorf("serial evaluator: energy %.17g != 1x1x1 %.17g", serial.Energy, base.Energy)
	}
	for i := range base.Sys.Pos {
		if serialSys.Pos[i] != base.Sys.Pos[i] || serial.Forces[i] != base.Forces[i] {
			t.Errorf("serial evaluator: atom %d diverged from 1x1x1: %v vs %v", i, serialSys.Pos[i], base.Sys.Pos[i])
			break
		}
	}

	variants := []RuntimeOptions{
		{Grid: [3]int{1, 1, 1}, Skin: 0},                      // rebuild every step
		{Grid: [3]int{1, 1, 1}, Skin: 0.8},                    // different rebuild cadence
		{Grid: [3]int{2, 1, 1}, Skin: 0.5},                    // split one axis
		{Grid: [3]int{2, 1, 1}, Skin: 0.25},                   // split + different skin
		{Grid: [3]int{2, 2, 2}, Skin: 0.5},                    // full 8-rank grid
		{Grid: [3]int{2, 2, 2}, Skin: 0.5, WorkersPerRank: 2}, // chunked eval inside ranks
		{Grid: [3]int{2, 2, 2}, Skin: 0},                      // 8 ranks, rebuild every step
	}
	for _, opts := range variants {
		sim := runTrajectory(t, opts, steps, temp)
		if sim.Energy != base.Energy {
			t.Errorf("grid %v skin %g: energy %.17g != base %.17g", opts.Grid, opts.Skin, sim.Energy, base.Energy)
		}
		for i := range base.Sys.Pos {
			if sim.Sys.Pos[i] != base.Sys.Pos[i] {
				t.Errorf("grid %v skin %g: position of atom %d diverged: %v vs %v",
					opts.Grid, opts.Skin, i, sim.Sys.Pos[i], base.Sys.Pos[i])
				break
			}
			if sim.Forces[i] != base.Forces[i] {
				t.Errorf("grid %v skin %g: force on atom %d diverged", opts.Grid, opts.Skin, i)
				break
			}
		}
		sim.Close()
	}
}

// TestRuntimeMatchesSingleRankSim checks the satellite identity in its
// md-level form: a DecomposedSim on a rank grid reproduces a single-rank
// md.Sim (runtime-backed InPlacePotential through the ordinary NewSim path)
// bit for bit.
func TestRuntimeMatchesSingleRankSim(t *testing.T) {
	m := tinyModel(t)
	sysA := data.WaterBox(rand.New(rand.NewPCG(41, 42)), 3, 3, 3)
	rtA, err := NewRuntime(m, sysA, RuntimeOptions{Grid: [3]int{1, 1, 1}, Skin: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	defer rtA.Close()
	simA := md.NewSim(sysA, rtA, 0.5) // plain Sim, in-place fast path
	simA.InitVelocities(500, rand.New(rand.NewPCG(43, 44)))

	sysB := data.WaterBox(rand.New(rand.NewPCG(41, 42)), 3, 3, 3)
	rtB, err := NewRuntime(m, sysB, RuntimeOptions{Grid: [3]int{2, 2, 1}, Skin: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	simB := md.NewDecomposedSim(sysB, rtB, 0.5)
	defer simB.Close()
	simB.InitVelocities(500, rand.New(rand.NewPCG(43, 44)))

	simA.Run(25)
	simB.Run(25)
	if simA.Energy != simB.Energy {
		t.Fatalf("energies diverged: %.17g vs %.17g", simA.Energy, simB.Energy)
	}
	for i := range sysA.Pos {
		if sysA.Pos[i] != sysB.Pos[i] {
			t.Fatalf("positions diverged at atom %d", i)
		}
	}
}

// TestRuntimeMigration drives a hot trajectory with a tight skin so atoms
// provably cross subdomain boundaries mid-run: the runtime must observe
// migrations (ownership changes at rebuilds) and still match the
// single-rank trajectory exactly.
func TestRuntimeMigration(t *testing.T) {
	const steps, temp = 80, 1500.0
	base := runTrajectory(t, RuntimeOptions{Grid: [3]int{1, 1, 1}, Skin: 0.3}, steps, temp)
	defer base.Close()
	sim := runTrajectory(t, RuntimeOptions{Grid: [3]int{2, 1, 1}, Skin: 0.3}, steps, temp)
	defer sim.Close()

	st := sim.Runtime.(*Runtime).Stats()
	if st.Rebuilds < 3 {
		t.Fatalf("expected several rebuilds on a hot trajectory, got %d", st.Rebuilds)
	}
	if st.Migrations == 0 {
		t.Fatalf("expected atoms to cross subdomain boundaries (rebuilds=%d)", st.Rebuilds)
	}
	for i := range base.Sys.Pos {
		if sim.Sys.Pos[i] != base.Sys.Pos[i] {
			t.Fatalf("trajectory diverged at atom %d after migrations", i)
		}
	}
}

// TestRuntimeStepZeroAllocSteadyState pins the steady-state contract: with
// warm lists and no rebuild trigger, a decomposed step — ghost exchange
// hidden behind the interior block, the reverse partial exchange, and the
// pipelined ready callbacks — performs zero heap allocations across the
// driver and every rank. The 2x2x2 grid has peers that race ahead, so its
// ranks park ghost and partial frames in their reserved pools.
func TestRuntimeStepZeroAllocSteadyState(t *testing.T) {
	for _, grid := range [][3]int{{2, 1, 1}, {2, 2, 2}} {
		t.Run(fmt.Sprintf("%dx%dx%d", grid[0], grid[1], grid[2]), func(t *testing.T) {
			m := tinyModel(t)
			sys := data.WaterBox(rand.New(rand.NewPCG(51, 52)), 3, 3, 3)
			rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: grid, Skin: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			forces := make([][3]float64, sys.NumAtoms())
			delivered := 0
			ready := func(atoms []int32) { delivered += len(atoms) }
			rt.EnergyForcesOverlap(sys, forces, ready) // first build
			rt.EnergyForcesOverlap(sys, forces, ready) // warm arenas
			rebuilds := rt.Stats().Rebuilds
			delivered = 0
			allocs := testing.AllocsPerRun(20, func() {
				rt.EnergyForcesOverlap(sys, forces, ready)
			})
			if got := rt.Stats().Rebuilds; got != rebuilds {
				t.Fatalf("positions are static but lists were rebuilt (%d -> %d)", rebuilds, got)
			}
			if allocs != 0 {
				t.Errorf("steady-state Runtime step allocates %.1f allocs/op, want 0", allocs)
			}
			// AllocsPerRun executes runs+1 calls; every atom must have been
			// delivered exactly once per call.
			if want := 21 * sys.NumAtoms(); delivered != want {
				t.Errorf("ready delivered %d atom entries, want %d", delivered, want)
			}
		})
	}
}

// TestRuntimeValidation covers the skin invariants beyond the halo and
// periodicity checks of TestOptionsValidate.
func TestRuntimeValidation(t *testing.T) {
	m := tinyModel(t)
	sys := data.WaterBox(rand.New(rand.NewPCG(61, 62)), 3, 3, 3)
	if _, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{3, 1, 1}, Skin: 0.5}); err == nil {
		t.Fatal("halo+skin wider than the subdomain must be rejected")
	}
	if _, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{1, 1, 1}, Skin: -0.1}); err == nil {
		t.Fatal("negative skin must be rejected")
	}
	rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumRanks() != 2 {
		t.Fatalf("NumRanks = %d, want 2", rt.NumRanks())
	}
	rt.Close()
	rt.Close() // idempotent
}

// TestRuntimeEmptyRank pins the empty-subdomain case: a rank that owns no
// atoms (vacuum gap) must center no pairs — it must not fall into the
// builder's "CenterLimit 0 = all atoms" convention and double-count other
// ranks' work.
func TestRuntimeEmptyRank(t *testing.T) {
	m := tinyModel(t)
	rng := rand.New(rand.NewPCG(71, 72))
	sys := data.WaterBox(rng, 3, 3, 3)
	// Stretch the box along x: all atoms stay in [0, 9.32), the second
	// subdomain of a 2x1x1 grid is pure vacuum.
	sys.Cell[0] *= 2
	eSerial, fSerial := m.EnergyForces(sys)

	e, f, st := evaluateOnce(t, m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Halo: 3.0})
	if e != eSerial {
		t.Fatalf("energy with an empty rank: %.17g vs serial %.17g", e, eSerial)
	}
	for i := range fSerial {
		if f[i] != fSerial[i] {
			t.Fatalf("force mismatch at atom %d with an empty rank: %v vs %v", i, f[i], fSerial[i])
		}
	}
	if st.MaxOwned != sys.NumAtoms() {
		t.Fatalf("one rank should own all %d atoms, MaxOwned=%d", sys.NumAtoms(), st.MaxOwned)
	}
}

// validatePartition checks the interior/frontier split of every rank server
// the runtime holds: the two blocks are disjoint and cover the rank's whole
// canonical pair list, interior pairs reference no ghost data, and every
// frontier center has at least one ghost neighbor. Across ranks, every
// (global center, global neighbor, image) pair lives on exactly one rank,
// every atom is owned — so rounded — by exactly one rank, and each ghost
// arena slot's partial reaches its owner exactly once per step: folded
// locally for a self-owned image, else sent to the owning rank, whose
// transposed plan entry names the same atom.
func validatePartition(t *testing.T, rt *Runtime) {
	t.Helper()
	type pairKey struct{ center, neighbor, image int32 }
	pairSeen := map[pairKey]int{}
	ownedBy := make([]int, rt.rr.n)
	for _, srv := range rt.servers {
		rk := srv.rk
		p := &rk.pairs
		if rk.nInterior < 0 || rk.nInterior > p.Len() {
			t.Fatalf("rank %d: nInterior %d out of range [0,%d]", rk.id, rk.nInterior, p.Len())
		}
		if rk.intView.Len()+rk.frontView.Len() != p.Len() {
			t.Fatalf("rank %d: interior %d + frontier %d != %d pairs",
				rk.id, rk.intView.Len(), rk.frontView.Len(), p.Len())
		}
		for z := 0; z < p.Len(); z++ {
			pairSeen[pairKey{rk.gOf[p.I[z]], rk.gOf[p.J[z]], int32(rk.code[p.J[z]])}]++
			if z < rk.nInterior && p.J[z] >= rk.nOwned {
				t.Fatalf("rank %d: interior pair %d references ghost neighbor", rk.id, z)
			}
		}
		// Every frontier center block must touch at least one ghost.
		for blo := rk.nInterior; blo < p.Len(); {
			bhi := blo + 1
			for bhi < p.Len() && p.I[bhi] == p.I[blo] {
				bhi++
			}
			hasGhost := false
			for z := blo; z < bhi; z++ {
				if p.J[z] >= rk.nOwned {
					hasGhost = true
				}
			}
			if !hasGhost {
				t.Fatalf("rank %d: frontier center %d has no ghost neighbor", rk.id, p.I[blo])
			}
			blo = bhi
		}
		for _, a := range rk.gOf[:rk.nOwned] {
			ownedBy[a]++
		}

		// Ghost partial routes: each arena slot is routed exactly once.
		routed := make([]int, rk.nGhosts)
		for k, idx := range rk.selfGhostIdx {
			routed[idx]++
			if own, g := rk.selfGhostOwn[k], rk.gOf[rk.nOwned+int(idx)]; own >= int32(rk.nOwned) || rk.gOf[own] != g {
				t.Fatalf("rank %d: self image of atom %d folds into local atom %d", rk.id, g, own)
			}
		}
		for s, arena := range rk.fwdArena {
			if len(arena) == 0 {
				continue
			}
			peer := rt.servers[s].rk
			back := peer.sendFwd[rk.id]
			if s == rk.id || len(back) != len(arena) {
				t.Fatalf("rank %d: %d ghosts planned from rank %d, which packs %d", rk.id, len(arena), s, len(back))
			}
			for k, idx := range arena {
				routed[idx]++
				g := rk.gOf[rk.nOwned+int(idx)]
				if rk.h.owner[g] != int32(s) || peer.gOf[back[k]] != g || back[k] >= int32(peer.nOwned) {
					t.Fatalf("rank %d: ghost slot %d (atom %d) routes to rank %d local %d", rk.id, idx, g, s, back[k])
				}
			}
		}
		for idx, c := range routed {
			if c != 1 {
				t.Fatalf("rank %d: ghost slot %d routed %d times", rk.id, idx, c)
			}
		}
	}
	for k, c := range pairSeen {
		if c != 1 {
			t.Fatalf("pair %+v lives on %d ranks", k, c)
		}
	}
	if len(pairSeen) != rt.Stats().PairWork {
		t.Fatalf("%d distinct pairs across ranks, PairWork %d", len(pairSeen), rt.Stats().PairWork)
	}
	for a, c := range ownedBy {
		if c != 1 {
			t.Fatalf("atom %d owned and rounded by %d ranks", a, c)
		}
	}
}

// TestRuntimePartitionProperty is the partition property test of the rank
// step: across rank grids, skins, and halo overrides — and through
// boundary-crossing migrations on a hot trajectory — every rank's interior
// and frontier blocks together are exactly its canonical pair list, every
// pair lives on one rank, and every ghost partial has one route home.
func TestRuntimePartitionProperty(t *testing.T) {
	m := tinyModel(t)
	cases := []RuntimeOptions{
		{Grid: [3]int{1, 1, 1}, Skin: 0.5},
		{Grid: [3]int{2, 1, 1}, Skin: 0.5},
		{Grid: [3]int{2, 1, 1}, Skin: 0.25},
		{Grid: [3]int{2, 2, 2}, Skin: 0.5},
		{Grid: [3]int{2, 1, 1}, Skin: 0.5, Halo: 2.0}, // halo override (under-import ablation)
		{Grid: [3]int{2, 2, 1}, Skin: 0.4, Halo: 3.5}, // halo override above the cutoff
	}
	for _, opts := range cases {
		sys := data.WaterBox(rand.New(rand.NewPCG(91, 92)), 3, 3, 3)
		rt, err := NewRuntime(m, sys, opts)
		if err != nil {
			t.Fatalf("grid %v halo %g: %v", opts.Grid, opts.Halo, err)
		}
		sim := md.NewDecomposedSim(sys, rt, 0.5)
		sim.InitVelocities(1200, rand.New(rand.NewPCG(93, 94))) // hot: forces migrations
		validatePartition(t, rt)                                // after the first build
		preMig := rt.Stats().Migrations
		sim.Run(60)
		validatePartition(t, rt) // after rebuilds mid-trajectory
		if opts.Grid != [3]int{1, 1, 1} && rt.Stats().Migrations == preMig {
			t.Logf("grid %v halo %g: no migrations observed (partition still validated)", opts.Grid, opts.Halo)
		}
		sim.Close()
	}
}

// TestRuntimeOverlapProperties pins the step bookkeeping: interior plus
// frontier pair work matches the total, phase timers advance, the overlap
// fraction is a fraction, and the ready batches — one per rank, each that
// rank's owned atoms in ascending order — cover every atom exactly once.
func TestRuntimeOverlapProperties(t *testing.T) {
	m := tinyModel(t)
	sys := data.WaterBox(rand.New(rand.NewPCG(81, 82)), 3, 3, 3)
	rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{2, 2, 1}, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	forces := make([][3]float64, sys.NumAtoms())
	var batches [][]int32
	ready := func(atoms []int32) {
		cp := make([]int32, len(atoms))
		copy(cp, atoms)
		batches = append(batches, cp)
	}
	for i := 0; i < 5; i++ {
		batches = batches[:0]
		rt.EnergyForcesOverlap(sys, forces, ready)
		if len(batches) != rt.NumRanks() {
			t.Fatalf("got %d ready batches, want one per rank (%d)", len(batches), rt.NumRanks())
		}
		seen := make([]int, sys.NumAtoms())
		for _, b := range batches {
			for k, a := range b {
				if k > 0 && b[k-1] >= a {
					t.Fatalf("ready batch not in ascending atom order: %v", b)
				}
				seen[a]++
			}
		}
		for a, c := range seen {
			if c != 1 {
				t.Fatalf("atom %d delivered %d times", a, c)
			}
		}
	}
	st := rt.Stats()
	if st.InteriorPairs < 0 || st.InteriorPairs > st.PairWork {
		t.Fatalf("InteriorPairs %d out of [0,%d]", st.InteriorPairs, st.PairWork)
	}
	if st.CommWallNs <= 0 || st.FrontierNs <= 0 || st.ReduceNs <= 0 {
		t.Fatalf("phase timers did not advance: %+v", st)
	}
	// Interior time is self-timed on the ranks: zero is honest when the
	// grid leaves no interior region, positive otherwise.
	if st.InteriorPairs > 0 && st.InteriorNs <= 0 {
		t.Fatalf("%d interior pairs but no interior time", st.InteriorPairs)
	}
	// Falsifiable accounting guard (the fraction is clamped at the source):
	// every rank's ghost wait is a sub-interval of its own post-to-staged
	// wall, so the slowest waits can never sum past the slowest walls.
	if st.ExchangeWaitNs < 0 || st.ExchangeWaitNs > st.CommWallNs {
		t.Fatalf("exchange wait %d outside the exchange wall %d", st.ExchangeWaitNs, st.CommWallNs)
	}
	if f := st.OverlapFraction(); f < 0 || f > 1 {
		t.Fatalf("overlap fraction %g out of [0,1]", f)
	}
}
