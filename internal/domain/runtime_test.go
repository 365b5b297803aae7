package domain

import (
	"math/rand/v2"
	"testing"

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
// the persistent runtime: NVE trajectories are bit-identical to the
// single-rank path for every rank grid and every Verlet skin — the
// canonical slot ordering makes the decomposition exact, not approximately
// correct. The trajectory is long and hot enough to trigger several
// rebuilds, so the rebuild schedule and migrations are covered too.
func TestRuntimeTrajectoryBitwiseAcrossGridsAndSkins(t *testing.T) {
	const steps, temp = 40, 600.0
	base := runTrajectory(t, RuntimeOptions{Grid: [3]int{1, 1, 1}, Skin: 0.5}, steps, temp)
	defer base.Close()
	variants := []RuntimeOptions{
		{Grid: [3]int{1, 1, 1}, Skin: 0},                      // rebuild every step
		{Grid: [3]int{1, 1, 1}, Skin: 0.8},                    // different rebuild cadence
		{Grid: [3]int{2, 1, 1}, Skin: 0.5},                    // split one axis
		{Grid: [3]int{2, 1, 1}, Skin: 0.25},                   // split + different skin
		{Grid: [3]int{2, 2, 2}, Skin: 0.5},                    // full 8-rank grid
		{Grid: [3]int{2, 2, 2}, Skin: 0.5, WorkersPerRank: 2}, // chunked eval inside ranks
		// The communication-hiding pipeline must not change a single bit:
		// same variants with the overlapped schedule.
		{Grid: [3]int{1, 1, 1}, Skin: 0.5, Overlap: true},
		{Grid: [3]int{2, 1, 1}, Skin: 0.5, Overlap: true},
		{Grid: [3]int{2, 1, 1}, Skin: 0.25, Overlap: true},
		{Grid: [3]int{2, 2, 2}, Skin: 0.5, Overlap: true},
		{Grid: [3]int{2, 2, 2}, Skin: 0.5, WorkersPerRank: 2, Overlap: true},
		{Grid: [3]int{2, 2, 2}, Skin: 0, Overlap: true}, // overlap + rebuild every step
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
// warm lists and no rebuild trigger, a decomposed step performs zero heap
// allocations across all rank workers — with the bulk-synchronous schedule
// and with the overlap pipeline (async exchange, split reduction, pipelined
// ready callbacks) alike.
func TestRuntimeStepZeroAllocSteadyState(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		name := "sync"
		if overlap {
			name = "overlap"
		}
		t.Run(name, func(t *testing.T) {
			m := tinyModel(t)
			sys := data.WaterBox(rand.New(rand.NewPCG(51, 52)), 3, 3, 3)
			rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Skin: 0.5, Overlap: overlap})
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
	if diff := e - eSerial; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("energy with an empty rank: %.12g vs serial %.12g", e, eSerial)
	}
	for i := range fSerial {
		for k := 0; k < 3; k++ {
			if d := f[i][k] - fSerial[i][k]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("force mismatch at atom %d with an empty rank", i)
			}
		}
	}
	if st.MaxOwned != sys.NumAtoms() {
		t.Fatalf("one rank should own all %d atoms, MaxOwned=%d", sys.NumAtoms(), st.MaxOwned)
	}
}

// validatePartition checks the interior/frontier split of every rank
// against the canonical slot layout: the two blocks are disjoint, cover the
// rank's whole canonical pair list, map onto the global slot space exactly
// once (no duplicates, no drops), interior pairs reference no ghost data,
// and every frontier center has at least one ghost neighbor. It also checks
// the split reduction plan covers every owned atom exactly once.
func validatePartition(t *testing.T, rt *Runtime) {
	t.Helper()
	slotSeen := make([]int, rt.nPairs)
	for _, rk := range rt.ranks {
		p := &rk.pairs
		if rk.nInterior < 0 || rk.nInterior > p.Len() {
			t.Fatalf("rank %d: nInterior %d out of range [0,%d]", rk.id, rk.nInterior, p.Len())
		}
		if rk.intView.Len()+rk.frontView.Len() != p.Len() {
			t.Fatalf("rank %d: interior %d + frontier %d != %d pairs",
				rk.id, rk.intView.Len(), rk.frontView.Len(), p.Len())
		}
		for z := 0; z < p.Len(); z++ {
			slotSeen[rk.slotOf[z]]++
			if z < rk.nInterior {
				if p.J[z] >= rk.nOwned {
					t.Fatalf("rank %d: interior pair %d references ghost neighbor", rk.id, z)
				}
				if rt.interiorSlot[rk.slotOf[z]] != true {
					t.Fatalf("rank %d: interior pair %d not marked in the slot classification", rk.id, z)
				}
			} else if rt.interiorSlot[rk.slotOf[z]] {
				t.Fatalf("rank %d: frontier pair %d marked interior in the slot classification", rk.id, z)
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
		// Split reduction plan: owned atoms covered exactly once.
		if len(rk.redInterior)+len(rk.redFrontier) != rk.nOwned {
			t.Fatalf("rank %d: reduction plan covers %d+%d atoms, owns %d",
				rk.id, len(rk.redInterior), len(rk.redFrontier), rk.nOwned)
		}
	}
	for s, c := range slotSeen {
		if c != 1 {
			t.Fatalf("slot %d assigned %d times (interior+frontier must cover the canonical list exactly)", s, c)
		}
	}
	// Ready lists partition the atom set.
	if len(rt.readyInterior)+len(rt.readyFrontier) != rt.n {
		t.Fatalf("ready lists cover %d+%d atoms of %d",
			len(rt.readyInterior), len(rt.readyFrontier), rt.n)
	}
}

// TestRuntimePartitionProperty is the partition property test of the
// overlap pipeline: across rank grids, skins, and halo overrides — and
// through boundary-crossing migrations on a hot trajectory — every rank's
// interior and frontier blocks together are exactly its canonical pair
// list, projected onto the global slot space with no duplicate and no drop.
func TestRuntimePartitionProperty(t *testing.T) {
	m := tinyModel(t)
	cases := []RuntimeOptions{
		{Grid: [3]int{1, 1, 1}, Skin: 0.5, Overlap: true},
		{Grid: [3]int{2, 1, 1}, Skin: 0.5, Overlap: true},
		{Grid: [3]int{2, 1, 1}, Skin: 0.25},
		{Grid: [3]int{2, 2, 2}, Skin: 0.5, Overlap: true},
		{Grid: [3]int{2, 1, 1}, Skin: 0.5, Halo: 2.0, Overlap: true}, // halo override (under-import ablation)
		{Grid: [3]int{2, 2, 1}, Skin: 0.4, Halo: 3.5, Overlap: true}, // halo override above the cutoff
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

// TestRuntimeOverlapProperties pins the pipeline bookkeeping: interior plus
// frontier pair work matches the total, phase timers advance, the sync
// schedule exposes (essentially all of) the exchange wall, and the ready
// batches partition the atoms identically in both modes.
func TestRuntimeOverlapProperties(t *testing.T) {
	m := tinyModel(t)
	for _, overlap := range []bool{false, true} {
		sys := data.WaterBox(rand.New(rand.NewPCG(81, 82)), 3, 3, 3)
		rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: [3]int{2, 2, 1}, Skin: 0.5, Overlap: overlap})
		if err != nil {
			t.Fatal(err)
		}
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
			if len(batches) != 2 {
				t.Fatalf("overlap=%v: got %d ready batches, want 2", overlap, len(batches))
			}
			if len(batches[0])+len(batches[1]) != sys.NumAtoms() {
				t.Fatalf("overlap=%v: batches deliver %d+%d atoms of %d",
					overlap, len(batches[0]), len(batches[1]), sys.NumAtoms())
			}
		}
		st := rt.Stats()
		if st.InteriorPairs < 0 || st.InteriorPairs > st.PairWork {
			t.Fatalf("overlap=%v: InteriorPairs %d out of [0,%d]", overlap, st.InteriorPairs, st.PairWork)
		}
		if st.CommWallNs <= 0 || st.FrontierNs <= 0 || st.ReduceNs <= 0 {
			t.Fatalf("overlap=%v: phase timers did not advance: %+v", overlap, st)
		}
		// Interior time is self-timed on the ranks: zero is honest when the
		// grid leaves no interior region, positive otherwise.
		if st.InteriorPairs > 0 && st.InteriorNs <= 0 {
			t.Fatalf("overlap=%v: %d interior pairs but no interior time", overlap, st.InteriorPairs)
		}
		// Falsifiable accounting guard (the [0,1] range alone is clamped at
		// the source): under the bulk-synchronous schedule the exposed wait
		// spans the entire pack wall — send, pack, and receive — so the
		// fraction must come out exactly 0; any mode mix-up in the
		// ExchangeWaitNs/CommWallNs accumulation breaks this.
		if !overlap {
			if f := st.OverlapFraction(); f != 0 {
				t.Fatalf("bulk-synchronous schedule must expose the whole exchange, got fraction %g", f)
			}
		} else if f := st.OverlapFraction(); f < 0 || f > 1 {
			t.Fatalf("overlap fraction %g out of [0,1]", f)
		}
		rt.Close()
	}
}
