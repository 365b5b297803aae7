package neighbor

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/atoms"
	"repro/internal/units"
)

// randomPeriodic builds a random periodic system of n atoms drawn from the
// given species in a cubic box of the given edge.
func randomPeriodic(rng *rand.Rand, n int, edge float64, species []units.Species) *atoms.System {
	sys := atoms.NewSystem(n)
	sys.PBC = true
	sys.Cell = [3]float64{edge, edge, edge}
	for i := 0; i < n; i++ {
		sys.Species[i] = species[rng.IntN(len(species))]
		// Positions deliberately outside [0,edge) too: builds must wrap.
		for k := 0; k < 3; k++ {
			sys.Pos[i][k] = (rng.Float64()*3 - 1) * edge
		}
	}
	return sys
}

// pairKey is a canonical sortable representation of one pair.
type pairKey struct {
	i, j int
	dist float64
}

func sortedPairs(p *Pairs) []pairKey {
	keys := make([]pairKey, p.NumReal)
	for z := 0; z < p.NumReal; z++ {
		keys[z] = pairKey{p.I[z], p.J[z], p.Dist[z]}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		if keys[a].j != keys[b].j {
			return keys[a].j < keys[b].j
		}
		return keys[a].dist < keys[b].dist
	})
	return keys
}

// TestBuilderWorkerCountInvariance is the property test of the parallel
// build: on random periodic systems, workers=1 and workers=N produce
// identical pair lists — not only as sorted sets but element-for-element,
// because chunked shards merge in atom order.
func TestBuilderWorkerCountInvariance(t *testing.T) {
	species := []units.Species{units.H, units.C, units.O}
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 8; trial++ {
		n := 32 + rng.IntN(200)
		edge := 9.0 + 6*rng.Float64()
		sys := randomPeriodic(rng, n, edge, species)
		cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))

		serial := Builder{Workers: 1}
		var pSerial Pairs
		serial.BuildInto(&pSerial, sys, cuts)

		for _, workers := range []int{2, 3, 7, 16} {
			par := Builder{Workers: workers}
			var pPar Pairs
			par.BuildInto(&pPar, sys, cuts)
			par.Close()
			if pPar.NumReal != pSerial.NumReal {
				t.Fatalf("trial %d workers=%d: %d pairs vs %d serial",
					trial, workers, pPar.NumReal, pSerial.NumReal)
			}
			for z := 0; z < pSerial.NumReal; z++ {
				if pPar.I[z] != pSerial.I[z] || pPar.J[z] != pSerial.J[z] ||
					pPar.Vec[z] != pSerial.Vec[z] || pPar.Dist[z] != pSerial.Dist[z] ||
					pPar.Cut[z] != pSerial.Cut[z] {
					t.Fatalf("trial %d workers=%d: pair %d differs from serial", trial, workers, z)
				}
			}
			if err := pPar.Validate(); err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
		}
	}
}

// TestBuilderMatchesBuild checks the Builder against the package-level Build
// on small aperiodic systems (the O(N^2) path) as well.
func TestBuilderMatchesBuild(t *testing.T) {
	species := []units.Species{units.H, units.O}
	rng := rand.New(rand.NewPCG(5, 11))
	sys := atoms.NewSystem(40)
	for i := range sys.Species {
		sys.Species[i] = species[rng.IntN(2)]
		for k := 0; k < 3; k++ {
			sys.Pos[i][k] = rng.Float64() * 12
		}
	}
	cuts := NewCutoffTable(atoms.NewSpeciesIndex(species), 4.0)
	ref := Build(sys, cuts)
	for _, workers := range []int{1, 4} {
		b := Builder{Workers: workers}
		var p Pairs
		b.BuildInto(&p, sys, cuts)
		got := sortedPairs(&p)
		want := sortedPairs(ref)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs vs %d reference", workers, len(got), len(want))
		}
		for z := range got {
			if got[z] != want[z] {
				t.Fatalf("workers=%d: pair %d mismatch: %v vs %v", workers, z, got[z], want[z])
			}
		}
	}
}

// TestBuilderSteadyStateAllocs asserts the zero-allocation contract: after a
// warm-up build, repeated builds on same-size systems allocate nothing.
func TestBuilderSteadyStateAllocs(t *testing.T) {
	species := []units.Species{units.H, units.O}
	rng := rand.New(rand.NewPCG(9, 3))
	sys := randomPeriodic(rng, 300, 14, species)
	cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))
	for _, workers := range []int{1, 4} {
		b := Builder{Workers: workers}
		defer b.Close()
		var p Pairs
		b.BuildInto(&p, sys, cuts) // warm-up sizes the scratch
		allocs := testing.AllocsPerRun(20, func() {
			// Positions drift slightly, as in MD; counts stay stable.
			for i := range sys.Pos {
				sys.Pos[i][0] += 1e-7
			}
			b.BuildInto(&p, sys, cuts)
		})
		if allocs > 0 {
			t.Errorf("workers=%d: steady-state BuildInto allocates %.1f allocs/op, want 0", workers, allocs)
		}
	}
}

// TestBuilderReuseAcrossSizes checks that a Builder survives system-size
// changes (scratch regrows, results stay correct).
func TestBuilderReuseAcrossSizes(t *testing.T) {
	species := []units.Species{units.H, units.C, units.O}
	rng := rand.New(rand.NewPCG(1, 2))
	b := Builder{Workers: 3}
	defer b.Close()
	var p Pairs
	for _, n := range []int{20, 500, 64, 257} {
		sys := randomPeriodic(rng, n, 13, species)
		cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))
		b.BuildInto(&p, sys, cuts)
		want := Build(sys, cuts)
		if p.NumReal != want.NumReal {
			t.Fatalf("n=%d: %d pairs vs %d fresh", n, p.NumReal, want.NumReal)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestBuildOrderStable pins the contract that Build's pair order is
// ascending in the center atom (chunk merges depend on it).
// TestBuildOrderStable pins the pair order every reduction relies on:
// ascending center, then ascending neighbor index within each center, on
// the cell-list path (periodic and open) at any worker count.
func TestBuildOrderStable(t *testing.T) {
	species := []units.Species{units.H, units.O}
	rng := rand.New(rand.NewPCG(8, 8))
	open := randomPeriodic(rng, 600, 30, species)
	open.PBC = false // > 512 atoms: still binned
	cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))
	for _, sys := range []*atoms.System{randomPeriodic(rng, 150, 12, species), open} {
		for _, workers := range []int{1, 3} {
			b := Builder{Workers: workers}
			var p Pairs
			b.BuildInto(&p, sys, cuts)
			b.Close()
			for z := 1; z < p.NumReal; z++ {
				if p.I[z] < p.I[z-1] || p.I[z] == p.I[z-1] && p.J[z] <= p.J[z-1] {
					t.Fatalf("pbc=%v workers=%d pair %d: (%d,%d) after (%d,%d)",
						sys.PBC, workers, z, p.I[z], p.J[z], p.I[z-1], p.J[z-1])
				}
			}
		}
	}
}

func BenchmarkBuilderSteadyState(b *testing.B) {
	species := []units.Species{units.H, units.O}
	rng := rand.New(rand.NewPCG(3, 4))
	sys := randomPeriodic(rng, 1000, 21, species)
	cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			bld := Builder{Workers: workers}
			defer bld.Close()
			var p Pairs
			bld.BuildInto(&p, sys, cuts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld.BuildInto(&p, sys, cuts)
			}
			b.ReportMetric(float64(p.NumReal)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// TestBuilderSkinSuperset pins the Verlet-skin contract: a skin build is a
// superset of the exact build, extra pairs all sit in the skin shell
// (Dist >= Cut), and Cut still records the true ordered cutoff.
func TestBuilderSkinSuperset(t *testing.T) {
	species := []units.Species{units.H, units.O}
	rng := rand.New(rand.NewPCG(21, 22))
	// Edge large enough that the exact and the skin build both take the
	// cell-list path (identical displacement arithmetic, comparable bits).
	sys := randomPeriodic(rng, 260, 16, species)
	cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))

	exact := Build(sys, cuts)
	skin := 0.7
	var bld Builder
	bld.Skin = skin
	defer bld.Close()
	var p Pairs
	bld.BuildInto(&p, sys, cuts)
	if err := p.ValidateSkin(skin, sys, cuts); err != nil {
		t.Fatal(err)
	}
	// The cut-verification arm must actually bite: corrupt one skin pair's
	// recorded cutoff and expect ValidateSkin to reject it.
	for z := 0; z < p.NumReal; z++ {
		if p.Dist[z] >= p.Cut[z] { // a skin-shell pair
			saved := p.Cut[z]
			p.Cut[z] = p.Dist[z] + 1e-6 // plausible distance-wise, wrong table-wise
			if err := p.ValidateSkin(skin, sys, cuts); err == nil {
				t.Fatalf("ValidateSkin accepted corrupted Cut on skin pair %d", z)
			}
			p.Cut[z] = saved
			break
		}
	}
	if p.NumReal <= exact.NumReal {
		t.Fatalf("skin list (%d pairs) should exceed exact list (%d)", p.NumReal, exact.NumReal)
	}
	type vecKey struct {
		i, j int
		vec  [3]float64
	}
	inExact := map[vecKey]bool{}
	for z := 0; z < exact.NumReal; z++ {
		inExact[vecKey{exact.I[z], exact.J[z], exact.Vec[z]}] = true
	}
	found := 0
	for z := 0; z < p.NumReal; z++ {
		k := vecKey{p.I[z], p.J[z], p.Vec[z]}
		if inExact[k] {
			found++
			continue
		}
		if p.Dist[z] < p.Cut[z] {
			t.Fatalf("extra pair %d inside the true cutoff: dist %g < cut %g", z, p.Dist[z], p.Cut[z])
		}
	}
	if found != exact.NumReal {
		t.Fatalf("skin list covers %d of %d exact pairs", found, exact.NumReal)
	}
}

// TestBuilderCenterLimit pins the owned-centers contract used by the domain
// runtime: with CenterLimit k, exactly the pairs centered on atoms < k are
// built, identical to the unrestricted list filtered by center.
func TestBuilderCenterLimit(t *testing.T) {
	species := []units.Species{units.H, units.O}
	rng := rand.New(rand.NewPCG(23, 24))
	sys := randomPeriodic(rng, 120, 12, species)
	cuts := PaperBioCutoffs(atoms.NewSpeciesIndex(species))

	full := Build(sys, cuts)
	limit := 47
	keep := make([]bool, sys.NumAtoms())
	for i := 0; i < limit; i++ {
		keep[i] = true
	}
	want := full.FilterCenters(keep)

	var bld Builder
	bld.CenterLimit = limit
	defer bld.Close()
	var p Pairs
	bld.BuildInto(&p, sys, cuts)
	if p.NumReal != want.NumReal {
		t.Fatalf("center-limited build has %d pairs, want %d", p.NumReal, want.NumReal)
	}
	for z := 0; z < p.NumReal; z++ {
		if p.I[z] != want.I[z] || p.J[z] != want.J[z] || p.Vec[z] != want.Vec[z] {
			t.Fatalf("pair %d differs from filtered reference", z)
		}
	}
}
