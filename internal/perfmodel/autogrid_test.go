package perfmodel

import (
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/data"
	"repro/internal/domain"
)

func TestAutoGridRespectsConstraints(t *testing.T) {
	sys := data.WaterBox(rand.New(rand.NewPCG(1, 2)), 4, 4, 4) // 192 atoms
	const halo, skin = 3.0, 0.5
	grid := AutoGrid(sys, halo, skin, 8)
	ranks := grid[0] * grid[1] * grid[2]
	if ranks < 2 {
		t.Fatalf("grid %v: expected a real decomposition for 192 atoms on 8 ranks", grid)
	}
	if ranks > 8 {
		t.Fatalf("grid %v exceeds the rank budget", grid)
	}
	if ranks > sys.NumAtoms()/MinAtomsPerRank {
		t.Fatalf("grid %v drops below MinAtomsPerRank=%d atoms/rank", grid, MinAtomsPerRank)
	}
	for k := 0; k < 3; k++ {
		if sub := sys.Cell[k] / float64(grid[k]); sub < halo+skin {
			t.Fatalf("grid %v: subdomain width %.2f < halo+skin along %d", grid, sub, k)
		}
	}
}

func TestAutoGridDegenerateCases(t *testing.T) {
	one := [3]int{1, 1, 1}
	// Non-periodic systems cannot be decomposed.
	free := atoms.NewSystem(500)
	if g := AutoGrid(free, 3, 0.5, 8); g != one {
		t.Fatalf("non-periodic: %v", g)
	}
	// Too few atoms to be worth a second rank.
	small := atoms.NewSystem(MinAtomsPerRank)
	small.PBC = true
	small.Cell = [3]float64{30, 30, 30}
	if g := AutoGrid(small, 3, 0.5, 8); g != one {
		t.Fatalf("sub-knee system: %v", g)
	}
	// Halo wider than any half-cell: decomposition invalid.
	tiny := atoms.NewSystem(1000)
	tiny.PBC = true
	tiny.Cell = [3]float64{5, 5, 5}
	if g := AutoGrid(tiny, 3, 0.5, 8); g != one {
		t.Fatalf("halo-dominated: %v", g)
	}
	if g := AutoGrid(nil, 3, 0.5, 8); g != one {
		t.Fatalf("nil system: %v", g)
	}
}

// TestAutoGridValidForRuntime feeds the picked grid into the runtime
// constructor: whatever AutoGrid returns must construct.
func TestAutoGridValidForRuntime(t *testing.T) {
	m, _ := measuredFixture(t) // cutoff 3 A
	rng := rand.New(rand.NewPCG(3, 4))
	for _, nx := range []int{3, 4, 5} {
		sys := data.WaterBox(rng, nx, nx, 3)
		grid := AutoGrid(sys, 3.0, 0.5, 16)
		rt, err := domain.NewRuntime(m, sys, domain.RuntimeOptions{Grid: grid, Halo: 3.0, Skin: 0.5})
		if err != nil {
			t.Fatalf("nx=%d grid %v rejected: %v", nx, grid, err)
		}
		rt.Close()
	}
}
