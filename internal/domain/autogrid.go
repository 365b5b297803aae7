package domain

import (
	"runtime"

	"repro/internal/atoms"
)

// MinAtomsPerRank is the smallest owned-atom count worth paying a rank's
// coordination overhead for — the CPU-goroutine analogue of the paper's
// GPU saturation knee (perfmodel.SaturationAtoms, ~500 atoms/GPU below which
// under-occupancy dominates), scaled down because a rank here is a
// goroutine with channel handshakes rather than a kernel launch pipeline.
const MinAtomsPerRank = 48

// AutoGrid picks a rank grid for decomposed MD of sys with ghost halo
// `halo` (the model's largest cutoff) and Verlet skin `skin`: the choice
// behind allegro.WithAutoDecompose.
//
// The rank budget is min(maxRanks, atoms/MinAtomsPerRank) — decomposing
// below the saturation knee slows a run down, exactly as the paper observes
// at scale. Within the budget the grid greedily doubles along the dimension
// with the widest remaining subdomain, keeping every subdomain at least
// halo+skin wide (the decomposition validity constraint). maxRanks <= 0
// selects GOMAXPROCS. Systems that cannot be decomposed (non-periodic,
// too small, or halo-dominated) yield {1,1,1}.
func AutoGrid(sys *atoms.System, halo, skin float64, maxRanks int) [3]int {
	grid := [3]int{1, 1, 1}
	if sys == nil || !sys.PBC || halo <= 0 || skin < 0 {
		return grid
	}
	if maxRanks <= 0 {
		maxRanks = runtime.GOMAXPROCS(0)
	}
	budget := maxRanks
	if byAtoms := sys.NumAtoms() / MinAtomsPerRank; byAtoms < budget {
		budget = byAtoms
	}
	if budget < 2 {
		return grid
	}
	haloTot := halo + skin
	var maxDiv [3]int
	for k := 0; k < 3; k++ {
		// Mirror validateRuntime: the minimum-image refresh needs
		// halo + 2*skin within half the cell regardless of the grid, and
		// every subdomain must be at least halo+skin wide.
		if 2*(haloTot+skin) > sys.Cell[k] {
			return grid
		}
		maxDiv[k] = int(sys.Cell[k] / haloTot)
		if maxDiv[k] < 1 {
			maxDiv[k] = 1
		}
	}
	for {
		ranks := grid[0] * grid[1] * grid[2]
		best, bestW := -1, 0.0
		for k := 0; k < 3; k++ {
			if 2*grid[k] > maxDiv[k] || 2*ranks > budget {
				continue
			}
			if w := sys.Cell[k] / float64(grid[k]); w > bestW {
				best, bestW = k, w
			}
		}
		if best < 0 {
			return grid
		}
		grid[best] *= 2
	}
}
