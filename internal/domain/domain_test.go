package domain

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/neighbor"
	"repro/internal/units"
)

// tinyModel builds a small Allegro model with a reduced cutoff so that a
// 12.4 A water cell can host a 2x2x2 decomposition (halo <= subdomain).
func tinyModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	cfg.LMax = 1
	cfg.NumLayers = 2
	cfg.NumChannels = 2
	cfg.LatentDim = 8
	cfg.TwoBodyHidden = []int{8}
	cfg.LatentHidden = []int{8}
	cfg.EdgeHidden = 4
	cfg.NumBessel = 4
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	m, err := core.New(cfg, nil, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	m.SetScaleShift(1.5, []float64{-0.5, -1.5})
	return m
}

// evaluateOnce is a one-shot decomposed evaluation: a transient Runtime is
// built, stepped once and closed.
func evaluateOnce(t *testing.T, m *core.Model, sys *atoms.System, opts RuntimeOptions) (float64, [][3]float64, RuntimeStats) {
	t.Helper()
	rt, err := NewRuntime(m, sys, opts)
	if err != nil {
		t.Fatalf("grid %v halo %g: %v", opts.Grid, opts.Halo, err)
	}
	defer rt.Close()
	e, f := rt.EnergyForces(sys)
	return e, f, rt.Stats()
}

func TestOptionsValidate(t *testing.T) {
	m := tinyModel(t)
	sys := atoms.NewSystem(1)
	sys.PBC = true
	sys.Cell = [3]float64{10, 10, 10}
	bad := RuntimeOptions{Grid: [3]int{4, 1, 1}, Halo: 3.0} // subdomain 2.5 < halo
	if _, err := NewRuntime(m, sys, bad); err == nil {
		t.Fatal("halo larger than subdomain must be rejected")
	}
	nonpbc := atoms.NewSystem(1)
	ok := RuntimeOptions{Grid: [3]int{2, 3, 4}, Halo: 1}
	if _, err := NewRuntime(m, nonpbc, ok); err == nil {
		t.Fatal("non-periodic system must be rejected")
	}
	rt, err := NewRuntime(m, sys, ok)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.NumRanks() != 24 {
		t.Fatal("NumRanks wrong")
	}
}

func TestCenteredEvaluationPartitions(t *testing.T) {
	// Splitting ownership arbitrarily and summing centered evaluations must
	// reproduce the full evaluation exactly.
	m := tinyModel(t)
	rng := rand.New(rand.NewPCG(3, 4))
	sys := data.WaterBox(rng, 2, 2, 2)
	eFull, fFull := m.EnergyForces(sys)

	n := sys.NumAtoms()
	ownedA := make([]bool, n)
	ownedB := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			ownedA[i] = true
		} else {
			ownedB[i] = true
		}
	}
	eA, fA := m.EnergyForcesCentered(sys, ownedA)
	eB, fB := m.EnergyForcesCentered(sys, ownedB)
	if math.Abs(eA+eB-eFull) > 1e-8 {
		t.Fatalf("centered energies %g + %g != full %g", eA, eB, eFull)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			if math.Abs(fA[i][k]+fB[i][k]-fFull[i][k]) > 1e-8 {
				t.Fatalf("centered forces do not sum at atom %d", i)
			}
		}
	}
}

// TestDecomposedMatchesSerial: a decomposed evaluation gives the serial
// engine's bits. Both order each center's pairs by neighbor index, take
// pair vectors from wrapped positions, and sum rows exactly, so the rank
// grid leaves no trace in the result — on the cell-list path (3x3x3 box)
// and on the all-pairs path of a box under three cutoffs wide, with atoms
// stored outside the cell.
func TestDecomposedMatchesSerial(t *testing.T) {
	m := tinyModel(t)
	rng := rand.New(rand.NewPCG(5, 6))
	// WaterBox(3,3,3) edge = 3*3.105=9.32; with halo 3.0 a 2x1x1 grid has
	// subdomain 4.66 >= halo: valid. WaterBox(2,2,2) edge 6.21 still splits
	// in two along each axis.
	big := data.WaterBox(rng, 3, 3, 3)
	small := data.WaterBox(rng, 2, 2, 2)
	for i := 0; i < small.NumAtoms(); i += 3 {
		small.Pos[i][0] += small.Cell[0]
		small.Pos[i][1] -= small.Cell[1]
	}
	for _, sys := range []*atoms.System{big, small} {
		eSerial, fSerial := m.EnergyForces(sys)
		for _, grid := range [][3]int{{2, 1, 1}, {1, 2, 1}, {2, 2, 1}} {
			e, f, st := evaluateOnce(t, m, sys, RuntimeOptions{Grid: grid, Halo: 3.0})
			if e != eSerial {
				t.Fatalf("%d atoms, grid %v: energy %.17g != serial %.17g", sys.NumAtoms(), grid, e, eSerial)
			}
			for i := range fSerial {
				if f[i] != fSerial[i] {
					t.Fatalf("%d atoms, grid %v: force mismatch atom %d: %v vs %v", sys.NumAtoms(), grid, i, f[i], fSerial[i])
				}
			}
			if st.MaxGhosts == 0 {
				t.Fatalf("%d atoms, grid %v: expected ghost imports", sys.NumAtoms(), grid)
			}
		}
	}
}

func TestInsufficientHaloBreaksForces(t *testing.T) {
	// With a halo smaller than the cutoff the decomposition must produce
	// wrong forces — demonstrating that halo >= receptive field is the
	// correctness condition (and why MPNNs with growing receptive fields
	// cannot use a one-cutoff halo).
	m := tinyModel(t)
	rng := rand.New(rand.NewPCG(7, 8))
	sys := data.WaterBox(rng, 3, 3, 3)
	_, fSerial := m.EnergyForces(sys)
	_, f, _ := evaluateOnce(t, m, sys, RuntimeOptions{Grid: [3]int{2, 2, 2}, Halo: 1.2}) // cutoff is 3.0
	maxDiff := 0.0
	for i := range fSerial {
		for k := 0; k < 3; k++ {
			if d := math.Abs(f[i][k] - fSerial[i][k]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff < 1e-6 {
		t.Fatal("undersized halo should corrupt forces, but they matched")
	}
}

func TestGhostCountGrowsWithHalo(t *testing.T) {
	m := tinyModel(t)
	rng := rand.New(rand.NewPCG(9, 10))
	sys := data.WaterBox(rng, 3, 3, 3)
	_, _, stSmall := evaluateOnce(t, m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Halo: 2.0})
	_, _, stBig := evaluateOnce(t, m, sys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Halo: 4.0})
	if stBig.TotalGhost <= stSmall.TotalGhost {
		t.Fatalf("ghost import should grow with halo: %d vs %d", stSmall.TotalGhost, stBig.TotalGhost)
	}
}

func TestHaloHelpers(t *testing.T) {
	if RequiredHalo(4.0, 1) != 4.0 || RequiredHalo(4.0, 6) != 24.0 {
		t.Fatal("RequiredHalo wrong")
	}
	if RequiredHalo(4.0, 0) != 4.0 {
		t.Fatal("RequiredHalo should clamp layers to >= 1")
	}
	// Paper's water example: ~96 atoms in 6 A, ~20,834 in 36 A
	// (number density ~0.1 atoms/A^3).
	rho := 0.1
	small := ReceptiveAtoms(6, rho)
	big := ReceptiveAtoms(36, rho)
	if small < 60 || small > 130 {
		t.Fatalf("receptive atoms at 6 A = %g, expected ~90", small)
	}
	if big/small < 200 || big/small > 230 {
		t.Fatalf("receptive growth %g, want 6^3 = 216", big/small)
	}
	// Halo volume fraction is monotone in halo.
	if HaloVolumeFraction(10, 4) <= HaloVolumeFraction(10, 1) {
		t.Fatal("halo volume fraction not monotone")
	}
}

func TestFilterCenters(t *testing.T) {
	idx := atoms.NewSpeciesIndex([]units.Species{units.O})
	ct := neighbor.NewCutoffTable(idx, 3.0)
	sys := atoms.NewSystem(3)
	for i := range sys.Pos {
		sys.Species[i] = units.O
		sys.Pos[i] = [3]float64{float64(i) * 1.5, 0, 0}
	}
	p := neighbor.Build(sys, ct)
	keep := []bool{true, false, true}
	f := p.FilterCenters(keep)
	for z := 0; z < f.NumReal; z++ {
		if !keep[f.I[z]] {
			t.Fatal("filtered list contains unowned center")
		}
	}
	if f.NumReal >= p.NumReal {
		t.Fatal("filter should drop pairs")
	}
}

func TestDecomposedMDMatchesSerialTrajectory(t *testing.T) {
	// NVE trajectories under serial and decomposed force evaluation agree
	// to the bit: forces are the same bits every step, so positions and
	// energies never part.
	m := tinyModel(t)
	rng := rand.New(rand.NewPCG(11, 12))
	sys := data.WaterBox(rng, 3, 3, 3)

	serial := md.NewSim(sys.Clone(), m, 0.2)
	serial.InitVelocities(100, rand.New(rand.NewPCG(13, 14)))

	decSys := sys.Clone()
	rt, err := NewRuntime(m, decSys, RuntimeOptions{Grid: [3]int{2, 1, 1}, Halo: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	dec := md.NewDecomposedSim(decSys, rt, 0.2)
	defer dec.Close()
	dec.InitVelocities(100, rand.New(rand.NewPCG(13, 14)))

	serial.Run(10)
	dec.Run(10)
	for i := range serial.Sys.Pos {
		if serial.Sys.Pos[i] != dec.Sys.Pos[i] {
			t.Fatalf("trajectories diverged at atom %d: %v vs %v", i, serial.Sys.Pos[i], dec.Sys.Pos[i])
		}
	}
	if serial.TotalEnergy() != dec.TotalEnergy() {
		t.Fatalf("total energies diverged: %.17g vs %.17g", serial.TotalEnergy(), dec.TotalEnergy())
	}
}
