package cluster

import (
	"math"
	"testing"
)

// anchorTolerance is the accepted relative deviation from the paper's
// published throughput anchors. The harness reproduces shapes, not testbed
// absolutes; 35% covers every anchor while still catching regressions.
const anchorTolerance = 0.35

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Fatalf("%s: model %.3g vs paper %.3g (%.0f%% off, tol %.0f%%)",
			name, got, want, 100*math.Abs(got-want)/want, 100*tol)
	}
}

func TestTableIIIAnchors(t *testing.T) {
	// Table III: 1,119,744-atom water at 16/32/64/1024 nodes:
	// 6.28 / 11.9 / 20.3 / 104.2 steps/s.
	m := Perlmutter()
	w := Water("water-1M", 1_119_744)
	within(t, "16 nodes", m.StepsPerSecond(w, 16), 6.28, anchorTolerance)
	within(t, "32 nodes", m.StepsPerSecond(w, 32), 11.9, anchorTolerance)
	within(t, "64 nodes", m.StepsPerSecond(w, 64), 20.3, anchorTolerance)
	within(t, "1024 nodes", m.StepsPerSecond(w, 1024), 104.2, anchorTolerance)
}

func TestFigure6PeakAnchors(t *testing.T) {
	m := Perlmutter()
	// Peak throughputs at 1280 nodes (or saturation) from Sec. VII-B.
	within(t, "water-10M", m.StepsPerSecond(Water("w", 10_536_192), 1280), 36.3, anchorTolerance)
	within(t, "water-100M", m.StepsPerSecond(Water("w", 102_036_672), 1280), 4.32, anchorTolerance)
	within(t, "STMV", m.StepsPerSecond(Biosystem("STMV", 1_066_628), 1280), 106, anchorTolerance)
	within(t, "10STMV", m.StepsPerSecond(Biosystem("10STMV", 10_666_280), 1280), 23.0, anchorTolerance)
	within(t, "Capsid", m.StepsPerSecond(Biosystem("Capsid", 44_000_000), 1280), 8.73, anchorTolerance)
}

func TestHundredStepsPerSecondBelowMillionAtoms(t *testing.T) {
	// "Allegro achieved performance in excess of 100 timesteps/s for all
	// systems up to 1M atoms."
	m := Perlmutter()
	for _, w := range []Workload{
		Biosystem("DHFR", 23_558),
		Biosystem("FactorIX", 90_906),
		Biosystem("Cellulose", 408_609),
		Biosystem("STMV", 1_066_628),
		Water("water-100k", 98_304),
		Water("water-1M", 1_119_744),
	} {
		best := 0.0
		for nodes := 1; nodes <= 1280; nodes *= 2 {
			if s := m.StepsPerSecond(w, nodes); s > best {
				best = s
			}
		}
		if best < 75 {
			t.Fatalf("%s peak %.1f steps/s; paper reports >100 for <=1M-atom systems", w.Name, best)
		}
	}
}

func TestSaturationBelow500AtomsPerGPU(t *testing.T) {
	// Scaling must be near-linear while GPUs are saturated and flatten
	// once atoms/GPU drops into the hundreds.
	m := Perlmutter()
	w := Water("w", 1_119_744)
	satSpeedup := m.StepsPerSecond(w, 32) / m.StepsPerSecond(w, 16)
	if satSpeedup < 1.7 {
		t.Fatalf("saturated regime should scale near-linearly, got %.2fx per doubling", satSpeedup)
	}
	unsatSpeedup := m.StepsPerSecond(w, 1024) / m.StepsPerSecond(w, 512)
	if unsatSpeedup > 1.5 {
		t.Fatalf("unsaturated regime should flatten, got %.2fx per doubling", unsatSpeedup)
	}
}

func TestWeakScalingEfficiency(t *testing.T) {
	// ">70% weak scaling to 1280 nodes" for the larger per-node sizes, with
	// the smallest size degrading the most.
	m := Perlmutter()
	pts100k := m.WeakScaling(100_000, 1280)
	last100k := pts100k[len(pts100k)-1]
	if last100k.WeakEffPct < 70 {
		t.Fatalf("100k atoms/node weak efficiency %.0f%% < 70%%", last100k.WeakEffPct)
	}
	pts25k := m.WeakScaling(25_000, 1280)
	last25k := pts25k[len(pts25k)-1]
	if last25k.WeakEffPct >= last100k.WeakEffPct {
		t.Fatalf("25k atoms/node (%.0f%%) should degrade more than 100k (%.0f%%)",
			last25k.WeakEffPct, last100k.WeakEffPct)
	}
}

func TestTightBindingComparison(t *testing.T) {
	// Table III: >1000x time-to-solution improvement over tight binding.
	m := Perlmutter()
	w := Water("w", 1_119_744)
	for _, nodes := range []int{16, 32, 64} {
		tb := TightBindingStepsPerSec(1_022_208, nodes)
		al := m.StepsPerSecond(w, nodes)
		if al/tb < 300 {
			t.Fatalf("at %d nodes Allegro/TB speedup only %.0fx", nodes, al/tb)
		}
	}
	// Published TB anchors themselves.
	within(t, "TB 16 nodes", TightBindingStepsPerSec(1_022_208, 16), 0.010, 0.05)
	within(t, "TB 32 nodes", TightBindingStepsPerSec(1_022_208, 32), 0.012, 0.35)
	within(t, "TB 64 nodes", TightBindingStepsPerSec(1_022_208, 64), 0.020, 0.35)
}

func TestMinNodesMemoryLimit(t *testing.T) {
	m := Perlmutter()
	if m.MinNodes(Water("small", 100_000)) != 1 {
		t.Fatal("100k atoms should fit on one node")
	}
	big := m.MinNodes(Water("capsid-scale", 44_000_000))
	if big < 2 {
		t.Fatal("44M atoms cannot fit on one node")
	}
}

func TestStrongScalingMonotonicNodes(t *testing.T) {
	m := Perlmutter()
	pts := m.StrongScaling(Biosystem("STMV", 1_066_628), 1280)
	if len(pts) < 4 {
		t.Fatalf("expected several scaling points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].StepsPerSec <= pts[i-1].StepsPerSec*0.9 {
			t.Fatalf("throughput regressed sharply at %d nodes", pts[i].Nodes)
		}
	}
}

// TestOverlapLowersStepTime checks that hiding part of the halo exchange
// behind computation strictly shortens the modeled step at a scale where
// the exchange term is nonzero.
func TestOverlapLowersStepTime(t *testing.T) {
	m := Perlmutter()
	w := Water("water-1M", 1_000_000)
	ov := m
	ov.Overlap = 0.9
	if s0, s1 := m.StepTime(w, 64), ov.StepTime(w, 64); s1 >= s0 {
		t.Fatalf("overlap 0.9 did not reduce the step time: %g vs %g", s1, s0)
	}
}
