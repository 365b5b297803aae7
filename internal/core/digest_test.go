package core

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/groundtruth"
	"repro/internal/neighbor"
	"repro/internal/tensor"
	"repro/internal/units"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.json from the current code")

// scalarDigest renders v as its IEEE-754 bits plus the shortest decimal
// that round-trips them (the bits are what is compared).
func scalarDigest(v float64) string {
	return fmt.Sprintf("%016x %s", math.Float64bits(v), strconv.FormatFloat(v, 'g', -1, 64))
}

// vecDigest is the FNV-64a hash of every component's bits, in order.
func vecDigest(v [][3]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range v {
		for _, x := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("fnv64a %016x", h.Sum64())
}

// checkDigests compares got against the committed file at path row by row,
// or rewrites the file under -update.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: row no longer computed", k)
		} else if g != w {
			t.Errorf("%s: got %s, committed %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: row missing from %s", k, path)
		}
	}
}

// TestDigests pins the model's bits across commits: every bitwise suite
// compares two executors within one commit, so a change that moves both
// (a rounding point, an accumulation order) passes them all — but not this.
// Per precision × depth it records the tape oracle's energy and forces,
// compiled replay at two worker counts on both kernel sets, the
// atomic-energy sum, and four training-step losses. A change that claims
// to be bit-identical leaves testdata/digests.json untouched; one that
// moves bits on purpose reruns with -update and shows the diff.
func TestDigests(t *testing.T) {
	species := []units.Species{units.H, units.C, units.O}
	got := map[string]string{}
	for _, pr := range []struct {
		name string
		pc   PrecisionConfig
	}{
		{"exact", ExactPrecision()},
		{"production", ProductionPrecision()},
		{"f32-final", PrecisionConfig{Final: tensor.F32, Weights: tensor.F32, Compute: tensor.F32}},
	} {
		for layers := 1; layers <= 3; layers++ {
			cfg := DefaultConfig(species)
			cfg.NumLayers = layers
			cfg.NumChannels = 2
			cfg.LatentDim = 8
			cfg.TwoBodyHidden = []int{8}
			cfg.LatentHidden = []int{8}
			cfg.EdgeHidden = 4
			cfg.NumBessel = 4
			cfg.AvgNumNeighbors = 4
			cfg.Precision = pr.pc
			m, err := New(cfg, nil, rand.New(rand.NewPCG(uint64(layers), 31)))
			if err != nil {
				t.Fatal(err)
			}
			m.SetScaleShift(0.37, []float64{-0.5, -1.25, -2})
			sys := mixedCluster(rand.New(rand.NewPCG(37, 41)), species, 9)
			pairs := neighbor.Build(sys, m.Cuts)
			pairs.PadTo(pairs.Len() + 13)

			row := func(name string, energy float64, forces [][3]float64) {
				key := fmt.Sprintf("%s/layers=%d/%s", pr.name, layers, name)
				got[key+"/energy"] = scalarDigest(energy)
				got[key+"/forces"] = vecDigest(forces)
			}
			rt := m.EvaluatePairs(sys, pairs)
			row("tape", rt.Energy, rt.Forces)
			for _, ref := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					scr := NewEvalScratch()
					scr.Workers = workers
					scr.plans.refKernels = ref
					rc := m.EvaluatePairsInto(scr, sys, pairs)
					kernels := map[bool]string{false: "kern", true: "ref"}[ref]
					row(fmt.Sprintf("%s/workers=%d", kernels, workers), rc.Energy, rc.Forces)
					scr.Close()
				}
			}
			sum := 0.0
			for _, e := range m.AtomicEnergies(sys) {
				sum += e
			}
			got[fmt.Sprintf("%s/layers=%d/atomic-energy-sum", pr.name, layers)] = scalarDigest(sum)

			// GradClip sums the gradient norm over a map, in random order;
			// off, the losses are a function of the model alone.
			tc := DefaultTrainConfig()
			tc.BatchSize = 2
			tc.GradClip = 0
			tr := NewTrainer(m, tc)
			frames := makeTrainingFrames(rand.New(rand.NewPCG(43, 47)), groundtruth.New(), 2)
			for step := range 4 {
				got[fmt.Sprintf("%s/layers=%d/train-loss/%d", pr.name, layers, step)] = scalarDigest(tr.Step(frames))
			}
		}
	}
	checkDigests(t, filepath.Join("testdata", "digests.json"), got)
}
