package allegro

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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

// TestTrajectoryDigests pins ten Langevin steps of the public engine across
// commits, on the serial backend (one and three workers) and the 2x1x1
// decomposed backend with and without overlap. Serial and decomposed sum
// each center's pairs in different orders, so their rows differ in the last
// bits and are kept apart; the rows within each backend agree exactly.
// Rerun with -update only for a change that moves bits on purpose.
func TestTrajectoryDigests(t *testing.T) {
	model, box := testModelAndBox(t)
	got := map[string]string{}
	for _, run := range []struct {
		name string
		opts []Option
	}{
		{"serial/workers=1", []Option{WithWorkers(1)}},
		{"serial/workers=3", []Option{WithWorkers(3)}},
		{"grid=2x1x1", []Option{WithGrid(2, 1, 1), WithSkin(0.5)}},
		{"grid=2x1x1/overlap", []Option{WithGrid(2, 1, 1), WithSkin(0.5), WithOverlap()}},
	} {
		opts := append([]Option{WithTimestep(0.4), WithTemperature(300), WithSeed(9)}, run.opts...)
		sim, err := NewSimulation(box.Clone(), model, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		rep := sim.Report()
		got[run.name+"/potential-energy"] = scalarDigest(rep.PotentialEnergy)
		got[run.name+"/kinetic-energy"] = scalarDigest(rep.KineticEnergy)
		got[run.name+"/positions"] = vecDigest(sim.System().Pos)
		if err := sim.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkDigests(t, filepath.Join("testdata", "digests.json"), got)
}
