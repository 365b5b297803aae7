package core

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"testing"
)

// tinyModelFile returns the serialized form of a small two-species model.
func tinyModelFile(tb testing.TB) []byte {
	tb.Helper()
	m, err := New(tinyConfig(), nil, rand.New(rand.NewPCG(5, 1)))
	if err != nil {
		tb.Fatal(err)
	}
	m.SetScaleShift(1.5, []float64{-0.5, -1.5})
	data, err := MarshalModel(m)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// mutatedModelFile lets mutate edit the decoded tiny model file and returns
// the re-encoded bytes.
func mutatedModelFile(t *testing.T, mutate func(*modelFile)) []byte {
	t.Helper()
	data := tinyModelFile(t)
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	mutate(&mf)
	out, err := json.Marshal(&mf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUnmarshalModelRejectsMismatchedTables checks that a model file whose
// cutoff table or energy shifts do not have one row/entry per species is an
// error: neither a panic nor a silently kept default.
func TestUnmarshalModelRejectsMismatchedTables(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*modelFile)
	}{
		{"cutoffs one row too many", func(mf *modelFile) {
			mf.Cutoffs = append(mf.Cutoffs, mf.Cutoffs[0])
		}},
		{"cutoffs one row short", func(mf *modelFile) {
			mf.Cutoffs = mf.Cutoffs[:len(mf.Cutoffs)-1]
		}},
		{"short cutoff row", func(mf *modelFile) {
			mf.Cutoffs[1] = mf.Cutoffs[1][:1]
		}},
		{"long cutoff row", func(mf *modelFile) {
			mf.Cutoffs[0] = append(mf.Cutoffs[0], 9)
		}},
		{"short energy shift", func(mf *modelFile) {
			mf.EnergyShift = []float64{-1}
		}},
		{"long energy shift", func(mf *modelFile) {
			mf.EnergyShift = append(mf.EnergyShift, -1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := UnmarshalModel(mutatedModelFile(t, c.mutate)); err == nil {
				t.Fatal("malformed model file accepted")
			}
		})
	}
}

// FuzzUnmarshalModel feeds arbitrary bytes to the model decoder (the input
// of model files and of every rank server's configuration frame). It must
// never panic, and any model it accepts must re-marshal to bytes that decode
// and re-marshal to the identical bytes.
func FuzzUnmarshalModel(f *testing.F) {
	valid := tinyModelFile(f)
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"energy_shift":[-0.5,-1.5]`), []byte(`"energy_shift":[-1]`), 1))
	f.Add(bytes.Replace(valid, []byte(`"EdgeHidden":4`), []byte(`"EdgeHidden":-1`), 1))
	f.Add(bytes.Replace(valid, []byte(`"TwoBodyHidden":[8]`), []byte(`"TwoBodyHidden":[-8]`), 1))
	f.Add([]byte(`{"format":"goallegro-v1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		b1, err := MarshalModel(m1)
		if err != nil {
			t.Fatalf("accepted model does not marshal: %v", err)
		}
		m2, err := UnmarshalModel(b1)
		if err != nil {
			t.Fatalf("re-marshaled model rejected: %v", err)
		}
		b2, err := MarshalModel(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("decode/marshal round trip is not stable")
		}
	})
}
