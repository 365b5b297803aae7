package core

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"

	"repro/internal/atoms"
	"repro/internal/neighbor"
	"repro/internal/units"
)

// modelFile is the serialized JSON representation of a trained model — the
// on-disk format of Save/Load and the wire format the distributed runtime's
// KindConfig frame ships to remote ranks.
type modelFile struct {
	Format      string               `json:"format"`
	Config      Config               `json:"config"`
	Cutoffs     [][]float64          `json:"cutoffs"`
	EnergyScale float64              `json:"energy_scale"`
	EnergyShift []float64            `json:"energy_shift"`
	Params      map[string][]float64 `json:"params"`
	Shapes      map[string][]int     `json:"shapes"`
}

// MarshalModel serializes the model to its JSON representation. JSON
// float64 encoding is shortest-round-trip, so UnmarshalModel reconstructs
// weights, cutoffs, and shifts bit-for-bit — the property the distributed
// runtime relies on when shipping one model to every rank process.
func MarshalModel(m *Model) ([]byte, error) {
	mf := modelFile{
		Format:      "goallegro-v1",
		Config:      m.Cfg,
		Cutoffs:     m.Cuts.Rc,
		EnergyScale: m.EnergyScale,
		EnergyShift: m.EnergyShift,
		Params:      map[string][]float64{},
		Shapes:      map[string][]int{},
	}
	for _, p := range m.Params.List() {
		mf.Params[p.Name] = p.T.Data
		mf.Shapes[p.Name] = p.T.Shape
	}
	data, err := json.Marshal(&mf)
	if err != nil {
		return nil, fmt.Errorf("core: marshal model: %w", err)
	}
	return data, nil
}

// UnmarshalModel reconstructs a model serialized by MarshalModel: the
// architecture is rebuilt deterministically from the config, then every
// weight is overwritten from the file. The cutoff table and energy shifts
// must have one row/entry per species; a mismatched file is an error.
func UnmarshalModel(data []byte) (*Model, error) {
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("core: unmarshal model: %w", err)
	}
	if mf.Format != "goallegro-v1" {
		return nil, fmt.Errorf("core: unsupported model format %q", mf.Format)
	}
	m, err := New(mf.Config, nil, rand.New(rand.NewPCG(0, 0)))
	if err != nil {
		return nil, err
	}
	s := m.Idx.Len()
	if len(mf.Cutoffs) != s {
		return nil, fmt.Errorf("core: model file has %d cutoff rows, want %d", len(mf.Cutoffs), s)
	}
	for i, row := range mf.Cutoffs {
		if len(row) != s {
			return nil, fmt.Errorf("core: cutoff row %d has %d entries, want %d", i, len(row), s)
		}
		copy(m.Cuts.Rc[i], row)
	}
	if len(mf.EnergyShift) != s {
		return nil, fmt.Errorf("core: model file has %d energy shifts, want %d", len(mf.EnergyShift), s)
	}
	m.EnergyScale = mf.EnergyScale
	copy(m.EnergyShift, mf.EnergyShift)
	for _, p := range m.Params.List() {
		src, ok := mf.Params[p.Name]
		if !ok {
			return nil, fmt.Errorf("core: model file missing parameter %q", p.Name)
		}
		if len(src) != p.T.Len() {
			return nil, fmt.Errorf("core: parameter %q has %d values, want %d", p.Name, len(src), p.T.Len())
		}
		copy(p.T.Data, src)
	}
	m.Params.Bump() // weights replaced wholesale: invalidate weight-derived caches
	return m, nil
}

// Save serializes the model to path as JSON.
func (m *Model) Save(path string) error {
	data, err := MarshalModel(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a model saved by Save.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalModel(data)
}

// BioCutoffsFor builds the paper's production per-ordered-species-pair
// cutoff table for the given species set (H-H 3.0, H-C 1.25, H-O 1.25,
// O-H 3.0, default 4.0).
func BioCutoffsFor(species []units.Species) *neighbor.CutoffTable {
	return neighbor.PaperBioCutoffs(atoms.NewSpeciesIndex(species))
}
