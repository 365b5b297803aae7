// Package core implements the Allegro model: a strictly local equivariant
// deep-learning interatomic potential (Musaelian et al., SC'23). Allegro
// assigns learned features to *ordered pairs* of neighboring atoms and keeps
// two coupled tracks per pair:
//
//   - a cheap, high-capacity scalar ("latent") track of dense MLPs, and
//   - an expensive equivariant tensor track whose only nonlinear operation
//     is a single fused tensor product with a weighted sum of the central
//     atom's neighbor spherical-harmonic embeddings (Eq. 1-2 of the paper).
//
// Because all interactions stay inside a finite cutoff around the central
// atom — the receptive field never grows with depth — the model drops into
// spatial domain decomposition unchanged, which is what the paper scales to
// 5120 GPUs. See internal/domain for the decomposed evaluation.
package core

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/units"
)

// PrecisionConfig mirrors the paper's (Final, Weights, Compute) triple of
// Table IV: the precision of the final energy scale/shift/sum stage, of the
// stored weights and activations, and of the matrix pipelines.
type PrecisionConfig struct {
	Final   tensor.Precision
	Weights tensor.Precision
	Compute tensor.Precision
}

// String renders e.g. "F64,F32,TF32".
func (p PrecisionConfig) String() string {
	return fmt.Sprintf("%s,%s,%s", p.Final, p.Weights, p.Compute)
}

// ProductionPrecision is the configuration used for the paper's production
// runs: double-precision final stage, float32 weights, TF32 tensor cores.
func ProductionPrecision() PrecisionConfig {
	return PrecisionConfig{Final: tensor.F64, Weights: tensor.F32, Compute: tensor.TF32}
}

// ExactPrecision runs everything in float64 (used by correctness tests).
func ExactPrecision() PrecisionConfig {
	return PrecisionConfig{Final: tensor.F64, Weights: tensor.F64, Compute: tensor.F64}
}

// Config specifies an Allegro model architecture.
type Config struct {
	// Species is the model's type system (atom types correspond one-to-one
	// with chemical species).
	Species []units.Species
	// LMax is the maximum rotation order of the tensor features (paper: 2).
	LMax int
	// NumLayers is the number of Allegro layers (paper: 2).
	NumLayers int
	// NumChannels is n_tensor, the tensor feature multiplicity (paper: 64).
	NumChannels int
	// LatentDim is the width of the scalar track.
	LatentDim int
	// TwoBodyHidden are the hidden sizes of the two-body latent MLP.
	TwoBodyHidden []int
	// LatentHidden are the hidden sizes of the later latent MLPs.
	LatentHidden []int
	// EdgeHidden is the hidden size of the final edge-energy MLP.
	EdgeHidden int
	// NumBessel is the number of Bessel radial basis functions (paper: 8).
	NumBessel int
	// PolyP is the exponent of the polynomial cutoff envelope (paper: 6).
	PolyP int
	// DefaultCutoff is the uniform cutoff used when no table is given.
	DefaultCutoff float64
	// AvgNumNeighbors normalizes environment sums; set from training data.
	AvgNumNeighbors float64
	// Precision selects the mixed-precision scheme.
	Precision PrecisionConfig
	// ZBL enables the repulsive Ziegler-Biersack-Littmark core term added
	// "as a means to improve the stability of the potential" (Sec. VI-D).
	ZBL bool
	// Workers bounds the CPU worker pool used by parallel neighbor builds
	// and chunked evaluations (the single-node stand-in for the paper's
	// per-GPU parallelism). Values <= 0 select runtime.GOMAXPROCS(0); 1
	// forces the serial path. Results are bit-identical for every value.
	Workers int
}

// DefaultConfig returns a small but architecturally complete Allegro
// configuration suitable for CPU-scale training runs. The paper's production
// model (2 layers, 64 channels, lmax=2, latents up to 1024) is obtained by
// scaling these fields up; see ProductionConfig.
func DefaultConfig(species []units.Species) Config {
	return Config{
		Species:         species,
		LMax:            2,
		NumLayers:       2,
		NumChannels:     4,
		LatentDim:       32,
		TwoBodyHidden:   []int{32, 32},
		LatentHidden:    []int{48},
		EdgeHidden:      16,
		NumBessel:       8,
		PolyP:           6,
		DefaultCutoff:   4.0,
		AvgNumNeighbors: 20,
		Precision:       ExactPrecision(),
		ZBL:             true,
	}
}

// ProductionConfig mirrors the hyperparameters of Sec. VI-D (7.85M weights:
// two layers of 64 tensor features with lmax=2, two-body latent
// [128,256,512,1024], later latent [1024,1024,1024], edge MLP hidden 128).
// It is used for FLOP accounting in the performance model; training it in
// pure Go is not practical.
func ProductionConfig(species []units.Species) Config {
	c := DefaultConfig(species)
	c.NumChannels = 64
	c.LatentDim = 1024
	c.TwoBodyHidden = []int{128, 256, 512}
	c.LatentHidden = []int{1024, 1024}
	c.EdgeHidden = 128
	c.Precision = ProductionPrecision()
	return c
}

// Validate checks configuration invariants.
func (c *Config) Validate() error {
	if len(c.Species) == 0 {
		return fmt.Errorf("core: config needs at least one species")
	}
	if c.LMax < 0 || c.LMax > 3 {
		return fmt.Errorf("core: LMax %d outside supported range [0,3]", c.LMax)
	}
	if c.NumLayers < 1 {
		return fmt.Errorf("core: need at least one layer")
	}
	if c.NumChannels < 1 || c.LatentDim < 1 || c.NumBessel < 1 || c.EdgeHidden < 1 {
		return fmt.Errorf("core: channel/latent/bessel/edge sizes must be positive")
	}
	for _, hidden := range [][]int{c.TwoBodyHidden, c.LatentHidden} {
		for _, h := range hidden {
			if h < 1 {
				return fmt.Errorf("core: hidden sizes must be positive, got %d", h)
			}
		}
	}
	if c.DefaultCutoff <= 0 {
		return fmt.Errorf("core: cutoff must be positive")
	}
	if c.AvgNumNeighbors <= 0 {
		return fmt.Errorf("core: AvgNumNeighbors must be positive")
	}
	return nil
}

// envNorm is the environment-sum normalization 1/sqrt(avg neighbors).
func (c *Config) envNorm() float64 { return 1 / math.Sqrt(c.AvgNumNeighbors) }
