// Package allegro is the public facade of the Go reproduction of
// "Scaling the leading accuracy of deep equivariant models to biomolecular
// simulations of realistic size" (Musaelian, Johansson, Batzner, Kozinsky —
// SC 2023).
//
// It re-exports the high-level workflow — build a potential, train it on
// labeled frames, run (optionally domain-decomposed) molecular dynamics,
// and regenerate the paper's tables and figures — on top of the internal
// packages:
//
//	internal/core        the Allegro model (the paper's contribution) and
//	                     the EvalScratch/Evaluator reusable-buffer pipeline
//	internal/o3          O(3) representation theory and the fused tensor product
//	internal/ad          reverse-mode autodiff over geometric ops (training
//	                     and the reference the compiled plans are tested against)
//	internal/plan        record-once/replay compiled inference plans
//	internal/md          molecular dynamics engine
//	internal/domain      persistent rank runtime: LAMMPS-style spatial
//	                     decomposition with incremental ghost exchange and
//	                     Verlet-skin neighbor reuse on long-lived goroutines
//	internal/neighbor    parallel, allocation-free cell-list neighbor builds
//	internal/par         bounded persistent worker pools
//	internal/baselines   classical / GAP / BP / SchNet / NequIP comparators
//	internal/groundtruth the synthetic DFT oracle that labels every dataset
//	internal/data        structure and dataset builders
//	internal/perfmodel   A100 + allocator models and measured calibration
//	internal/cluster     Perlmutter-scale throughput simulation
//	internal/experiments per-table/figure reproduction harnesses
//
// Molecular dynamics runs through one entry point, NewSimulation, whose
// functional options pick the force backend — the serial zero-allocation
// Evaluator by default; the persistent decomposed Runtime under
// WithGrid/WithAutoDecompose — behind one uniform lifecycle: Step,
// Run(ctx), Report, Checkpoint/Resume, idempotent Close, and observer
// hooks (WithObserver, WithTrajectoryWriter). Every step evaluates the full
// model at the current positions: no option skips or approximates part of
// that evaluation. Trajectories are bit-identical across worker counts on
// each backend, and across rank grids, skins, overlap and transports on the
// decomposed backend; the serial and decomposed backends agree to
// accumulation-order noise (the serial neighbor list orders a center's pairs
// differently). See README.md for the options table.
package allegro

import (
	"io"
	"math/rand/v2"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/groundtruth"
	"repro/internal/units"
)

// Re-exported core types.
type (
	// Model is a trained or trainable Allegro potential.
	Model = core.Model
	// Config specifies an Allegro architecture.
	Config = core.Config
	// TrainConfig controls training.
	TrainConfig = core.TrainConfig
	// Evaluator runs the parallel zero-allocation force pipeline for one
	// simulation loop (see the EvalScratch ownership contract).
	Evaluator = core.Evaluator
	// EvalScratch is the reusable buffer arena owned by one evaluation loop.
	EvalScratch = core.EvalScratch
	// Runtime is the persistent domain-decomposed force engine: long-lived
	// rank workers with incremental ghost exchange and Verlet-skin neighbor
	// reuse (the paper's LAMMPS production pattern).
	Runtime = domain.Runtime
	// RuntimeOptions configures the rank grid, Verlet skin, halo, and
	// per-rank worker pools of a Runtime.
	RuntimeOptions = domain.RuntimeOptions
	// Frame is a labeled structure (system + reference energy/forces).
	Frame = atoms.Frame
	// System is a collection of atoms, optionally periodic.
	System = atoms.System
	// Species is a chemical species (atomic number).
	Species = units.Species
)

// Common species.
const (
	H = units.H
	C = units.C
	N = units.N
	O = units.O
	P = units.P
	S = units.S
)

// NewModel constructs a randomly initialized Allegro model from cfg.
func NewModel(cfg Config, seed uint64) (*Model, error) {
	return core.New(cfg, nil, rand.New(rand.NewPCG(seed, 0xA11E)))
}

// DefaultConfig returns a small but complete Allegro configuration for the
// given species set.
func DefaultConfig(species []Species) Config { return core.DefaultConfig(species) }

// Train fits model to the labeled frames and returns the final loss.
func Train(model *Model, frames []*Frame, cfg TrainConfig) float64 {
	return core.NewTrainer(model, cfg).Train(frames)
}

// DefaultTrainConfig mirrors the paper's training setup at reduced scale.
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// LoadModel reads a model saved with (*Model).Save.
func LoadModel(path string) (*Model, error) { return core.Load(path) }

// NewEvaluator wraps a model in the reusable-buffer evaluation pipeline for
// callers that drive force calls directly instead of through NewSimulation.
func NewEvaluator(model *Model) *Evaluator { return core.NewEvaluator(model) }

// NewWaterLongRange returns the Wolf-summation long-range electrostatics
// extension for water, composable with a model via WithExtraPotential
// (the paper's Sec. VI-A strict-locality extension).
func NewWaterLongRange() *core.LongRange { return core.NewWaterLongRange() }

// Oracle returns the synthetic reference potential used to label datasets.
func Oracle() *groundtruth.Oracle { return groundtruth.New() }

// RunExperiment regenerates one of the paper's tables/figures by ID (see
// Experiments) and prints the report to w.
func RunExperiment(w io.Writer, id string, full bool, seed uint64) error {
	scale := experiments.Quick
	if full {
		scale = experiments.Full
	}
	r, err := experiments.Run(id, scale, seed)
	if err != nil {
		return err
	}
	r.Print(w)
	return nil
}

// Experiments lists the available experiment IDs.
func Experiments() []string { return experiments.All() }
