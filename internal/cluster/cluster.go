// Package cluster simulates Perlmutter-scale MD throughput for the scaling
// experiments (Fig. 6, Fig. 7, Table III): nodes of 4 A100 GPUs running the
// production Allegro model over a spatial decomposition, with a calibrated
// step-time model
//
//	step = compute_per_gpu * (1 + jitter) + ghost_exchange + sync
//
// where compute is affine in atoms/GPU (the saturation knee), jitter is the
// straggler penalty of synchronizing many GPUs (scaling with sqrt(log G)
// and system heterogeneity), ghost exchange covers the non-CUDA-aware halo
// staging, and sync is the per-step collective overhead. Constants were
// calibrated against the paper's anchors and frozen; EXPERIMENTS.md reports
// paper-vs-model for every anchor.
package cluster

import (
	"math"
)

// Machine describes the simulated system (defaults mirror Perlmutter).
type Machine struct {
	GPUsPerNode int
	// TimePerAtom is saturated GPU seconds per atom per step (TF32).
	TimePerAtom float64
	// SaturationAtoms is the affine saturation offset in atoms/GPU.
	SaturationAtoms float64
	// GhostBandwidth is the effective halo-staging bandwidth (B/s); the
	// paper disabled CUDA-aware MPI, staging through the host.
	GhostBandwidth float64
	// MsgLatency is the per-neighbor-message latency (s); 26 neighbors.
	MsgLatency float64
	// SyncPerLog2 is the per-step collective/sync cost per log2(GPUs) (s).
	SyncPerLog2 float64
	// Density is the atomic number density (atoms/A^3).
	Density float64
	// Halo is the ghost import distance (A).
	Halo float64
	// Overlap is the fraction of the halo-exchange time hidden behind
	// computation by the communication-overlapping step pipeline (0 =
	// bulk-synchronous, 1 = fully hidden): StepTime charges only the
	// exposed remainder of the ghost-exchange term. Set it from the overlap
	// fraction a decomposed run measures (domain.RuntimeStats). The
	// per-step collective/sync term is not discounted — barriers cannot
	// hide behind local work.
	Overlap float64
	// LinkLatency/LinkBandwidth are measured per-link values populated by
	// perfmodel.CalibrateMachineTransport from a live transport's heartbeat
	// RTTs and byte counters (s and B/s). When positive they override the
	// frozen MsgLatency/GhostBandwidth constants in StepTime, so scaling
	// predictions run from the interconnect actually underneath the run
	// instead of the published Perlmutter numbers.
	LinkLatency   float64
	LinkBandwidth float64
}

// Perlmutter returns the calibrated machine model.
func Perlmutter() Machine {
	return Machine{
		GPUsPerNode:     4,
		TimePerAtom:     8.2e-6,
		SaturationAtoms: 600,
		GhostBandwidth:  1.5e9,
		MsgLatency:      20e-6,
		SyncPerLog2:     0.15e-3,
		Density:         0.10,
		Halo:            4.0,
	}
}

// Workload describes a system being scaled.
type Workload struct {
	Name  string
	Atoms int
	// PairFactor scales compute for pair density relative to water with
	// production cutoffs (solvated biomolecules ~1.15).
	PairFactor float64
	// Jitter is the heterogeneity/straggler coefficient (water 0.05,
	// solvated biomolecules 0.08, the HIV capsid 0.10).
	Jitter float64
	// SpeedFactor rescales compute for non-default precision (Table IV).
	SpeedFactor float64
}

// Water returns a homogeneous water workload of n atoms.
func Water(name string, n int) Workload {
	return Workload{Name: name, Atoms: n, PairFactor: 1.0, Jitter: 0.05, SpeedFactor: 1.0}
}

// Biosystem returns a solvated biomolecular workload.
func Biosystem(name string, n int) Workload {
	j := 0.08
	if name == "Capsid" {
		j = 0.10
	}
	return Workload{Name: name, Atoms: n, PairFactor: 1.15, Jitter: j, SpeedFactor: 1.0}
}

// StepTime returns the modeled wall seconds per MD step on the given number
// of nodes.
func (m Machine) StepTime(w Workload, nodes int) float64 {
	gpus := float64(nodes * m.GPUsPerNode)
	atomsPerGPU := float64(w.Atoms) / gpus
	speed := w.SpeedFactor
	if speed == 0 {
		speed = 1
	}
	compute := m.TimePerAtom * (atomsPerGPU + m.SaturationAtoms) * w.PairFactor / speed
	// Straggler jitter: the step completes when the slowest GPU does.
	jfac := 0.0
	if gpus > float64(m.GPUsPerNode) {
		jfac = w.Jitter * math.Sqrt(math.Log(gpus/float64(m.GPUsPerNode)))
	}
	compute *= 1 + jfac
	// Halo exchange: ghost shell around each GPU's subdomain.
	edge := math.Cbrt(atomsPerGPU / m.Density)
	outer := edge + 2*m.Halo
	ghosts := m.Density * (outer*outer*outer - edge*edge*edge)
	const bytesPerGhost = 48 // positions out + forces back
	bw, lat := m.GhostBandwidth, m.MsgLatency
	if m.LinkBandwidth > 0 {
		bw = m.LinkBandwidth
	}
	if m.LinkLatency > 0 {
		lat = m.LinkLatency
	}
	comm := ghosts*bytesPerGhost/bw + 26*lat
	if ov := m.Overlap; ov > 0 {
		if ov > 1 {
			ov = 1
		}
		comm *= 1 - ov // only the exposed remainder of the exchange counts
	}
	sync := m.SyncPerLog2 * math.Log2(gpus)
	return compute + comm + sync
}

// StepsPerSecond is the reciprocal throughput.
func (m Machine) StepsPerSecond(w Workload, nodes int) float64 {
	return 1 / m.StepTime(w, nodes)
}

// MinNodes returns the smallest node count that fits the workload in GPU
// memory (40 GB A100; pair features dominate at ~45 KB per atom for the
// production model).
func (m Machine) MinNodes(w Workload) int {
	const bytesPerAtom = 45e3
	const memPerGPU = 40e9 * 0.8
	atomsPerGPUMax := memPerGPU / bytesPerAtom
	gpus := math.Ceil(float64(w.Atoms) / atomsPerGPUMax)
	nodes := int(math.Ceil(gpus / float64(m.GPUsPerNode)))
	if nodes < 1 {
		nodes = 1
	}
	return nodes
}

// ScalingPoint is one (nodes, steps/s) sample.
type ScalingPoint struct {
	Nodes       int
	StepsPerSec float64
	AtomsPerGPU float64
	NsPerDay    float64 // at 2 fs/step
	WeakEffPct  float64 // weak-scaling efficiency (weak sweeps only)
}

// StrongScaling sweeps node counts (doubling) from the minimum feasible up
// to maxNodes.
func (m Machine) StrongScaling(w Workload, maxNodes int) []ScalingPoint {
	var pts []ScalingPoint
	start := m.MinNodes(w)
	for nodes := start; nodes <= maxNodes; nodes *= 2 {
		sps := m.StepsPerSecond(w, nodes)
		pts = append(pts, ScalingPoint{
			Nodes:       nodes,
			StepsPerSec: sps,
			AtomsPerGPU: float64(w.Atoms) / float64(nodes*m.GPUsPerNode),
			NsPerDay:    sps * 2e-6 * 86400,
		})
	}
	return pts
}

// WeakScaling sweeps node counts with a fixed atoms-per-node budget,
// reporting efficiency relative to one node.
func (m Machine) WeakScaling(atomsPerNode int, maxNodes int) []ScalingPoint {
	var pts []ScalingPoint
	base := 0.0
	for nodes := 1; nodes <= maxNodes; nodes *= 2 {
		w := Water("water-weak", atomsPerNode*nodes)
		sps := m.StepsPerSecond(w, nodes)
		if nodes == 1 {
			base = sps
		}
		pts = append(pts, ScalingPoint{
			Nodes:       nodes,
			StepsPerSec: sps,
			AtomsPerGPU: float64(atomsPerNode) / float64(m.GPUsPerNode),
			NsPerDay:    sps * 2e-6 * 86400,
			WeakEffPct:  100 * sps / base,
		})
	}
	return pts
}

// TightBindingStepsPerSec models the semi-empirical tight-binding baseline
// of Table III ([32]): throughput anchored to its published 1M-atom water
// measurements (0.010 / 0.012 / 0.020 steps/s at 16 / 32 / 64 nodes) with
// the same saturating shape.
func TightBindingStepsPerSec(atoms, nodes int) float64 {
	// Published points imply ~77% parallel efficiency per doubling at this
	// size; model as t = a/n^0.7 with a fit at the 16-node point.
	const ref = 0.010 // steps/s at 16 nodes, 1.02M atoms
	const refNodes = 16.0
	const refAtoms = 1_022_208.0
	scale := math.Pow(float64(nodes)/refNodes, 0.62)
	sizeScale := refAtoms / float64(atoms) // linear-scaling DFT-class method
	return ref * scale * sizeScale
}
