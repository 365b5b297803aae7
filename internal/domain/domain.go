// Package domain implements LAMMPS-style spatial domain decomposition for
// strictly local potentials: the periodic box is split into a 3-D grid of
// subdomains ("ranks", realized as long-lived goroutines communicating over
// preallocated channels in place of MPI), each rank evaluates the potential
// for the ordered pairs *centered* on its owned atoms using ghost copies of
// boundary atoms from neighboring subdomains, and ghost force contributions
// are communicated back to their owners (LAMMPS "reverse communication").
//
// Because Allegro's receptive field never grows with depth, a ghost halo of
// one cutoff radius is exactly sufficient — the property that lets the paper
// scale to 5120 GPUs. The package supports a configurable halo so the
// message-passing ablation (a NequIP-style model needs L x cutoff of halo)
// can be demonstrated quantitatively.
//
// The production path is the persistent Runtime: rank workers that keep
// their neighbor lists (with a Verlet skin), ghost-exchange plans, and
// evaluation arenas alive across MD steps, re-deriving them only when the
// skin/2 displacement trigger fires. Evaluate is the one-shot convenience
// wrapper over a transient Runtime.
package domain

import (
	"math"

	"repro/internal/atoms"
	"repro/internal/core"
)

// CenterPotential evaluates energy and forces counting only interactions
// centered on atoms i with owned[i] == true. For a strictly local,
// pair-centered energy decomposition (Allegro's E = sum_ij E_ij with ij
// grouped by center i), summing centered evaluations over a partition of
// ownership reproduces the serial result exactly. core.Model implements it;
// the partition-identity tests rest on this interface.
type CenterPotential interface {
	EnergyForcesCentered(sys *atoms.System, owned []bool) (float64, [][3]float64)
}

// Options configures a one-shot decomposed evaluation (see RuntimeOptions
// for the persistent runtime).
type Options struct {
	// Grid is the number of subdomains per dimension.
	Grid [3]int
	// Halo is the ghost-import distance (>= the potential's cutoff for
	// correctness; the MPNN ablation uses multiples of the cutoff).
	Halo float64
}

// Validate checks decomposition invariants against a system.
func (o *Options) Validate(sys *atoms.System) error {
	return validateRuntime(sys, RuntimeOptions{Grid: o.Grid, Halo: o.Halo})
}

// NumRanks returns the total rank count.
func (o *Options) NumRanks() int { return o.Grid[0] * o.Grid[1] * o.Grid[2] }

// Stats summarizes one decomposed evaluation.
type Stats struct {
	Energy     float64
	MaxOwned   int
	MaxGhosts  int
	TotalGhost int
}

// Evaluate computes energy and forces of sys under m using the
// decomposition described by opts: it constructs a Runtime, runs one step,
// and tears it down, so the one-shot API shares the persistent code path
// exactly. Steady-state loops should hold a Runtime (or use
// allegro.NewSimulation with WithGrid) instead.
func Evaluate(sys *atoms.System, m *core.Model, opts Options) (float64, [][3]float64, Stats, error) {
	rt, err := NewRuntime(m, sys, RuntimeOptions{Grid: opts.Grid, Halo: opts.Halo})
	if err != nil {
		return 0, nil, Stats{}, err
	}
	defer rt.Close()
	e, forces := rt.EnergyForces(sys)
	st := rt.Stats()
	return e, forces, Stats{Energy: e, MaxOwned: st.MaxOwned, MaxGhosts: st.MaxGhosts, TotalGhost: st.TotalGhost}, nil
}

// HaloVolumeFraction returns the analytic ratio of imported ghost volume to
// owned volume for a cubic subdomain of edge a and halo h:
// ((a+2h)^3 - a^3)/a^3. This drives the communication model in
// internal/cluster and quantifies why a receptive field of L*cutoff (MPNN)
// is catastrophically more expensive than one cutoff (Allegro).
func HaloVolumeFraction(edge, halo float64) float64 {
	a3 := edge * edge * edge
	e := edge + 2*halo
	return (e*e*e - a3) / a3
}

// RequiredHalo returns the ghost-import distance a model needs: cutoff for a
// strictly local model, layers*cutoff for an MPNN with the given number of
// message-passing layers. The Runtime adds its Verlet skin on top of this
// base distance, so skin reuse never shrinks the physical halo.
func RequiredHalo(cutoff float64, mpLayers int) float64 {
	if mpLayers < 1 {
		mpLayers = 1
	}
	return cutoff * float64(mpLayers)
}

// ReceptiveAtoms estimates the number of atoms inside the receptive sphere
// of radius h at number density rho (the paper's water example: 96 atoms at
// 6 A vs 20,834 at 36 A).
func ReceptiveAtoms(h, rho float64) float64 {
	return 4.0 / 3.0 * math.Pi * h * h * h * rho
}
