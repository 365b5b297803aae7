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
// skin/2 displacement trigger fires. A one-shot decomposed evaluation is
// NewRuntime, EnergyForces, Stats and Close.
package domain

import (
	"math"

	"repro/internal/atoms"
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
