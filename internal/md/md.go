// Package md implements the molecular dynamics engine: velocity-Verlet
// integration, Maxwell-Boltzmann initialization, Langevin and Berendsen
// thermostats, and trajectory observables. Units follow internal/units
// (eV, A, amu, fs).
package md

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/atoms"
	"repro/internal/units"
)

// Potential is anything that returns total energy and per-atom forces.
type Potential interface {
	EnergyForces(sys *atoms.System) (float64, [][3]float64)
}

// InPlacePotential is a Potential that writes forces into a caller-owned
// buffer instead of allocating one per call — the zero-allocation MD
// contract. Sim detects it at construction and reuses a single force buffer
// for the whole trajectory (core.Evaluator is the canonical implementation;
// its EvalScratch recycles every evaluation buffer too).
type InPlacePotential interface {
	Potential
	// EnergyForcesInto overwrites forces (len sys.NumAtoms()) and returns
	// the potential energy.
	EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64
}

// PersistentPotential is an InPlacePotential with long-lived internal state
// — rank workers, neighbor lists, exchange buffers — that advances with the
// trajectory and must be released when the simulation is discarded
// (domain.Runtime is the canonical implementation).
type PersistentPotential interface {
	InPlacePotential
	Close()
}

// PipelinedPotential is an InPlacePotential whose force evaluation can
// stream per-atom completion: EnergyForcesOverlap behaves exactly like
// EnergyForcesInto, but invokes ready with batches of atom indices as soon
// as those atoms' force entries are final — before the whole evaluation has
// returned. Every atom is delivered exactly once per call, and the batch
// contents must not depend on the backend's internal schedule (only the
// timing may). Sim detects the interface at construction and applies the
// second velocity half-kick per batch, overlapping integration with the
// potential's trailing work — for domain.Runtime, the ranks still
// evaluating when another rank's forces land.
//
// ready runs on the evaluating goroutine; it may read and write the
// delivered atoms' force and velocity entries but nothing else shared with
// the evaluation.
type PipelinedPotential interface {
	InPlacePotential
	EnergyForcesOverlap(sys *atoms.System, forces [][3]float64, ready func(atoms []int32)) float64
}

// DecomposedSim drives a Sim whose force calls are served by a persistent
// decomposed runtime instead of a global potential: every Step runs the
// rank grid's steady-state exchange/evaluate/reduce cycle through the
// zero-allocation in-place path. Close releases the runtime's rank workers.
type DecomposedSim struct {
	*Sim
	Runtime PersistentPotential
}

// NewDecomposedSim prepares a decomposed simulation (forces are evaluated
// once at construction, warming the runtime's lists and arenas).
func NewDecomposedSim(sys *atoms.System, rt PersistentPotential, dt float64) *DecomposedSim {
	return &DecomposedSim{Sim: NewSim(sys, rt, dt), Runtime: rt}
}

// Close shuts down the runtime's rank workers.
func (d *DecomposedSim) Close() { d.Runtime.Close() }

// Combined sums several potentials (e.g. a learned short-range model plus
// the Wolf-summation long-range electrostatics extension). It implements
// InPlacePotential, so a composed potential rides the same zero-allocation
// Sim fast path as its members: members that support the in-place contract
// write into a pooled scratch buffer instead of allocating per call.
type Combined []Potential

// combinedScratch pools the per-call accumulation buffer of the in-place
// path; one buffer is in flight per concurrently stepping Combined, so
// steady-state force calls allocate nothing.
var combinedScratch = sync.Pool{New: func() any { return new([][3]float64) }}

// EnergyForces implements Potential.
func (c Combined) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, sys.NumAtoms())
	return c.EnergyForcesInto(sys, forces), forces
}

// EnergyForcesInto implements InPlacePotential: forces is overwritten with
// the member sum. Members implementing InPlacePotential are evaluated into
// a pooled scratch buffer (no per-member allocation); allocating members
// fall back to their EnergyForces path.
func (c Combined) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	for i := range forces {
		forces[i] = [3]float64{}
	}
	sp := combinedScratch.Get().(*[][3]float64)
	scratch := *sp
	if cap(scratch) < len(forces) {
		scratch = make([][3]float64, len(forces))
	}
	scratch = scratch[:len(forces)]
	total := 0.0
	for _, p := range c {
		f := scratch
		if ip, ok := p.(InPlacePotential); ok {
			total += ip.EnergyForcesInto(sys, scratch)
		} else {
			var e float64
			e, f = p.EnergyForces(sys)
			total += e
		}
		for i := range f {
			forces[i][0] += f[i][0]
			forces[i][1] += f[i][1]
			forces[i][2] += f[i][2]
		}
	}
	*sp = scratch
	combinedScratch.Put(sp)
	return total
}

// Thermostat adjusts velocities once per step after the Verlet update.
type Thermostat interface {
	Apply(vel [][3]float64, masses []float64, dt float64)
	Name() string
}

// Langevin is a stochastic thermostat (O-step of BAOAB splitting):
// v <- c v + sqrt(1-c^2) * sigma(T,m) * xi with c = exp(-gamma dt).
type Langevin struct {
	TempK float64
	Gamma float64 // friction, 1/fs (typical 0.01)
	Rng   *rand.Rand
}

// Apply implements Thermostat.
func (l *Langevin) Apply(vel [][3]float64, masses []float64, dt float64) {
	c := math.Exp(-l.Gamma * dt)
	s := math.Sqrt(1 - c*c)
	for i := range vel {
		sigma := units.ThermalVelocity(masses[i], l.TempK)
		for k := 0; k < 3; k++ {
			vel[i][k] = c*vel[i][k] + s*sigma*l.Rng.NormFloat64()
		}
	}
}

// Name implements Thermostat.
func (l *Langevin) Name() string { return "langevin" }

// Berendsen is a weak-coupling velocity rescaling thermostat.
type Berendsen struct {
	TempK float64
	Tau   float64 // coupling time, fs
}

// Apply implements Thermostat.
func (b *Berendsen) Apply(vel [][3]float64, masses []float64, dt float64) {
	ke := 0.0
	for i := range vel {
		v2 := vel[i][0]*vel[i][0] + vel[i][1]*vel[i][1] + vel[i][2]*vel[i][2]
		ke += 0.5 * masses[i] * v2 / units.AccelFactor
	}
	ndof := units.KineticDOF(len(vel))
	t := units.TemperatureFromKE(ke, ndof)
	if t <= 0 {
		return
	}
	lam := math.Sqrt(1 + dt/b.Tau*(b.TempK/t-1))
	for i := range vel {
		for k := 0; k < 3; k++ {
			vel[i][k] *= lam
		}
	}
}

// Name implements Thermostat.
func (b *Berendsen) Name() string { return "berendsen" }

// Sim is one molecular dynamics simulation.
type Sim struct {
	Sys        *atoms.System
	Vel        [][3]float64
	Masses     []float64
	Pot        Potential
	Dt         float64    // fs
	Thermostat Thermostat // nil = NVE

	Forces  [][3]float64
	Energy  float64 // last potential energy
	StepNum int

	inPlace   InPlacePotential   // non-nil: reuse Forces across steps
	pipelined PipelinedPotential // non-nil: stream the second half-kick
	kickFn    func([]int32)      // hoisted ready callback (allocation-free)
}

// NewSim prepares a simulation; forces are evaluated once at construction.
// If pot implements InPlacePotential, every step reuses the simulation's
// force buffer and the force path allocates nothing in steady state. If it
// additionally implements PipelinedPotential, Step overlaps the second
// velocity half-kick of early-completing atoms with the potential's
// trailing force work (bit-identical to the sequential kick: per-atom
// updates are independent and every atom is delivered exactly once).
func NewSim(sys *atoms.System, pot Potential, dt float64) *Sim {
	s := &Sim{
		Sys:    sys,
		Vel:    make([][3]float64, sys.NumAtoms()),
		Masses: sys.Masses(),
		Pot:    pot,
		Dt:     dt,
	}
	if ip, ok := pot.(InPlacePotential); ok {
		s.inPlace = ip
		s.Forces = make([][3]float64, sys.NumAtoms())
	}
	if pp, ok := pot.(PipelinedPotential); ok {
		s.pipelined = pp
		s.kickFn = s.halfKick
	}
	s.RecomputeForces()
	return s
}

// halfKick applies the second velocity-Verlet half-kick to one batch of
// atoms — the ready callback of the pipelined force path, hoisted so
// steady-state dispatch allocates nothing.
func (s *Sim) halfKick(atoms []int32) {
	dt := s.Dt
	for _, a := range atoms {
		f := units.AccelFactor / s.Masses[a]
		for k := 0; k < 3; k++ {
			s.Vel[a][k] += 0.5 * dt * f * s.Forces[a][k]
		}
	}
}

// RecomputeForces re-evaluates energy and forces at the current positions
// (into the reused buffer when the potential supports it) — the force
// refresh shared by construction, stepping, and checkpoint resume.
func (s *Sim) RecomputeForces() {
	if s.inPlace != nil {
		s.Energy = s.inPlace.EnergyForcesInto(s.Sys, s.Forces)
	} else {
		s.Energy, s.Forces = s.Pot.EnergyForces(s.Sys)
	}
}

// SetState overwrites the integrator state — positions, velocities, step
// count — with a recovered snapshot and re-evaluates forces there. It is
// the in-memory analogue of a checkpoint Resume: fleet recovery rewinds
// the trajectory to the last replication point and replays from it.
func (s *Sim) SetState(step int, pos, vel [][3]float64) {
	copy(s.Sys.Pos, pos)
	copy(s.Vel, vel)
	s.StepNum = step
	s.RecomputeForces()
}

// InitVelocities draws Maxwell-Boltzmann velocities at tempK and removes
// center-of-mass drift.
func (s *Sim) InitVelocities(tempK float64, rng *rand.Rand) {
	for i := range s.Vel {
		sigma := units.ThermalVelocity(s.Masses[i], tempK)
		for k := 0; k < 3; k++ {
			s.Vel[i][k] = sigma * rng.NormFloat64()
		}
	}
	s.RemoveDrift()
}

// RemoveDrift zeroes the center-of-mass momentum.
func (s *Sim) RemoveDrift() {
	var p [3]float64
	var mTot float64
	for i := range s.Vel {
		for k := 0; k < 3; k++ {
			p[k] += s.Masses[i] * s.Vel[i][k]
		}
		mTot += s.Masses[i]
	}
	for i := range s.Vel {
		for k := 0; k < 3; k++ {
			s.Vel[i][k] -= p[k] / mTot
		}
	}
}

// Step advances one velocity-Verlet step (plus thermostat if configured).
// On a PipelinedPotential the second half-kick streams per ready batch,
// overlapping integration with the potential's trailing force work; the
// trajectory is bit-identical to the sequential path (per-atom updates are
// independent, and the thermostat runs after every force is final, so its
// RNG stream is untouched).
func (s *Sim) Step() {
	dt := s.Dt
	// Half kick + drift.
	for i := range s.Vel {
		f := units.AccelFactor / s.Masses[i]
		for k := 0; k < 3; k++ {
			s.Vel[i][k] += 0.5 * dt * f * s.Forces[i][k]
			s.Sys.Pos[i][k] += dt * s.Vel[i][k]
		}
	}
	if s.pipelined != nil {
		// Pipelined force + second half-kick: batches kick as they land.
		s.Energy = s.pipelined.EnergyForcesOverlap(s.Sys, s.Forces, s.kickFn)
	} else {
		// New forces (into the reused buffer when the potential supports
		// it), then the second half kick.
		s.RecomputeForces()
		for i := range s.Vel {
			f := units.AccelFactor / s.Masses[i]
			for k := 0; k < 3; k++ {
				s.Vel[i][k] += 0.5 * dt * f * s.Forces[i][k]
			}
		}
	}
	if s.Thermostat != nil {
		s.Thermostat.Apply(s.Vel, s.Masses, dt)
	}
	s.StepNum++
}

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// KineticEnergy returns the total kinetic energy in eV.
func (s *Sim) KineticEnergy() float64 {
	ke := 0.0
	for i := range s.Vel {
		v2 := s.Vel[i][0]*s.Vel[i][0] + s.Vel[i][1]*s.Vel[i][1] + s.Vel[i][2]*s.Vel[i][2]
		ke += 0.5 * s.Masses[i] * v2 / units.AccelFactor
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature in K over the
// 3N-3 degrees of freedom that remain once the center-of-mass drift is
// removed — the same count the thermostats target.
func (s *Sim) Temperature() float64 {
	return units.TemperatureFromKE(s.KineticEnergy(), units.KineticDOF(len(s.Vel)))
}

// TotalEnergy returns potential + kinetic energy (conserved in NVE).
func (s *Sim) TotalEnergy() float64 { return s.Energy + s.KineticEnergy() }

// String summarizes the simulation state.
func (s *Sim) String() string {
	return fmt.Sprintf("md step %d: E_pot=%.4f eV, T=%.1f K", s.StepNum, s.Energy, s.Temperature())
}
