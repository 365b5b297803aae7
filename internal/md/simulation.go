package md

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"repro/internal/atoms"
	"repro/internal/units"
)

// Simulation is the uniform MD engine: one lifecycle — Step, Run, Report,
// Checkpoint/Resume, Close — over any Potential, with observers and
// trajectory output driven by the engine instead of hand-rolled caller
// loops. The backend (a serial in-place evaluator, a persistent
// domain-decomposed runtime, a composed potential) is whatever Potential
// the constructor received; the engine behaves identically for all of them.
//
// With no observers attached, Step adds nothing to the integrator's
// zero-allocation steady state. Close is idempotent and releases whatever
// the potential holds (rank workers, evaluation arenas); for potentials
// without resources it is a no-op.
type Simulation struct {
	sim *Sim
	rng *rand.Rand

	observers []obsEntry
	trajW     io.Writer
	trajEvery int
	trajErr   error
	closed    bool
}

// Observer receives a Report at the cadence it was registered with.
type Observer func(Report)

// Report is the uniform per-step snapshot of a simulation, identical on
// every backend.
type Report struct {
	Step            int     // completed MD steps
	Time            float64 // simulated time, fs
	PotentialEnergy float64 // eV
	KineticEnergy   float64 // eV
	TotalEnergy     float64 // eV (conserved in NVE)
	Temperature     float64 // K, over the 3N-3 drift-removed dof
	MaxForce        float64 // largest per-atom force norm, eV/A
}

// String renders the report in the engine's log format.
func (r Report) String() string {
	return fmt.Sprintf("md step %d (t=%.1f fs): E_pot=%.4f eV, E_tot=%.4f eV, T=%.1f K, max|F|=%.3f eV/A",
		r.Step, r.Time, r.PotentialEnergy, r.TotalEnergy, r.Temperature, r.MaxForce)
}

type obsEntry struct {
	every int
	fn    Observer
}

// SeedStream is the PCG stream constant of the engine RNG: the RNG behind
// WithSeed is rand.New(rand.NewPCG(seed, SeedStream)). Exported so legacy
// call sites (and the API-equivalence tests) can reproduce the engine's
// velocity and thermostat streams exactly.
const SeedStream uint64 = 0x51D

// DefaultTimestep is the timestep (fs) used when WithTimestep is absent.
const DefaultTimestep = 0.5

// DefaultLangevinGamma is the friction (1/fs) of the default Langevin
// thermostat attached by WithTemperature.
const DefaultLangevinGamma = 0.05

// simSetup accumulates functional options before construction.
type simSetup struct {
	dt            float64
	thermostat    Thermostat
	thermostatSet bool
	tempK         float64
	seed          uint64
	observers     []obsEntry
	trajW         io.Writer
	trajEvery     int
	err           error
}

// SimOption is a functional option of NewSimulation.
type SimOption func(*simSetup)

func (s *simSetup) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// WithTimestep sets the integration timestep in fs (default 0.5).
func WithTimestep(dt float64) SimOption {
	return func(s *simSetup) {
		if dt <= 0 {
			s.fail("md: timestep must be positive, got %g", dt)
			return
		}
		s.dt = dt
	}
}

// WithThermostat attaches a thermostat (nil keeps the run NVE). A *Langevin
// with a nil Rng is wired to the engine RNG (see WithSeed).
func WithThermostat(t Thermostat) SimOption {
	return func(s *simSetup) {
		s.thermostat = t
		s.thermostatSet = true
	}
}

// WithTemperature draws Maxwell-Boltzmann velocities at tempK (removing
// center-of-mass drift) and, unless WithThermostat was given, attaches a
// Langevin thermostat targeting tempK with the default friction. tempK = 0
// leaves velocities zero and the run NVE.
func WithTemperature(tempK float64) SimOption {
	return func(s *simSetup) {
		if tempK < 0 {
			s.fail("md: temperature must be non-negative, got %g", tempK)
			return
		}
		s.tempK = tempK
	}
}

// WithSeed seeds the engine RNG driving velocity initialization and the
// default thermostat (default seed 1).
func WithSeed(seed uint64) SimOption {
	return func(s *simSetup) { s.seed = seed }
}

// WithObserver calls fn with a Report every `every` completed steps.
// Multiple observers may be registered; they fire in registration order.
func WithObserver(every int, fn Observer) SimOption {
	return func(s *simSetup) {
		if every < 1 {
			s.fail("md: observer cadence must be >= 1, got %d", every)
			return
		}
		if fn == nil {
			s.fail("md: observer function must be non-nil")
			return
		}
		s.observers = append(s.observers, obsEntry{every: every, fn: fn})
	}
}

// WithTrajectoryWriter writes an XYZ frame of the current positions to w at
// construction and after every `every` completed steps.
func WithTrajectoryWriter(w io.Writer, every int) SimOption {
	return func(s *simSetup) {
		if w == nil {
			s.fail("md: trajectory writer must be non-nil")
			return
		}
		if every < 1 {
			s.fail("md: trajectory cadence must be >= 1, got %d", every)
			return
		}
		s.trajW = w
		s.trajEvery = every
	}
}

// NewSimulation constructs the engine over sys and pot. Forces are
// evaluated once at construction (warming the potential's buffers); the
// in-place fast path and the legacy NewSim integrator are shared, so
// trajectories are bit-identical to the deprecated constructors under
// equivalent settings.
func NewSimulation(sys *atoms.System, pot Potential, opts ...SimOption) (*Simulation, error) {
	setup := simSetup{dt: DefaultTimestep, seed: 1}
	for _, o := range opts {
		o(&setup)
	}
	if setup.err != nil {
		return nil, setup.err
	}
	s := &Simulation{
		rng:       rand.New(rand.NewPCG(setup.seed, SeedStream)),
		observers: setup.observers,
		trajW:     setup.trajW,
		trajEvery: setup.trajEvery,
	}
	s.sim = NewSim(sys, pot, setup.dt)
	th := setup.thermostat
	if !setup.thermostatSet && setup.tempK > 0 {
		th = &Langevin{TempK: setup.tempK, Gamma: DefaultLangevinGamma, Rng: s.rng}
	}
	if l, ok := th.(*Langevin); ok && l.Rng == nil {
		// Copy before wiring the engine RNG: a caller-provided thermostat
		// value may be reused for another simulation, which must get its
		// own stream, not an alias of this one's.
		cp := *l
		cp.Rng = s.rng
		th = &cp
	}
	s.sim.Thermostat = th
	if setup.tempK > 0 {
		s.sim.InitVelocities(setup.tempK, s.rng)
	}
	if s.trajW != nil {
		s.writeFrame()
		if s.trajErr != nil {
			return nil, s.trajErr
		}
	}
	return s, nil
}

// Step advances one velocity-Verlet step and fires due observers and
// trajectory frames.
func (s *Simulation) Step() {
	if s.closed {
		panic("md: Step on a closed Simulation")
	}
	s.sim.Step()
	s.notify()
}

// Run advances n steps, checking ctx between steps: cancellation returns
// ctx.Err() with the simulation left at the last completed step. Observer
// and trajectory cadences are driven exactly as by Step.
func (s *Simulation) Run(ctx context.Context, n int) error {
	if s.closed {
		return fmt.Errorf("md: Run on a closed Simulation")
	}
	if s.trajErr != nil {
		return s.trajErr // fail fast: don't advance past missing frames
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.Step()
		if s.trajErr != nil {
			return s.trajErr
		}
	}
	return nil
}

// notify fires observers whose cadence divides the completed step count,
// computing the Report at most once, then appends a trajectory frame if due.
func (s *Simulation) notify() {
	n := s.sim.StepNum
	var rep Report
	have := false
	for i := range s.observers {
		o := &s.observers[i]
		if n%o.every != 0 {
			continue
		}
		if !have {
			rep = s.Report()
			have = true
		}
		o.fn(rep)
	}
	if s.trajW != nil && n%s.trajEvery == 0 {
		s.writeFrame()
	}
}

// Report returns the current uniform state snapshot.
func (s *Simulation) Report() Report {
	ke := s.sim.KineticEnergy()
	maxF2 := 0.0
	for _, f := range s.sim.Forces {
		if n2 := f[0]*f[0] + f[1]*f[1] + f[2]*f[2]; n2 > maxF2 {
			maxF2 = n2
		}
	}
	return Report{
		Step:            s.sim.StepNum,
		Time:            float64(s.sim.StepNum) * s.sim.Dt,
		PotentialEnergy: s.sim.Energy,
		KineticEnergy:   ke,
		TotalEnergy:     s.sim.Energy + ke,
		Temperature:     units.TemperatureFromKE(ke, units.KineticDOF(len(s.sim.Vel))),
		MaxForce:        math.Sqrt(maxF2),
	}
}

// checkpointState is the serialized restart point. JSON float64 encoding is
// shortest-round-trip, so a Resume restores positions and velocities
// bit-for-bit.
type checkpointState struct {
	Version int          `json:"version"`
	Step    int          `json:"step"`
	Dt      float64      `json:"dt"`
	Pos     [][3]float64 `json:"pos"`
	Vel     [][3]float64 `json:"vel"`
}

// Checkpoint writes a restart point (step count, positions, velocities) to
// w. Thermostat RNG state is not captured: a resumed stochastic run is a
// valid continuation, not a bitwise replay of the original.
func (s *Simulation) Checkpoint(w io.Writer) error {
	st := checkpointState{
		Version: 1,
		Step:    s.sim.StepNum,
		Dt:      s.sim.Dt,
		Pos:     s.sim.Sys.Pos,
		Vel:     s.sim.Vel,
	}
	return json.NewEncoder(w).Encode(&st)
}

// Resume restores a checkpoint written by Checkpoint into this simulation
// (which must have the same atom count) and re-evaluates forces at the
// restored positions.
func (s *Simulation) Resume(r io.Reader) error {
	if s.closed {
		return fmt.Errorf("md: Resume on a closed Simulation")
	}
	var st checkpointState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("md: reading checkpoint: %w", err)
	}
	if st.Version != 1 {
		return fmt.Errorf("md: unsupported checkpoint version %d", st.Version)
	}
	if len(st.Pos) != s.sim.Sys.NumAtoms() || len(st.Vel) != s.sim.Sys.NumAtoms() {
		return fmt.Errorf("md: checkpoint holds %d atoms, simulation has %d", len(st.Pos), s.sim.Sys.NumAtoms())
	}
	if st.Dt != s.sim.Dt {
		return fmt.Errorf("md: checkpoint was written at dt=%g fs, simulation runs at dt=%g", st.Dt, s.sim.Dt)
	}
	copy(s.sim.Sys.Pos, st.Pos)
	copy(s.sim.Vel, st.Vel)
	s.sim.StepNum = st.Step
	s.sim.RecomputeForces()
	return nil
}

// SetState rewinds (or advances) the simulation to an in-memory snapshot:
// positions, velocities, and the step count they were taken at, with
// forces re-evaluated at the restored positions. It is the recovery-path
// sibling of Resume — fed from a fleet's replicated state instead of a
// checkpoint file. Like Resume, it does not restore thermostat RNG state:
// replaying a stochastic run is a valid continuation, not a bitwise
// replay, so bit-identical recovery requires NVE.
func (s *Simulation) SetState(step int, pos, vel [][3]float64) error {
	if s.closed {
		return fmt.Errorf("md: SetState on a closed Simulation")
	}
	n := s.sim.Sys.NumAtoms()
	if len(pos) != n || len(vel) != n {
		return fmt.Errorf("md: snapshot holds %d/%d atoms, simulation has %d", len(pos), len(vel), n)
	}
	if step < 0 {
		return fmt.Errorf("md: snapshot step must be non-negative, got %d", step)
	}
	s.sim.SetState(step, pos, vel)
	return nil
}

// Close releases the backend's resources — rank workers of a decomposed
// runtime, worker pools and arenas of a serial evaluator — by closing the
// potential if it exposes a Close method. It is idempotent and safe on
// every backend (a no-op for plain potentials); it returns any pending
// trajectory write error. The simulation is unusable afterwards.
func (s *Simulation) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if c, ok := s.sim.Pot.(interface{ Close() }); ok {
		c.Close()
	}
	return s.trajErr
}

// Closed reports whether Close has been called.
func (s *Simulation) Closed() bool { return s.closed }

// System returns the simulated system (positions advance in place).
func (s *Simulation) System() *atoms.System { return s.sim.Sys }

// Velocities returns the live velocity buffer.
func (s *Simulation) Velocities() [][3]float64 { return s.sim.Vel }

// Forces returns the live force buffer of the last evaluation.
func (s *Simulation) Forces() [][3]float64 { return s.sim.Forces }

// Potential returns the backend potential serving the force calls.
func (s *Simulation) Potential() Potential { return s.sim.Pot }

// Timestep returns the integration timestep in fs.
func (s *Simulation) Timestep() float64 { return s.sim.Dt }

// String summarizes the simulation state (the engine's log line).
func (s *Simulation) String() string { return s.Report().String() }

// writeFrame appends one XYZ frame; the first write error sticks and is
// reported by Run and Close.
func (s *Simulation) writeFrame() {
	if s.trajErr != nil {
		return
	}
	sys := s.sim.Sys
	if _, err := fmt.Fprintf(s.trajW, "%d\nstep=%d time_fs=%g energy_ev=%.17g\n",
		sys.NumAtoms(), s.sim.StepNum, float64(s.sim.StepNum)*s.sim.Dt, s.sim.Energy); err != nil {
		s.trajErr = err
		return
	}
	for i, p := range sys.Pos {
		if _, err := fmt.Fprintf(s.trajW, "%s %.12f %.12f %.12f\n",
			units.Name(sys.Species[i]), p[0], p[1], p[2]); err != nil {
			s.trajErr = err
			return
		}
	}
}
