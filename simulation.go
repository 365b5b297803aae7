package allegro

import (
	"fmt"
	"io"
	goruntime "runtime"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/md"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

// Re-exported engine types: the uniform lifecycle and observer surface of
// NewSimulation.
type (
	// Report is the uniform per-step state snapshot (identical on every
	// backend): step, simulated time, energies, temperature, max force.
	Report = md.Report
	// Observer receives Reports at the cadence set by WithObserver.
	Observer = md.Observer
	// Thermostat adjusts velocities once per step (see Langevin, Berendsen).
	Thermostat = md.Thermostat
	// Langevin is the stochastic thermostat (the production default).
	Langevin = md.Langevin
	// Berendsen is the weak-coupling velocity-rescaling thermostat.
	Berendsen = md.Berendsen
	// Potential is anything returning total energy and per-atom forces.
	Potential = md.Potential
	// RuntimeStats aggregates the decomposed backend's behaviour (rebuild
	// cadence, migrations, ghost-exchange volume, phase timers).
	RuntimeStats = domain.RuntimeStats
)

// DefaultSkin is the Verlet skin (A) of the decomposed backend when
// WithSkin is absent. Trajectories are bit-identical across skin values;
// the skin only sets the list-reuse cadence.
const DefaultSkin = 0.5

// Simulation is the one MD entry point: the same type, lifecycle, and
// observer hooks whether the forces come from the serial zero-allocation
// Evaluator or the domain-decomposed persistent rank Runtime — the
// reproduction of the paper's production property that a caller's script is
// identical on one GPU and on 5,120 (the parallel layout is a deployment
// detail picked by options, not an API fork).
//
// Lifecycle: Step / Run(ctx, n) advance the trajectory and drive observers;
// Report snapshots state; Checkpoint/Resume round-trip a restart point;
// Close (idempotent, safe on both backends) releases rank workers and
// evaluation worker pools. With observers detached, steady-state stepping
// allocates nothing on either backend.
type Simulation struct {
	*md.Simulation

	model     *Model
	evaluator *core.Evaluator // serial backend (nil when decomposed)
	runtime   *domain.Runtime // decomposed backend (nil when serial)
	closed    bool
}

// simConfig accumulates functional options before backend dispatch.
type simConfig struct {
	engine  []md.SimOption
	grid    [3]int
	gridSet bool
	auto    bool
	overlap bool
	profile *core.KernelProfile
	skin    float64
	halo    float64
	workers int
	extras  []Potential
	err     error
}

// Option configures NewSimulation.
type Option func(*simConfig)

func (c *simConfig) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// WithTimestep sets the integration timestep in fs (default 0.5).
func WithTimestep(dt float64) Option {
	return func(c *simConfig) { c.engine = append(c.engine, md.WithTimestep(dt)) }
}

// WithThermostat attaches a thermostat; nil keeps the run NVE. A *Langevin
// with a nil Rng is wired to the engine RNG (see WithSeed).
func WithThermostat(t Thermostat) Option {
	return func(c *simConfig) { c.engine = append(c.engine, md.WithThermostat(t)) }
}

// WithTemperature draws Maxwell-Boltzmann velocities at tempK (drift
// removed) and, unless WithThermostat was given, attaches the default
// Langevin thermostat targeting tempK.
func WithTemperature(tempK float64) Option {
	return func(c *simConfig) { c.engine = append(c.engine, md.WithTemperature(tempK)) }
}

// WithSeed seeds the engine RNG behind velocity initialization and the
// default thermostat (default 1).
func WithSeed(seed uint64) Option {
	return func(c *simConfig) { c.engine = append(c.engine, md.WithSeed(seed)) }
}

// WithObserver calls fn with a Report every `every` completed steps.
func WithObserver(every int, fn Observer) Option {
	return func(c *simConfig) { c.engine = append(c.engine, md.WithObserver(every, fn)) }
}

// WithTrajectoryWriter writes XYZ frames to w at construction and every
// `every` completed steps.
func WithTrajectoryWriter(w io.Writer, every int) Option {
	return func(c *simConfig) { c.engine = append(c.engine, md.WithTrajectoryWriter(w, every)) }
}

// WithGrid selects the domain-decomposed backend on an explicit rank grid
// (the paper's LAMMPS spatial decomposition; trajectories are bit-identical
// to any other grid of the same model). Grid {1,1,1} runs the persistent
// runtime on a single rank.
func WithGrid(nx, ny, nz int) Option {
	return func(c *simConfig) {
		if nx < 1 || ny < 1 || nz < 1 {
			c.fail("allegro: grid dimensions must be >= 1, got %dx%dx%d", nx, ny, nz)
			return
		}
		c.grid = [3]int{nx, ny, nz}
		c.gridSet = true
	}
}

// WithAutoDecompose lets the performance model pick the rank grid
// (perfmodel.AutoGrid): the rank budget follows the machine size and the
// saturation knee, each subdomain stays at least a halo+skin wide, and
// systems too small to decompose profitably run serial. Mutually exclusive
// with WithGrid.
func WithAutoDecompose() Option {
	return func(c *simConfig) { c.auto = true }
}

// WithSkin sets the Verlet skin (A) of the decomposed backend (default
// 0.5). Zero rebuilds neighbor lists every step. Serial runs ignore it.
func WithSkin(skin float64) Option {
	return func(c *simConfig) {
		if skin < 0 {
			c.fail("allegro: skin must be non-negative, got %g", skin)
			return
		}
		c.skin = skin
	}
}

// WithOverlap enables the communication-hiding step pipeline on the
// decomposed backend: the forward ghost-position exchange is posted
// asynchronously and hidden behind the interior pair blocks (centers whose
// environments reference no ghost), and the reverse ghost-force reduction
// of frontier atoms overlaps the integrator's second half-kick of interior
// atoms. Trajectories are bit-identical with overlap on or off — only the
// schedule changes — and the measured overlap fraction is reported by
// Measure and Stats. A no-op on the serial backend (there is no exchange
// to hide).
func WithOverlap() Option {
	return func(c *simConfig) { c.overlap = true }
}

// WithKernelProfile accumulates a per-kernel-class wall-time breakdown of
// every compiled replay into kp (forward/backward matmuls, tensor-product
// contractions, environment rows, radial basis, the rest). The per-op timers
// add overhead, so this is diagnostic instrumentation — the allegro-bench
// -kernels flag — not a production mode. Serial evaluator only: pair it with
// WithWorkers(1); the decomposed backend and parallel chunk workers ignore
// it.
func WithKernelProfile(kp *core.KernelProfile) Option {
	return func(c *simConfig) { c.profile = kp }
}

// WithHalo overrides the ghost-import distance of the decomposed backend
// (default: the model's largest cutoff — exactly sufficient for the
// strictly local Allegro model; the MPNN ablation uses multiples of it).
func WithHalo(halo float64) Option {
	return func(c *simConfig) {
		if halo < 0 {
			c.fail("allegro: halo must be non-negative, got %g", halo)
			return
		}
		c.halo = halo
	}
}

// WithWorkers bounds the evaluation worker pool: the serial Evaluator's
// pool size, or the per-rank pool of the decomposed backend (default: all
// cores serial, 1 per rank decomposed — parallelism then comes from the
// ranks themselves).
func WithWorkers(n int) Option {
	return func(c *simConfig) {
		if n < 0 {
			c.fail("allegro: workers must be non-negative, got %d", n)
			return
		}
		c.workers = n
	}
}

// WithExtraPotential adds a potential term on top of the model — e.g. the
// Wolf-summation long-range electrostatics extension (NewWaterLongRange).
// Terms compose through the in-place md.Combined path, so the fast path is
// preserved. Extra terms require the serial backend.
func WithExtraPotential(p Potential) Option {
	return func(c *simConfig) {
		if p == nil {
			c.fail("allegro: extra potential must be non-nil")
			return
		}
		c.extras = append(c.extras, p)
	}
}

// NewSimulation is the single entry point for molecular dynamics: it wires
// model and system into a force backend chosen by the options — the serial
// zero-allocation Evaluator by default, the persistent decomposed Runtime
// under WithGrid/WithAutoDecompose — and returns the uniform engine over
// it. Default-option trajectories are bit-identical to md.NewSim over a
// core.Evaluator for any worker count; WithGrid trajectories are
// bit-identical to md.NewDecomposedSim over a domain.Runtime, and to every
// other grid. Call Close when done (always safe; required to release rank
// workers on the decomposed backend).
func NewSimulation(sys *System, model *Model, opts ...Option) (*Simulation, error) {
	cfg := simConfig{skin: DefaultSkin}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.gridSet && cfg.auto {
		return nil, fmt.Errorf("allegro: WithGrid and WithAutoDecompose are mutually exclusive")
	}

	s := &Simulation{model: model}
	grid := [3]int{1, 1, 1}
	if cfg.gridSet {
		grid = cfg.grid
	}
	if cfg.auto {
		halo := cfg.halo
		if halo <= 0 {
			halo = model.Cuts.Max()
		}
		budget := goruntime.GOMAXPROCS(0)
		if cfg.workers > 1 {
			budget /= cfg.workers // keep ranks x workers within the node
			if budget < 1 {
				budget = 1 // workers exceed the node: run a single rank
			}
		}
		grid = perfmodel.AutoGrid(sys, halo, cfg.skin, budget)
	}
	decomposed := cfg.gridSet || grid != [3]int{1, 1, 1}
	if decomposed && len(cfg.extras) > 0 {
		return nil, fmt.Errorf("allegro: WithExtraPotential requires the serial backend")
	}

	var pot md.InPlacePotential
	switch {
	case decomposed:
		rt, err := domain.NewRuntime(model, sys, domain.RuntimeOptions{
			Grid:           grid,
			Skin:           cfg.skin,
			Halo:           cfg.halo,
			WorkersPerRank: cfg.workers,
			Overlap:        cfg.overlap,
		})
		if err != nil {
			return nil, err
		}
		s.runtime = rt
		pot = rt
	default:
		ev := core.NewEvaluator(model)
		if cfg.workers != 0 {
			ev.Scratch.Workers = cfg.workers
		}
		ev.Scratch.Profile = cfg.profile
		s.evaluator = ev
		pot = ev
	}

	var mdPot md.Potential = pot
	if len(cfg.extras) > 0 {
		comb := md.Combined{pot}
		comb = append(comb, cfg.extras...)
		mdPot = comb
	}

	eng, err := md.NewSimulation(sys, mdPot, cfg.engine...)
	if err != nil {
		s.closeBackend()
		return nil, err
	}
	s.Simulation = eng
	return s, nil
}

// closeBackend releases whichever force backend was constructed.
func (s *Simulation) closeBackend() {
	if s.runtime != nil {
		s.runtime.Close()
	}
	if s.evaluator != nil {
		s.evaluator.Close()
	}
}

// Close releases the simulation's resources — rank workers on the
// decomposed backend, worker pools on the serial one. It is
// idempotent and safe to call on both backends; it returns any pending
// trajectory write error.
func (s *Simulation) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.Simulation.Close()
	s.closeBackend() // idempotent even when the engine already closed it
	return err
}

// Decomposed reports whether the simulation runs on the domain-decomposed
// backend.
func (s *Simulation) Decomposed() bool { return s.runtime != nil }

// Grid returns the rank grid ({1,1,1} on the serial backend).
func (s *Simulation) Grid() [3]int {
	if s.runtime != nil {
		return s.runtime.Grid()
	}
	return [3]int{1, 1, 1}
}

// NumRanks returns the rank count (1 on the serial backend).
func (s *Simulation) NumRanks() int {
	if s.runtime != nil {
		return s.runtime.NumRanks()
	}
	return 1
}

// Overlapped reports whether the decomposed backend runs the
// communication-hiding pipeline (always false on the serial backend).
func (s *Simulation) Overlapped() bool {
	return s.runtime != nil && s.runtime.Overlapped()
}

// Backend names the force backend for logs: "serial",
// "decomposed 2x2x1", or "decomposed 2x2x1 overlapped".
func (s *Simulation) Backend() string {
	if s.runtime != nil {
		g := s.runtime.Grid()
		if s.runtime.Overlapped() {
			return fmt.Sprintf("decomposed %dx%dx%d overlapped", g[0], g[1], g[2])
		}
		return fmt.Sprintf("decomposed %dx%dx%d", g[0], g[1], g[2])
	}
	return "serial"
}

// Stats returns the decomposed runtime's accumulated statistics; ok is
// false on the serial backend.
func (s *Simulation) Stats() (st RuntimeStats, ok bool) {
	if s.runtime == nil {
		return RuntimeStats{}, false
	}
	return s.runtime.Stats(), true
}

// Measure times `steps` steady-state force calls of the simulation's
// backend without advancing the trajectory (positions are untouched) and
// reports achieved throughput, allocation rate, and — on the decomposed
// backend — per-rank rate and ghost-exchange volume. The embedded
// Measurement feeds perfmodel.CalibrateMachine on both backends. Extra
// potential terms are not timed: the measurement covers the model pipeline
// the cluster model is parameterized by.
func (s *Simulation) Measure(steps int) perfmodel.DecomposedMeasurement {
	if s.closed {
		panic("allegro: Measure on a closed Simulation")
	}
	if s.runtime != nil {
		return perfmodel.MeasureRuntime(s.runtime, s.System(), steps)
	}
	req := s.evaluator.Scratch.Workers
	if req == 0 {
		req = s.model.Cfg.Workers
	}
	meas := perfmodel.DecomposedMeasurement{
		Measurement: perfmodel.MeasurePotential(s.evaluator, s.System(), steps, par.Workers(req, 0)),
		Ranks:       1,
	}
	meas.PairsPerSecRank = meas.PairsPerSec
	return meas
}
