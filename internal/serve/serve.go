// Package serve implements allegro-serve: a multi-tenant batched inference
// service over shared compiled plans. It is the serving tier the paper's
// thesis implies — leading-accuracy equivariant inference as a system, not a
// library call: many independent clients submit energy/force and
// short-trajectory requests; the service shape-buckets them onto a bounded
// set of padded (pairs, atoms) shapes via the existing PadTo running-max
// machinery, and evaluates them through one cross-tenant
// core.PlanRegistry — a plan compiled for one tenant's request replays for
// every other tenant with the same bucketed shape, instead of each
// EvalScratch compiling (and holding) its own copy.
//
// The request path is: admission (bounded queue with queue-full rejection
// and per-tenant in-flight caps — backpressure is an error the client can
// act on, not an unbounded latency tail), then a worker goroutine that owns
// one single-worker EvalScratch bound to the shared registry, evaluates the
// request bit-identically to the serial core.Evaluator (padding and atom
// bucketing contribute exactly zero by the cutoff-envelope construction),
// and releases its plan leases so the next tenant reuses them. Weight swaps
// (UpdateParams) gate on in-flight requests, bump nn.ParamSet.Version, and
// evict the registry, so no request ever replays stale folded weights.
//
// Transport is behind a seam: the Service's typed methods are the API; the
// HTTP/JSON binding (NewHTTPHandler, Client) is one transport over it, and
// a gRPC binding would wrap the same interface. See docs/serving.md for the
// wire API, the shape-bucketing and plan-sharing contract, backpressure
// semantics, and tuning guidance.
package serve

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/units"
)

// Backpressure and lifecycle sentinels. Transports map these to retryable
// statuses (HTTP 429/503); everything wrapping ErrBadRequest is a client
// error (HTTP 400).
var (
	// ErrQueueFull means the admission queue is at QueueDepth: the service
	// is saturated and the client should back off and retry.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrTenantBusy means this tenant already has TenantInFlight requests
	// admitted (queued or evaluating): per-tenant fairness backpressure.
	ErrTenantBusy = errors.New("serve: tenant in-flight cap reached")
	// ErrDraining means Shutdown has begun; no new work is admitted.
	ErrDraining = errors.New("serve: server is draining")
	// ErrBadRequest is wrapped by every request-validation failure.
	ErrBadRequest = errors.New("serve: bad request")
)

// Config sizes a Service. The zero value of every field selects a default.
type Config struct {
	// Model is the potential served to every tenant (required).
	Model *core.Model
	// Workers is the number of evaluation workers, each owning one
	// single-worker EvalScratch bound to the shared plan registry
	// (default: GOMAXPROCS — request-level parallelism, not intra-request).
	Workers int
	// QueueDepth bounds the admission queue (default 256). A full queue
	// rejects with ErrQueueFull instead of growing the latency tail.
	QueueDepth int
	// TenantInFlight caps one tenant's admitted (queued + evaluating)
	// requests (default 4); the cap rejects with ErrTenantBusy so one
	// tenant cannot monopolize the queue.
	TenantInFlight int
	// MaxAtoms bounds admitted system sizes (default 8192).
	MaxAtoms int
	// MaxSteps bounds trajectory request lengths (default 1000).
	MaxSteps int
}

func (c *Config) fill() error {
	if c.Model == nil {
		return fmt.Errorf("serve: Config.Model is required")
	}
	if c.Workers <= 0 {
		c.Workers = goruntime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantInFlight <= 0 {
		c.TenantInFlight = 4
	}
	if c.MaxAtoms <= 0 {
		c.MaxAtoms = 8192
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1000
	}
	return nil
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Served            uint64                 `json:"served"`
	Failed            uint64                 `json:"failed"`
	RejectedQueueFull uint64                 `json:"rejected_queue_full"`
	RejectedTenantCap uint64                 `json:"rejected_tenant_cap"`
	QueueDepth        int                    `json:"queue_depth"`
	Draining          bool                   `json:"draining"`
	Registry          core.PlanRegistryStats `json:"registry"`
	Shapes            int                    `json:"shapes"` // distinct bucketed shapes seen
}

// taskKind discriminates the request types a task carries.
type taskKind uint8

const (
	kindEnergyForces taskKind = iota
	kindTrajectory
)

// task is one admitted request traveling from the queue to a worker.
type task struct {
	tenant string
	kind   taskKind
	sys    *atoms.System

	// Trajectory parameters.
	steps   int
	dt      float64
	tempK   float64
	seed    uint64
	wantPos bool

	ef   *EnergyForcesResponse
	tj   *TrajectoryResponse
	err  error
	done chan struct{}
}

// Service is the multi-tenant inference daemon: shared plan registry,
// bounded admission, a fixed worker pool, and a weight-swap gate. Construct
// with NewService; stop with Shutdown (drains) or Close.
type Service struct {
	cfg      Config
	model    *core.Model
	registry *core.PlanRegistry
	buckets  bucketTable

	queue chan *task
	wg    sync.WaitGroup

	mu       sync.Mutex // guards draining + inflight
	draining bool
	inflight map[string]int

	// weights gates parameter mutation against in-flight evaluations:
	// workers evaluate under RLock, UpdateParams swaps under Lock.
	weights sync.RWMutex

	served            atomic.Uint64
	failed            atomic.Uint64
	rejectedQueueFull atomic.Uint64
	rejectedTenantCap atomic.Uint64
}

// NewService validates cfg, binds the shared plan registry, and starts the
// worker pool. The returned service is ready to accept requests.
func NewService(cfg Config) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		model:    cfg.Model,
		registry: core.NewPlanRegistry(cfg.Model),
		queue:    make(chan *task, cfg.QueueDepth),
		inflight: make(map[string]int),
		buckets:  bucketTable{maxZ: make(map[int]int)},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Registry exposes the shared plan pool (diagnostics, tests, stats).
func (s *Service) Registry() *core.PlanRegistry { return s.registry }

// Model returns the served model. Treat as read-only; mutate weights only
// through UpdateParams.
func (s *Service) Model() *core.Model { return s.model }

// EnergyForces evaluates energy and per-atom forces for one system,
// bit-identically to a serial core.Evaluator on the same model. It blocks
// until the response is ready, ctx is done, or admission rejects
// (ErrQueueFull, ErrTenantBusy, ErrDraining).
func (s *Service) EnergyForces(ctx context.Context, tenant string, req *EnergyForcesRequest) (*EnergyForcesResponse, error) {
	sys, err := s.buildSystem(&req.System)
	if err != nil {
		return nil, err
	}
	t := &task{tenant: tenantOrDefault(tenant), kind: kindEnergyForces, sys: sys, done: make(chan struct{})}
	if err := s.admit(t); err != nil {
		return nil, err
	}
	select {
	case <-t.done:
		return t.ef, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Trajectory runs a short NVE (or Maxwell-Boltzmann-initialized) velocity-
// Verlet trajectory with forces from the shared-plan pipeline and returns
// the per-step potential energies (index 0 is the initial evaluation).
// Trajectories are deterministic: a given (system, steps, dt, temp_k, seed)
// always produces the same bits.
func (s *Service) Trajectory(ctx context.Context, tenant string, req *TrajectoryRequest) (*TrajectoryResponse, error) {
	sys, err := s.buildSystem(&req.System)
	if err != nil {
		return nil, err
	}
	if req.Steps <= 0 || req.Steps > s.cfg.MaxSteps {
		return nil, fmt.Errorf("%w: steps %d outside (0, %d]", ErrBadRequest, req.Steps, s.cfg.MaxSteps)
	}
	dt := req.Dt
	if dt == 0 {
		dt = 0.5
	}
	if dt < 0 {
		return nil, fmt.Errorf("%w: negative timestep %g", ErrBadRequest, dt)
	}
	if req.TempK < 0 {
		return nil, fmt.Errorf("%w: negative temperature %g", ErrBadRequest, req.TempK)
	}
	t := &task{
		tenant: tenantOrDefault(tenant), kind: kindTrajectory, sys: sys,
		steps: req.Steps, dt: dt, tempK: req.TempK, seed: req.Seed,
		wantPos: req.ReturnPositions, done: make(chan struct{}),
	}
	if err := s.admit(t); err != nil {
		return nil, err
	}
	select {
	case <-t.done:
		return t.tj, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats snapshots the service and registry counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return Stats{
		Served:            s.served.Load(),
		Failed:            s.failed.Load(),
		RejectedQueueFull: s.rejectedQueueFull.Load(),
		RejectedTenantCap: s.rejectedTenantCap.Load(),
		QueueDepth:        len(s.queue),
		Draining:          draining,
		Registry:          s.registry.Stats(),
		Shapes:            s.buckets.shapes(),
	}
}

// UpdateParams applies a weight mutation (training step, weight reload)
// with the serving guarantees: it waits for every in-flight evaluation to
// finish, runs mutate with exclusive access to the model, bumps the
// parameter version, and evicts the shared plan pool. Requests admitted
// before the swap complete on the old weights; requests evaluated after it
// see only the new ones — no request ever observes a torn weight set or a
// stale compiled plan.
func (s *Service) UpdateParams(mutate func(*core.Model)) {
	s.weights.Lock()
	defer s.weights.Unlock()
	mutate(s.model)
	s.model.Params.Bump()
	s.registry.Invalidate()
}

// Shutdown drains the service: admission stops immediately (ErrDraining),
// queued and in-flight requests complete, then the workers exit. It returns
// ctx.Err() if the drain outlives ctx; the drain itself keeps going.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue) // admit() holds s.mu and re-checks draining: no send can race this close
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with no deadline.
func (s *Service) Close() error { return s.Shutdown(context.Background()) }

// admit applies backpressure: draining, the per-tenant cap, then the
// bounded queue, in that order. The counter is incremented before the
// non-blocking send so a successfully queued task is always accounted.
func (s *Service) admit(t *task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if s.inflight[t.tenant] >= s.cfg.TenantInFlight {
		s.rejectedTenantCap.Add(1)
		return ErrTenantBusy
	}
	select {
	case s.queue <- t:
		s.inflight[t.tenant]++
		return nil
	default:
		s.rejectedQueueFull.Add(1)
		return ErrQueueFull
	}
}

// finish releases the tenant slot and wakes the submitter.
func (s *Service) finish(t *task) {
	s.mu.Lock()
	if n := s.inflight[t.tenant]; n <= 1 {
		delete(s.inflight, t.tenant)
	} else {
		s.inflight[t.tenant] = n - 1
	}
	s.mu.Unlock()
	if t.err != nil {
		s.failed.Add(1)
	} else {
		s.served.Add(1)
	}
	close(t.done)
}

// worker is one evaluation goroutine: a private evalContext whose scratch
// leases plans from the shared registry, processing tasks until the queue
// closes. Plan leases are returned after every request so concurrent
// tenants share the pool instead of pinning per-worker copies.
func (s *Service) worker() {
	defer s.wg.Done()
	ec := newEvalContext(s)
	defer ec.close()
	for t := range s.queue {
		s.weights.RLock()
		s.process(ec, t)
		ec.releasePlans()
		s.weights.RUnlock()
		s.finish(t)
	}
}

// process dispatches one task on the worker's evaluation context. A panic
// in the evaluation pipeline fails the request, not the daemon.
func (s *Service) process(ec *evalContext, t *task) {
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("serve: evaluation panic: %v", r)
		}
	}()
	switch t.kind {
	case kindEnergyForces:
		t.ef, t.err = ec.energyForces(t.sys)
	case kindTrajectory:
		t.tj, t.err = ec.trajectory(t)
	}
}

// buildSystem validates a wire-format system against the model and the
// admission limits and materializes it.
func (s *Service) buildSystem(spec *SystemSpec) (*atoms.System, error) {
	n := len(spec.Species)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty system", ErrBadRequest)
	}
	if n > s.cfg.MaxAtoms {
		return nil, fmt.Errorf("%w: %d atoms exceeds MaxAtoms %d", ErrBadRequest, n, s.cfg.MaxAtoms)
	}
	if len(spec.Pos) != n {
		return nil, fmt.Errorf("%w: %d positions for %d species", ErrBadRequest, len(spec.Pos), n)
	}
	if spec.PBC {
		for k := 0; k < 3; k++ {
			if spec.Cell[k] <= 0 {
				return nil, fmt.Errorf("%w: periodic system needs positive cell, got %v", ErrBadRequest, spec.Cell)
			}
		}
	}
	// Positions are copied, not aliased: trajectory integration mutates the
	// system in place, and in-process callers may reuse the request spec.
	sys := &atoms.System{
		Species: make([]units.Species, n),
		Pos:     make([][3]float64, n),
		Cell:    spec.Cell,
		PBC:     spec.PBC,
	}
	copy(sys.Pos, spec.Pos)
	for i, z := range spec.Species {
		sp := units.Species(z)
		if !s.model.Idx.Contains(sp) {
			return nil, fmt.Errorf("%w: species %d not in the served model", ErrBadRequest, z)
		}
		sys.Species[i] = sp
	}
	return sys, nil
}

func tenantOrDefault(t string) string {
	if t == "" {
		return "anonymous"
	}
	return t
}
