package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/md"
	"repro/internal/neighbor"
	"repro/internal/serve"
	"repro/internal/transport"
)

// The decorators in this file are the whole of the tracing: they sit at the
// public seams of the program (md.Potential, transport.Endpoint, serve.API)
// and time the calls that cross them. Nothing under internal/ knows it is
// being measured. Each decorator forwards untouched while the tracer is off,
// so traced and untraced operations alternate within one trajectory.

// Track numbers of the Chrome trace. The driving goroutine (MD loop) is
// track 0; rank r and client c get their own tracks.
const (
	trackMain   = 0
	trackRank0  = 1  // + rank
	trackClient = 16 // + client
)

// tracedPot times every force call of an in-place potential as a "force"
// span. before and after, when set, bracket a traced call; after runs with
// the tracer still inside the span and may add child spans from counters the
// potential exposes.
type tracedPot struct {
	inner  md.InPlacePotential
	tr     *tracer
	layer  string
	before func()
	after  func(forceSpan int)
}

func (p *tracedPot) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, sys.NumAtoms())
	return p.EnergyForcesInto(sys, forces), forces
}

func (p *tracedPot) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	if !p.tr.enabled() {
		return p.inner.EnergyForcesInto(sys, forces)
	}
	if p.before != nil {
		p.before()
	}
	id := p.tr.begin(trackMain, "force", p.layer)
	e := p.inner.EnergyForcesInto(sys, forces)
	if p.after != nil {
		p.after(id)
	}
	p.tr.end(id)
	return e
}

// Close releases the wrapped potential (md.Simulation.Close looks for it).
func (p *tracedPot) Close() {
	if c, ok := p.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// tracedPipelined is tracedPot for a potential that streams force completion
// (domain.Runtime under WithOverlap): the integrator's per-batch half-kicks
// run inside the force call and are recorded as "kick" children, so they
// count towards the md layer and not towards domain.
type tracedPipelined struct {
	tracedPot
	pp md.PipelinedPotential
}

func (p *tracedPipelined) EnergyForcesOverlap(sys *atoms.System, forces [][3]float64, ready func([]int32)) float64 {
	if !p.tr.enabled() {
		return p.pp.EnergyForcesOverlap(sys, forces, ready)
	}
	if p.before != nil {
		p.before()
	}
	id := p.tr.begin(trackMain, "force", p.layer)
	e := p.pp.EnergyForcesOverlap(sys, forces, func(batch []int32) {
		k := p.tr.begin(trackMain, "kick", "md")
		ready(batch)
		p.tr.end(k)
	})
	if p.after != nil {
		p.after(id)
	}
	p.tr.end(id)
	return e
}

// serialPot is the bench-side serial potential of the traced runs: the two
// calls core.Evaluator makes — neighbor.Builder.BuildInto, then
// Model.EvaluatePairsInto on a padded list — made here so that a span can be
// put around each, with EvalScratch.Profile collecting the per-kernel-class
// replay time of traced calls. Forces are bit-identical to core.Evaluator.
type serialPot struct {
	model   *core.Model
	scratch *core.EvalScratch
	builder neighbor.Builder
	pairs   neighbor.Pairs
	tr      *tracer

	maxPairs    int
	profile     core.KernelProfile
	pairsNow    int     // real pairs of the last call
	firstCallMs float64 // wall time of the first call (plan compile, buffer growth)
	called      bool
}

func newSerialPot(m *core.Model, workers int, tr *tracer) *serialPot {
	p := &serialPot{model: m, scratch: core.NewEvalScratch(), tr: tr}
	p.scratch.Workers = workers
	p.builder.Workers = workers
	return p
}

func (p *serialPot) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	forces := make([][3]float64, sys.NumAtoms())
	return p.EnergyForcesInto(sys, forces), forces
}

func (p *serialPot) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	if !p.called {
		p.called = true
		t0 := time.Now()
		defer func() { p.firstCallMs = float64(time.Since(t0)) / 1e6 }()
	}
	traced := p.tr.enabled()
	var fid, nid, eid int
	if traced {
		fid = p.tr.begin(trackMain, "force", "core")
		nid = p.tr.begin(trackMain, "neighbor", "neighbor")
	}
	p.builder.BuildInto(&p.pairs, sys, p.model.Cuts)
	p.pairsNow = p.pairs.NumReal
	// The paper's 5% pair padding to a running maximum, as core.Evaluator.
	target := int(math.Ceil(1.05 * float64(p.pairs.NumReal)))
	if target < p.maxPairs {
		target = p.maxPairs
	}
	p.maxPairs = target
	p.pairs.PadTo(target)
	var before time.Duration
	if traced {
		p.tr.end(nid)
		p.scratch.Profile = &p.profile
		before = p.profile.Total()
		eid = p.tr.begin(trackMain, "evaluate", "core")
	} else {
		p.scratch.Profile = nil
	}
	res := p.model.EvaluatePairsInto(p.scratch, sys, &p.pairs)
	if traced {
		start := p.tr.startOf(eid)
		p.tr.add(span{
			Name: "replay", Layer: "plan", Track: trackMain, Parent: eid, Op: int(p.tr.op.Load()),
			Start: start, End: start + int64(p.profile.Total()-before), Synthetic: true,
		})
		p.tr.end(eid)
	}
	copy(forces, res.Forces)
	if traced {
		p.tr.end(fid)
	}
	return res.Energy
}

func (p *serialPot) Close() {
	p.scratch.Close()
	p.builder.Close()
}

// runtimePhases returns the hooks of a traced domain.Runtime: before reads
// the RuntimeStats counters, after reads them again and lays the deltas the
// force call added out as synthetic children of its span. On a rebuild step
// the time the phase timers do not cover is the rebuild itself.
func runtimePhases(tr *tracer, rt *domain.Runtime) (before func(), after func(int)) {
	var prev domain.RuntimeStats
	before = func() { prev = rt.Stats() }
	after = func(forceSpan int) {
		now := tr.now()
		st := rt.Stats()
		op := int(tr.op.Load())
		cursor := tr.startOf(forceSpan)
		phase := func(name string, ns int64) {
			if ns <= 0 {
				return
			}
			tr.add(span{Name: name, Layer: "domain", Track: trackMain, Parent: forceSpan, Op: op,
				Start: cursor, End: cursor + ns, Synthetic: true})
			cursor += ns
		}
		phase("exchange_wait", st.ExchangeWaitNs-prev.ExchangeWaitNs)
		phase("interior", st.InteriorNs-prev.InteriorNs)
		phase("frontier", st.FrontierNs-prev.FrontierNs)
		phase("reduce", st.ReduceNs-prev.ReduceNs)
		if st.Rebuilds > prev.Rebuilds && now > cursor {
			phase("rebuild", now-cursor)
		}
	}
	return before, after
}

// tracedTransport hands out endpoints whose Send and Recv are timed and
// counted. Frames and bytes are counted whether or not spans are recorded,
// so the per-step byte counts cover every operation of the window.
type tracedTransport struct {
	inner  transport.Transport
	tr     *tracer
	driver int // transport rank of the driver endpoint

	frames atomic.Int64
	bytes  atomic.Int64
}

func (t *tracedTransport) Ranks() int   { return t.inner.Ranks() }
func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) Endpoint(rank int) (transport.Endpoint, error) {
	ep, err := t.inner.Endpoint(rank)
	if err != nil {
		return nil, err
	}
	track := trackRank0 + rank
	if rank == t.driver {
		track = trackMain
	}
	return &tracedEndpoint{inner: ep, t: t, track: track, driver: rank == t.driver}, nil
}

type tracedEndpoint struct {
	inner  transport.Endpoint
	t      *tracedTransport
	track  int
	driver bool
}

func (e *tracedEndpoint) Rank() int    { return e.inner.Rank() }
func (e *tracedEndpoint) Close() error { return e.inner.Close() }

func (e *tracedEndpoint) record(name string, start int64) {
	tr := e.t.tr
	parent := -1
	if e.driver {
		parent = tr.current(trackMain)
	}
	tr.add(span{Name: name, Layer: "transport", Track: e.track, Parent: parent, Op: int(tr.op.Load()),
		Start: start, End: tr.now()})
}

func (e *tracedEndpoint) Send(f *transport.Frame) error {
	e.t.frames.Add(1)
	e.t.bytes.Add(int64(4 + f.EncodedLen()))
	if !e.t.tr.enabled() {
		return e.inner.Send(f)
	}
	start := e.t.tr.now()
	err := e.inner.Send(f)
	e.record("send", start)
	return err
}

func (e *tracedEndpoint) Recv(f *transport.Frame) error {
	if !e.t.tr.enabled() {
		return e.inner.Recv(f)
	}
	start := e.t.tr.now()
	err := e.inner.Recv(f)
	e.record("recv_wait", start)
	return err
}

// clientOp is what a closed-loop client has in flight: at most one request
// per tenant, so the tenant name identifies the operation on the server side.
type clientOp struct {
	op     int
	span   int // the client's "http" span, -1 when this operation is untraced
	track  int
	traced bool
}

// tracedAPI sits between the HTTP handler and the service: the "service"
// span is the typed call, and the enclosing client-side "http" span minus it
// is what HTTP and JSON cost.
type tracedAPI struct {
	inner serve.API
	tr    *tracer

	mu       sync.Mutex
	inflight map[string]clientOp
}

func newTracedAPI(inner serve.API, tr *tracer) *tracedAPI {
	return &tracedAPI{inner: inner, tr: tr, inflight: map[string]clientOp{}}
}

func (a *tracedAPI) setOp(tenant string, op clientOp) {
	a.mu.Lock()
	a.inflight[tenant] = op
	a.mu.Unlock()
}

func (a *tracedAPI) opOf(tenant string) (clientOp, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	op, ok := a.inflight[tenant]
	return op, ok
}

func (a *tracedAPI) timed(tenant string, call func()) {
	op, ok := a.opOf(tenant)
	if !ok || !op.traced {
		call()
		return
	}
	start := a.tr.now()
	call()
	a.tr.add(span{Name: "service", Layer: "serve", Track: op.track, Parent: op.span, Op: op.op,
		Start: start, End: a.tr.now()})
}

func (a *tracedAPI) EnergyForces(ctx context.Context, tenant string, req *serve.EnergyForcesRequest) (resp *serve.EnergyForcesResponse, err error) {
	a.timed(tenant, func() { resp, err = a.inner.EnergyForces(ctx, tenant, req) })
	return resp, err
}

func (a *tracedAPI) Trajectory(ctx context.Context, tenant string, req *serve.TrajectoryRequest) (resp *serve.TrajectoryResponse, err error) {
	a.timed(tenant, func() { resp, err = a.inner.Trajectory(ctx, tenant, req) })
	return resp, err
}

func (a *tracedAPI) Stats() serve.Stats { return a.inner.Stats() }

// countingRoundTripper counts response-body bytes as the client reads them.
type countingRoundTripper struct {
	inner http.RoundTripper
	bytes atomic.Int64
}

func (c *countingRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
