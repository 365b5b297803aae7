package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/groundtruth"
	"repro/internal/md"
	"repro/internal/serve"
)

// The served mix. The pool's composition is fixed — the same sizes and kinds
// for every seed, so that a request costs the same from seed to seed — and
// the seed draws the geometries and shuffles the order. Clients walk the pool
// round and round, so after the first pass every bucketed shape has a
// compiled plan in the registry and later passes lease it.
const (
	poolSize       = 120
	poolTrajectory = 6  // 5%: 10-step trajectories on small molecules
	poolWater      = 18 // 15%: periodic water boxes, 3x3x3 to 4x4x4
	trajSteps      = 10
	minHeavy       = 8
	maxHeavy       = 32
	serveClients   = 2
	maxRetries     = 20
	checkEvery     = 10  // one response in ten is compared with a bench-side evaluator
	serveSetups    = 5   // set-ups per run; setup_s is their median
	serveRSSOps    = 550 // VmHWM is read after this many timed requests
)

// streamPoolBase seeds the pool's base geometries; it does not depend on the
// run's seed.
const streamPoolBase = 0xA11E60

// trajectorySeedStream is the second PCG word internal/serve seeds a
// trajectory's velocities with; the reference trajectory must use it too.
const trajectorySeedStream = 0x616c6c6567726f

type requestKind uint8

const (
	kindEF requestKind = iota
	kindTraj
)

// poolEntry is one request of the pool with what the checks need.
type poolEntry struct {
	kind  requestKind
	sys   *atoms.System
	ef    serve.EnergyForcesRequest
	traj  serve.TrajectoryRequest
	evals int // force evaluations the request costs
	id    int // position before the shuffle
}

func specOf(sys *atoms.System) serve.SystemSpec {
	spec := serve.SystemSpec{
		Species: make([]int, sys.NumAtoms()),
		Pos:     append([][3]float64(nil), sys.Pos...),
		Cell:    sys.Cell,
		PBC:     sys.PBC,
	}
	for i, sp := range sys.Species {
		spec.Species[i] = int(sp)
	}
	return spec
}

// buildPool generates the request pool. The geometries — which molecules,
// which boxes — are the same for every seed: the service pads every request
// of a 16-atom class to the largest pair count that class has seen, rounded
// up to 256 pairs, so two more pairs on one molecule can slow a whole class
// by 17%, and a median over seed-dependent geometries moved by 11% from seed
// to seed. The pool's own order is fixed too, and the first pass walks it as
// it is: the order in which a class meets its members decides which
// intermediate shapes get compiled on the way to its largest, and the registry
// keeps them all, so memory after a seed-shuffled first pass ranged from 0.5
// to 0.7 GB. From the second pass on, the order is the seed's shuffle. The
// seed also seeds the trajectories' velocities and (as everywhere) draws the
// model's weights. warm is the warm-up request: the largest water box.
func buildPool(seed uint64) (pool []poolEntry, order []int, warm int) {
	base := rand.New(rand.NewPCG(streamPoolBase, streamRequests))
	rng := rand.New(rand.NewPCG(seed, streamRequests))
	oracle := groundtruth.New()
	add := func(kind requestKind, sys *atoms.System, evals int) {
		pool = append(pool, poolEntry{kind: kind, sys: sys, evals: evals, id: len(pool)})
	}

	// Water boxes: four relaxed base boxes of different shape.
	dims := [][3]int{{4, 4, 4}, {3, 3, 3}, {3, 3, 4}, {3, 4, 4}}
	boxes := make([]*atoms.System, len(dims))
	for i, d := range dims {
		boxes[i] = data.WaterBox(base, d[0], d[1], d[2])
		data.Relax(oracle, boxes[i], 20, relaxMaxStep)
	}
	for i := 0; i < poolWater; i++ {
		sys := boxes[i%len(boxes)].Clone()
		for a := range sys.Pos {
			for k := 0; k < 3; k++ {
				sys.Pos[a][k] += 0.01 * base.NormFloat64()
			}
		}
		add(kindEF, sys, 1)
	}
	// Trajectories on small molecules.
	for i := 0; i < poolTrajectory; i++ {
		sys := data.RandomMolecule(base, minHeavy+i%5)
		data.Relax(oracle, sys, 10, relaxMaxStep)
		add(kindTraj, sys, trajSteps+1)
	}
	// Molecules: heavy-atom counts swept evenly over [minHeavy, maxHeavy],
	// every sixth one a peptide chain of matching length.
	nMol := poolSize - len(pool)
	for i := 0; i < nMol; i++ {
		heavy := minHeavy + i*(maxHeavy-minHeavy)/(nMol-1)
		var sys *atoms.System
		if i%6 == 5 {
			sys = data.PeptideChain(heavy / 4)
		} else {
			sys = data.RandomMolecule(base, heavy)
		}
		data.Relax(oracle, sys, 10, relaxMaxStep)
		add(kindEF, sys, 1)
	}
	base.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	order = rng.Perm(len(pool))
	for i := range pool {
		e := &pool[i]
		switch e.kind {
		case kindEF:
			e.ef = serve.EnergyForcesRequest{System: specOf(e.sys)}
		case kindTraj:
			e.traj = serve.TrajectoryRequest{System: specOf(e.sys), Steps: trajSteps, Dt: mdTimestep, TempK: mdTemperature, Seed: seed + uint64(i)}
		}
	}
	for i := range pool {
		if pool[i].id == 0 {
			warm = i
		}
	}
	return pool, order, warm
}

// withRetry performs one request, retrying backpressure rejections. A request
// that was refused even once counts as failed — the caller saw a refusal —
// whether or not a retry then succeeds.
func withRetry(do func() error, backpressure func(error) bool, pause time.Duration) (retries int, failed bool, err error) {
	for {
		err = do()
		if err == nil {
			return retries, retries > 0, nil
		}
		if !backpressure(err) || retries >= maxRetries {
			return retries, true, err
		}
		retries++
		time.Sleep(pause)
	}
}

// daemon is one started service with its listener, as allegro-serve runs it.
type daemon struct {
	model *core.Model
	svc   *serve.Service
	api   *tracedAPI // nil in untraced runs
	srv   *http.Server
	done  chan error
	base  string
	rt    *countingRoundTripper
	pool  []poolEntry
	order []int // the seed's permutation of the pool, used from the second pass on
	warm  int   // pool slot of the warm-up request
}

// slot maps the idx-th request of the stream to its pool entry.
func (d *daemon) slot(idx int) int {
	if idx < len(d.pool) {
		return idx
	}
	return d.order[idx%len(d.pool)]
}

func startDaemon(seed uint64, tr *tracer) (*daemon, error) {
	model, err := newModel(seed)
	if err != nil {
		return nil, err
	}
	svc, err := serve.NewService(serve.Config{Model: model, Workers: serveClients})
	if err != nil {
		return nil, err
	}
	d := &daemon{model: model, svc: svc, done: make(chan error, 1)}
	var api serve.API = svc
	if tr != nil {
		d.api = newTracedAPI(svc, tr)
		api = d.api
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d.srv = &http.Server{Handler: serve.NewHTTPHandler(api)}
	go func() { d.done <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.rt = &countingRoundTripper{inner: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	d.pool, d.order, d.warm = buildPool(seed)
	return d, nil
}

func (d *daemon) client(i int) *serve.Client {
	return &serve.Client{Base: d.base, Tenant: fmt.Sprintf("tenant-%d", i), HTTP: &http.Client{Transport: d.rt}}
}

// close stops the listener, drains the service and waits for both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	if inner, ok := d.rt.inner.(*http.Transport); ok {
		inner.CloseIdleConnections()
	}
	return errors.Join(err, d.svc.Close())
}

// served is one completed request as the client saw it.
type served struct {
	idx     int // position in the stream
	slot    int // pool entry
	ms      float64
	traced  bool
	failed  bool
	retries int
	err     error
	ef      *serve.EnergyForcesResponse
	traj    *serve.TrajectoryResponse
}

// send performs pool entry slot on client c, as the idx-th request.
func (d *daemon) send(c *serve.Client, idx, slot int) served {
	e := &d.pool[slot]
	out := served{idx: idx, slot: slot}
	t0 := time.Now()
	out.retries, out.failed, out.err = withRetry(func() (err error) {
		switch e.kind {
		case kindEF:
			out.ef, err = c.EnergyForces(context.Background(), &e.ef)
		case kindTraj:
			out.traj, err = c.Trajectory(context.Background(), &e.traj)
		}
		return err
	}, serve.IsBackpressure, 5*time.Millisecond)
	out.ms = float64(time.Since(t0)) / 1e6
	return out
}

// serveWindow is the timed window of a serve run.
type serveWindow struct {
	rssMB     float64 // VmHWM after rssOps requests (at the end if there were fewer)
	rssErr    error
	done      []served
	wall      time.Duration
	atomEvals float64
	respBytes int64
	before    serve.Stats
	after     serve.Stats
}

// closedLoop runs the clients until the time box is used up: each sends its
// next request only when the previous one has completed, taking the next
// index of the shared stream. With a tracer every second request is traced,
// the parity flipping from one pass over the pool to the next, so that every
// pool entry is seen both ways.
func (d *daemon) closedLoop(seconds float64, rssOps int, tr *tracer) *serveWindow {
	win := &serveWindow{before: d.svc.Stats()}
	bytes0 := d.rt.bytes.Load()
	var next atomic.Int64
	results := make([][]served, serveClients)
	box := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := d.client(c)
			track := trackClient + c
			for time.Since(start) < box {
				idx := int(next.Add(1) - 1)
				if rssOps > 0 && idx == rssOps {
					win.rssMB, win.rssErr = peakRSSMB()
				}
				traced := tr != nil && (idx+idx/len(d.pool))%2 == 1
				id := -1
				if traced {
					id = tr.add(span{Name: "http", Layer: "serve", Track: track, Parent: -1, Op: idx, Start: tr.now()})
				}
				if d.api != nil {
					d.api.setOp(client.Tenant, clientOp{op: idx, span: id, track: track, traced: traced})
				}
				r := d.send(client, idx, d.slot(idx))
				if traced {
					tr.closeAt(id, tr.now())
				}
				r.traced = traced
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	win.wall = time.Since(start)
	if int(next.Load()) <= rssOps || rssOps == 0 {
		win.rssMB, win.rssErr = peakRSSMB()
	}
	win.after = d.svc.Stats()
	win.respBytes = d.rt.bytes.Load() - bytes0
	for _, rs := range results {
		win.done = append(win.done, rs...)
	}
	for _, r := range win.done {
		if r.err == nil {
			e := &d.pool[r.slot]
			win.atomEvals += float64(e.sys.NumAtoms() * e.evals)
		}
	}
	return win
}

// relClose reports |a-b| <= tol * max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// verify compares one response in checkEvery with a bench-side single-worker
// core.Evaluator on the same system (and, for a trajectory, the same
// integrator and velocity stream), and returns how many differ.
func (d *daemon) verify(done []served) (checked, wrong int, first error) {
	ev := core.NewEvaluator(d.model)
	ev.Scratch.Workers = 1
	defer ev.Close()
	seen := map[int]bool{}
	for _, r := range done {
		slot := r.slot
		if r.err != nil || slot%checkEvery != 0 || seen[slot] {
			continue
		}
		seen[slot] = true
		checked++
		e := &d.pool[slot]
		var err error
		switch e.kind {
		case kindEF:
			energy, forces := ev.EnergyForces(e.sys)
			if !relClose(r.ef.Energy, energy, 1e-9) {
				err = fmt.Errorf("request %d: energy %.12g, evaluator %.12g", r.idx, r.ef.Energy, energy)
			}
			for a := range forces {
				for k := 0; k < 3 && err == nil; k++ {
					if !relClose(r.ef.Forces[a][k], forces[a][k], 1e-9) {
						err = fmt.Errorf("request %d: force on atom %d differs", r.idx, a)
					}
				}
			}
		case kindTraj:
			sys := e.sys.Clone()
			sim := md.NewSim(sys, ev, e.traj.Dt)
			sim.InitVelocities(e.traj.TempK, rand.New(rand.NewPCG(e.traj.Seed, trajectorySeedStream)))
			sim.Run(e.traj.Steps)
			if !relClose(r.traj.FinalEnergy, sim.Energy, 1e-9) {
				err = fmt.Errorf("request %d: trajectory final energy %.12g, evaluator %.12g", r.idx, r.traj.FinalEnergy, sim.Energy)
			}
		}
		if err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	return checked, wrong, first
}

func runServe(cfg runConfig) (*runResult, error) {
	if cfg.Trace {
		return runServeTraced(cfg)
	}
	var d *daemon
	setups := make([]float64, 0, serveSetups)
	for k := 0; k < serveSetups; k++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.Seed, nil); err != nil {
			return nil, err
		}
		if warm := d.send(d.client(0), -1, d.warm); warm.err != nil {
			d.close()
			return nil, fmt.Errorf("serve-mixed warm-up request: %w", warm.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	win := d.closedLoop(cfg.Seconds, serveRSSOps, nil)
	if win.rssErr != nil {
		return nil, win.rssErr
	}
	res := summarizeServe(d, win, cfg)
	if err := d.close(); err != nil {
		return nil, err
	}
	lat := make([]float64, 0, len(win.done))
	for _, r := range win.done {
		lat = append(lat, r.ms)
	}
	return res, res.setEndToEnd(setups, lat, win.atomEvals/win.wall.Seconds(), win.rssMB)
}

// summarizeServe counts failures and runs the response check.
func summarizeServe(d *daemon, win *serveWindow, cfg runConfig) *runResult {
	res := &runResult{Workload: "serve-mixed", Seed: cfg.Seed, Attempted: len(win.done), Info: map[string]any{}}
	for _, r := range win.done {
		if r.failed {
			res.Failed++
			if r.err != nil && res.Info["first_error"] == nil {
				res.Info["first_error"] = r.err.Error()
			}
		}
	}
	checked, wrong, first := d.verify(win.done)
	res.Failed += wrong
	if first != nil {
		res.Info["check_error"] = first.Error()
	}
	res.Info["responses_checked"] = checked
	res.Info["pool"] = len(d.pool)
	res.Correct = res.Failed == 0
	return res
}

func runServeTraced(cfg runConfig) (*runResult, error) {
	out := map[string]float64{}
	tr := newTracer()
	d, err := startDaemon(cfg.Seed, tr)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()
	for c := 0; c < serveClients; c++ {
		tr.nameTrack(trackClient+c, fmt.Sprintf("client %d", c))
	}
	warm := d.send(d.client(0), -1, d.warm)
	if warm.err != nil {
		return nil, fmt.Errorf("serve-mixed warm-up request: %w", warm.err)
	}
	if err := microAll(d.model, out); err != nil {
		return nil, err
	}
	win := d.closedLoop(cfg.Seconds/2, 0, tr)
	res := summarizeServe(d, win, cfg)
	spans := tr.snapshot()

	tracedBySlot, plainBySlot := map[int][]float64{}, map[int][]float64{}
	retries := 0
	var atoms, bucketed, exact float64
	exactBySlot := map[int]int{}
	for _, r := range win.done {
		slot := r.slot
		if r.traced {
			tracedBySlot[slot] = append(tracedBySlot[slot], r.ms)
		} else {
			plainBySlot[slot] = append(plainBySlot[slot], r.ms)
		}
		retries += r.retries
		if r.err != nil {
			continue
		}
		e := &d.pool[slot]
		atoms += float64(e.sys.NumAtoms())
		shape := serve.Shape{}
		if r.ef != nil {
			shape = r.ef.Shape
		} else if r.traj != nil {
			shape = r.traj.Shape
		}
		bucketed += float64(shape.Pairs)
		if _, ok := exactBySlot[slot]; !ok {
			exactBySlot[slot] = exactPairs(d.model, e.sys)
		}
		exact += float64(exactBySlot[slot])
	}
	out["serve.http_self_ms_p50"] = median(spanSelf(spans, "http"))
	out["serve.service_ms_p50"] = median(spanDurations(spans, "service"))
	out["serve.req_per_s"] = float64(len(win.done)) / win.wall.Seconds()
	out["serve.rejected"] = float64(win.after.RejectedQueueFull + win.after.RejectedTenantCap - win.before.RejectedQueueFull - win.before.RejectedTenantCap)
	out["serve.retries"] = float64(retries)
	reg := win.after.Registry
	out["serve.registry_hit_frac"] = float64(reg.Hits) / float64(reg.Hits+reg.Misses)
	out["serve.registry_compiles"] = float64(reg.Compiles)
	out["serve.shapes"] = float64(win.after.Shapes)
	out["serve.pad_waste_frac"] = (bucketed - exact) / bucketed
	out["serve.resp_bytes_per_atom"] = float64(win.respBytes) / atoms
	// Requests differ in cost by two orders of magnitude, so the overhead is
	// taken per pool entry, over the entries seen both traced and untraced.
	var ratios []float64
	for slot, t := range tracedBySlot {
		if p := plainBySlot[slot]; len(p) > 0 {
			ratios = append(ratios, median(t)/median(p))
		}
	}
	out["trace.overhead_frac"] = median(ratios) - 1
	out["trace.residual_frac"] = residualFrac(spans, "http")

	// plan, neighbor, core: the serial cost of the largest request, which is
	// the warm-up one.
	probeSys := d.pool[d.warm].sys
	releaseMemory()
	serialProbe(d.model, probeSys, out)
	// The warm-up request was the daemon's first: what it cost over the same
	// request once its shape's plan is pooled.
	again := append(append([]float64(nil), tracedBySlot[d.warm]...), plainBySlot[d.warm]...)
	if len(again) == 0 {
		return nil, fmt.Errorf("the window was too short to revisit the warm-up request")
	}
	out["plan.first_call_ms"] = warm.ms - median(again)
	out["core.workers2_speedup"] = out["core.force_ms"] / twoWorkerForceMs(d.model, probeSys)
	ref, err := refModelOf(d.model)
	if err != nil {
		return nil, err
	}
	ev := core.NewEvaluator(d.model)
	ev.Scratch.Workers = 1
	energy, forces := ev.EnergyForces(probeSys)
	ev.Close()
	out["core.force_rmse_mev_a"], out["core.energy_err_mev_atom"] = forceError(ref, probeSys, forces, energy)
	notEntered(out, "md.", "domain.", "transport.")

	closed = true
	if err := d.close(); err != nil {
		return nil, err
	}
	return res, res.setPerLayer(tr, cfg.OutDir, out)
}
