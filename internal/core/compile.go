package core

import (
	"math"

	"repro/internal/atoms"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/o3"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// compilePlan records the Allegro forward pass once for a (Z pairs, N atoms)
// chunk shape into a flat execution plan. The statement sequence below
// mirrors buildGraph exactly — same ops, same order, same rounding points
// — which is what makes compiled replay bit-identical to the tape path; the
// plan just strips the Value/Tape bookkeeping, folds the frozen weights once
// (rounded matmul operands, fused TPEntry tables via Inputs.Fused), and
// hand-schedules the analytic backward.
func (m *Model) compilePlan(z, nAtoms int) *plan.Program {
	cfg := &m.Cfg
	s := m.Idx.Len()
	u := cfg.NumChannels
	b := plan.NewBuilder(z, nAtoms, cfg.Precision.Compute, cfg.Precision.Weights, cfg.Precision.Final)

	rvec := b.InputRvec()
	oneHot := b.InputOneHot(s)

	r := b.Norm(rvec)
	env := b.PolyCutoff(r, cfg.PolyP)
	bes := b.Bessel(r, cfg.NumBessel)
	besCut := b.MulBroadcast(bes, env, z, cfg.NumBessel)
	sphDim := o3.SphDim(cfg.LMax)
	sph := b.SphHarm(rvec, cfg.LMax, sphDim)

	// Two-body latent.
	h := compileMLP(b, m.twoBody, b.Concat2(oneHot, besCut, z, 2*s, cfg.NumBessel), z)

	// Initial tensor features: V0[z,u,:] = (embed h)[z,u] * Y[z,:].
	chanW := b.Linear(h, m.embedLin, nil, z)
	v := b.OuterMul(chanW, sph, z, u, sphDim)

	scaleRes := 1 / math.Sqrt(2.0)
	for l := 0; l < cfg.NumLayers; l++ {
		tp := m.tps[l]
		wEnv := b.MulBroadcast(b.Linear(h, m.envLins[l], nil, z), env, z, u)
		envSum := b.EnvSum(wEnv, sph, u, sphDim, cfg.envNorm())
		envPairs := b.Gather(envSum, u*sphDim)
		tpo := b.TP(v, envPairs, l, z*u, tp.In1.Width, tp.In2.Width, tp.Out.Width)

		scalIdx := tp.Out.ScalarIndex()
		lo, hi := tp.Out.Block(scalIdx)
		scal := b.Copy(b.SliceLast(tpo, z*u, hi-lo, tp.Out.Width, lo))

		hNew := compileMLP(b, m.latents[l], b.Concat2(h, scal, z, cfg.LatentDim, u), z)
		h = b.Scale(b.Add(h, hNew), scaleRes, false)

		// The final layer's channel-weight update feeds only the (absent)
		// next tensor track: the tape computes it and drops it (its output
		// never receives an adjoint); the compiler eliminates it statically.
		if l < cfg.NumLayers-1 {
			cw := b.Linear(h, m.chanLins[l], nil, z)
			v = b.MulBroadcast(tpo, cw, z*u, tp.Out.Width)
		}
	}

	eRaw := compileMLP(b, m.edgeMLP, h, z)
	ePair := b.MulBroadcast(eRaw, env, z, 1)
	if cfg.Precision.Final != tensor.F64 {
		ePair = b.Scale(ePair, 1, true)
	}
	b.SetPairE(ePair)
	b.WeightedSumAll(ePair)
	return b.Finish()
}

// compileMLP mirrors nn.MLP.Apply: linear layers with SiLU between them.
func compileMLP(b *plan.Builder, mlp *nn.MLP, x plan.Reg, rows int) plan.Reg {
	h := x
	for l, w := range mlp.Ws {
		h = b.Linear(h, w, mlp.Bs[l], rows)
		if l+1 < len(mlp.Ws) {
			h = b.SiLU(h)
		}
	}
	return h
}

// planKey identifies one compiled shape: plans are specific to the exact
// padded pair count and atom count, which the Evaluator's PadTo running-max
// padding keeps constant across MD steps.
type planKey struct{ z, n int }

// planCache owns the compiled programs of one evaluation context (the serial
// scratch, or one chunk worker). Plans key on shape and are invalidated
// wholesale when the model, its precision scheme, or its parameter version
// changes — so training between evaluations recompiles instead of replaying
// stale folded weights. Like the scratch it lives in, a planCache serves one
// goroutine.
//
// With shared set (EvalScratch.UsePlanRegistry), the cache stops compiling
// privately: plans are *leased* from the cross-tenant PlanRegistry on first
// dispatch of a shape, held locally (the steady-state fast path stays
// lock-free and allocation-free) and returned by releaseAll when the owning
// request completes. Stale leases — detected by the same version check —
// are handed back to the registry, which drops them.
type planCache struct {
	model   *Model
	version uint64
	prec    PrecisionConfig
	plans   map[planKey]*plan.Program
	shared  *PlanRegistry
	ti, tj  []int
	in      plan.Inputs
	// refKernels replays every program this cache dispatches on the pre-kern
	// reference kernels (bit-identical; the differential oracle of
	// TestKernKernelsMatchReference — nothing outside tests sets it).
	refKernels bool
	// profile mirrors EvalScratch.Profile: when non-nil, replays run through
	// plan.ExecuteProfiled and fold per-kernel-class timings into it.
	profile *plan.KernelProfile
}

// KernelProfile re-exports the compiled plans' per-kernel-class replay
// breakdown for callers outside the internal plan package (bench --trace 1).
type KernelProfile = plan.KernelProfile

// maxCachedPlans bounds one context's live programs. Shapes churn only
// while the PadTo running maximum ramps up (serial) or across rank
// migrations (decomposed); a program's slabs are multi-MB at production
// channel counts, so shapes that stopped recurring must not accumulate.
// Evicting everything on overflow is fine: recompiles are cheap and rare.
const maxCachedPlans = 8

// program returns the cached (or freshly compiled/leased) plan for the shape.
func (pc *planCache) program(m *Model, z, nAtoms int) *plan.Program {
	v := m.Params.Version()
	if pc.plans == nil || pc.model != m || pc.version != v || pc.prec != m.Cfg.Precision {
		if pc.plans == nil {
			pc.plans = make(map[planKey]*plan.Program)
		} else {
			pc.flush() // stale leases go back to the registry (dropped there)
		}
		pc.model, pc.version, pc.prec = m, v, m.Cfg.Precision
	}
	key := planKey{z, nAtoms}
	pg := pc.plans[key]
	if pg == nil {
		if len(pc.plans) >= maxCachedPlans {
			pc.flush() // dead-shape slabs outweigh the recompiles
		}
		if pc.shared != nil {
			pg = pc.shared.acquire(m, z, nAtoms)
		} else {
			pg = m.compilePlan(z, nAtoms)
		}
		pc.plans[key] = pg
	}
	return pg
}

// flush empties the local plan map. Privately compiled plans are simply
// dropped; leased plans are returned to the shared registry under the
// binding they were leased with (the registry pools the current ones and
// evicts the stale).
func (pc *planCache) flush() {
	if pc.shared != nil {
		for key, pg := range pc.plans {
			pc.shared.release(pc.model, pc.version, pc.prec, key, pg)
		}
	}
	clear(pc.plans)
}

// releaseAll returns every leased plan to the shared registry (no-op for a
// private cache). Evaluation contexts serving independent requests call this
// between requests so the programs they warmed are available to every other
// tenant.
func (pc *planCache) releaseAll() {
	if pc.shared == nil || len(pc.plans) == 0 {
		return
	}
	pc.flush()
}

// run replays the plan for the pair list: it refreshes the species-index
// buffers, assembles the Inputs view over the caller's pair storage, and
// executes forward + analytic backward. Allocation-free once the shape's
// plan and the index buffers are warm.
func (pc *planCache) run(m *Model, sys *atoms.System, pairs *neighbor.Pairs) *plan.Program {
	z := pairs.Len()
	pg := pc.program(m, z, pairs.NAtoms)
	if cap(pc.ti) < z {
		pc.ti = make([]int, z)
		pc.tj = make([]int, z)
	}
	ti, tj := pc.ti[:z], pc.tj[:z]
	for i := 0; i < z; i++ {
		ti[i] = m.Idx.Index(sys.Species[pairs.I[i]])
		tj[i] = m.Idx.Index(sys.Species[pairs.J[i]])
	}
	fused, packed, sorted, sorted32 := m.fusedTables()
	pg.SetRefKernels(pc.refKernels)
	pc.in = plan.Inputs{
		Vec: pairs.Vec, Cut: pairs.Cut, I: pairs.I,
		TI: ti, TJ: tj,
		Scale: m.EnergyScale,
		Fused: fused, Fused32: packed,
		FusedS: sorted, Fused32S: sorted32,
	}
	if pc.profile != nil {
		pg.ExecuteProfiled(&pc.in, pc.profile)
	} else {
		pg.Execute(&pc.in)
	}
	return pg
}
