package core

import (
	"math"

	"repro/internal/ad"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/o3"
	"repro/internal/tensor"
)

// ops is the vocabulary of the Allegro forward pass. *plan.Builder records
// it into a replayable program (inference); tapeOps runs it on the autodiff
// tape (training, diagnostics, the test oracle) and ignores the shape
// arguments the builder sizes its registers with.
type ops[H any] interface {
	Norm(rvec H) H
	PolyCutoff(r H, p int) H
	Bessel(r H, nb int) H
	SphHarm(rvec H, lmax, dim int) H
	MulBroadcast(x, s H, rows, c int) H
	Concat2(a, b H, rows, ca, cb int) H
	Linear(x H, w, bias *tensor.Tensor, rows int) H
	SiLU(x H) H
	OuterMul(s, y H, z, u, c int) H
	EnvSum(w, y H, u, c int, scale float64) H
	Gather(x H, rowLen int) H
	TP(x, y H, layer, zu, w1, w2, w3 int) H
	SliceLast(x H, rows, width, last, lo int) H
	Add(a, b H) H
	Scale(x H, c float64, finalQ bool) H
}

// forward is the one definition of the Allegro model: from the [Z,3] pair
// vectors and [Z,2S] species one-hot to the per-pair energies (enveloped and
// Final-rounded) and the final latent. Both executors run exactly this op
// sequence, which is what makes compiled replay bit-identical to the tape.
func forward[H any](m *Model, g ops[H], rvec, oneHot H, z int) (ePair, latent H) {
	cfg := &m.Cfg
	s := m.Idx.Len()
	u := cfg.NumChannels

	r := g.Norm(rvec)                 // [Z,1]
	env := g.PolyCutoff(r, cfg.PolyP) // [Z,1]
	bes := g.Bessel(r, cfg.NumBessel) // [Z,NB]
	besCut := g.MulBroadcast(bes, env, z, cfg.NumBessel)
	sphDim := o3.SphDim(cfg.LMax)
	sph := g.SphHarm(rvec, cfg.LMax, sphDim) // [Z,(lmax+1)^2]

	// Two-body latent.
	h := mlp(g, m.twoBody, g.Concat2(oneHot, besCut, z, 2*s, cfg.NumBessel), z) // [Z,L]

	// Initial tensor features: V0[z,u,:] = (embed h)[z,u] * Y[z,:].
	chanW := g.Linear(h, m.embedLin, nil, z)  // [Z,U]
	v := g.OuterMul(chanW, sph, z, u, sphDim) // [Z,U,sphW]

	scaleRes := 1 / math.Sqrt(2.0)
	for l := 0; l < cfg.NumLayers; l++ {
		tp := m.tps[l]
		// Environment weights, cutoff-enveloped so distant pairs fade out.
		wEnv := g.MulBroadcast(g.Linear(h, m.envLins[l], nil, z), env, z, u) // [Z,U]
		envSum := g.EnvSum(wEnv, sph, u, sphDim, cfg.envNorm())              // [N,U,sphW]
		envPairs := g.Gather(envSum, u*sphDim)                               // [Z,U,sphW]
		tpo := g.TP(v, envPairs, l, z*u, tp.In1.Width, tp.In2.Width, tp.Out.Width)

		// Scalar (0e) channel extraction feeds the latent track.
		lo, hi := tp.Out.Block(tp.Out.ScalarIndex())
		scal := g.SliceLast(tpo, z*u, hi-lo, tp.Out.Width, lo) // [Z,U]

		// Latent update with residual mixing.
		hNew := mlp(g, m.latents[l], g.Concat2(h, scal, z, cfg.LatentDim, u), z)
		h = g.Scale(g.Add(h, hNew), scaleRes, false)

		// Scalar track controls the tensor track through channel weights.
		// The last layer has no next tensor track to feed, so its update
		// would be dead work (its parameter stays, for the file format).
		if l < cfg.NumLayers-1 {
			cw := g.Linear(h, m.chanLins[l], nil, z) // [Z,U]
			v = g.MulBroadcast(tpo, cw, z*u, tp.Out.Width)
		}
	}

	// Final per-pair energies, enveloped for smoothness at the cutoff. The
	// paper keeps the final stage in double precision; a narrower Final
	// precision is emulated by rounding the pair energies before the sum.
	ePair = g.MulBroadcast(mlp(g, m.edgeMLP, h, z), env, z, 1) // [Z,1]
	if cfg.Precision.Final != tensor.F64 {
		ePair = g.Scale(ePair, 1, true)
	}
	return ePair, h
}

// mlp applies net: linear layers with SiLU between them (nn.MLP.Apply).
func mlp[H any](g ops[H], net *nn.MLP, x H, rows int) H {
	for l, w := range net.Ws {
		x = g.Linear(x, w, net.Bs[l], rows)
		if l+1 < len(net.Ws) {
			x = g.SiLU(x)
		}
	}
	return x
}

// tapeOps runs each primitive as one ad.Tape call over the pair list, with
// parameters bound through the binder so training sees their gradients.
type tapeOps struct {
	tape  *ad.Tape
	b     *nn.Binder
	pairs *neighbor.Pairs
	m     *Model
	fused [][]o3.TPEntry
}

func (t *tapeOps) Norm(rvec *ad.Value) *ad.Value { return t.tape.Norm(rvec) }
func (t *tapeOps) PolyCutoff(r *ad.Value, p int) *ad.Value {
	return t.tape.PolyCutoff(r, t.pairs.Cut, p)
}
func (t *tapeOps) Bessel(r *ad.Value, nb int) *ad.Value          { return t.tape.Bessel(r, t.pairs.Cut, nb) }
func (t *tapeOps) SphHarm(rvec *ad.Value, lmax, _ int) *ad.Value { return t.tape.SphHarm(rvec, lmax) }
func (t *tapeOps) MulBroadcast(x, s *ad.Value, _, _ int) *ad.Value {
	return t.tape.MulBroadcastLast(x, s)
}
func (t *tapeOps) Concat2(a, b *ad.Value, _, _, _ int) *ad.Value  { return t.tape.Concat(a, b) }
func (t *tapeOps) SiLU(x *ad.Value) *ad.Value                     { return t.tape.SiLU(x) }
func (t *tapeOps) OuterMul(s, y *ad.Value, _, _, _ int) *ad.Value { return t.tape.OuterMul(s, y) }
func (t *tapeOps) Gather(x *ad.Value, _ int) *ad.Value            { return t.tape.GatherRows(x, t.pairs.I) }
func (t *tapeOps) Add(a, b *ad.Value) *ad.Value                   { return t.tape.Add(a, b) }
func (t *tapeOps) EnvSum(w, y *ad.Value, _, _ int, scale float64) *ad.Value {
	return t.tape.EnvSum(w, y, t.pairs.I, t.pairs.NAtoms, scale)
}
func (t *tapeOps) TP(x, y *ad.Value, layer, _, _, _, _ int) *ad.Value {
	return t.tape.TensorProduct(t.m.tps[layer], x, y, t.b.Bind(t.m.tpWts[layer]), t.fused[layer])
}

func (t *tapeOps) Linear(x *ad.Value, w, bias *tensor.Tensor, _ int) *ad.Value {
	var bv *ad.Value
	if bias != nil {
		bv = t.b.Bind(bias)
	}
	return t.tape.Linear(x, t.b.Bind(w), bv)
}

// SliceLast also flattens the [Z,U,width] slice to [Z,U*width], the 2-D
// operand the latent track's concatenation takes.
func (t *tapeOps) SliceLast(x *ad.Value, _, width, _, lo int) *ad.Value {
	y := t.tape.SliceLast(x, lo, lo+width)
	return t.tape.Reshape(y, y.T.Shape[0], y.T.Shape[1]*y.T.Shape[2])
}

// Scale with finalQ rounds the scaled copy to the Final precision in place.
func (t *tapeOps) Scale(x *ad.Value, c float64, finalQ bool) *ad.Value {
	y := t.tape.Scale(x, c)
	if finalQ {
		y.T.Quantize(t.m.Cfg.Precision.Final)
	}
	return y
}
