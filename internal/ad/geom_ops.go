package ad

import (
	"fmt"
	"math"

	"repro/internal/o3"
	"repro/internal/tensor"
)

// Norm maps pair displacement vectors rvec [Z,3] to distances [Z,1].
func (tp *Tape) Norm(rvec *Value) *Value {
	z := rvec.T.Shape[0]
	if rvec.T.NDim() != 2 || rvec.T.Shape[1] != 3 {
		panic("ad: Norm expects [Z,3]")
	}
	y := tensor.New(z, 1)
	for i := 0; i < z; i++ {
		r := rvec.T.Row(i)
		y.Data[i] = math.Sqrt(r[0]*r[0] + r[1]*r[1] + r[2]*r[2])
	}
	v := tp.node(y, rvec.req)
	op := tp.ops.norm.get()
	*op = normOp{v: v, rvec: rvec, z: z}
	v.back = op
	return v
}

// SphHarm maps pair vectors [Z,3] to real spherical harmonics [Z,(lmax+1)^2]
// of the pair direction, with analytic gradients through normalization.
func (tp *Tape) SphHarm(rvec *Value, lmax int) *Value {
	z := rvec.T.Shape[0]
	dim := o3.SphDim(lmax)
	y := tensor.New(z, dim)
	// Persistent scratch (survives Reset) plus a tape-allocated flat
	// gradient table [z, dim*3] so steady-state passes allocate nothing.
	if cap(tp.sphBuf) < dim {
		tp.sphBuf = make([]float64, dim)
		tp.sphGBuf = make([][3]float64, dim)
	}
	buf := tp.sphBuf[:dim]
	gbuf := tp.sphGBuf[:dim]
	var grads *tensor.Tensor
	if rvec.req {
		grads = tensor.New(z, dim*3)
	}
	for i := 0; i < z; i++ {
		rr := rvec.T.Row(i)
		r := [3]float64{rr[0], rr[1], rr[2]}
		if rvec.req {
			o3.SphHarmGrad(lmax, r, buf, gbuf)
			row := grads.Row(i)
			for c, g := range gbuf {
				row[3*c] = g[0]
				row[3*c+1] = g[1]
				row[3*c+2] = g[2]
			}
		} else {
			o3.SphHarm(lmax, r, buf)
		}
		copy(y.Row(i), buf)
	}
	tp.store(y)
	v := tp.node(y, rvec.req)
	op := tp.ops.sph.get()
	*op = sphHarmOp{v: v, rvec: rvec, grads: grads, z: z, dim: dim}
	v.back = op
	return v
}

// Bessel expands distances r [Z,1] in nb sine-Bessel radial basis functions
//
//	b_n(r) = sqrt(2/rc) * sin(n*pi*r/rc) / r
//
// with a per-pair cutoff rc = rcuts[z] (the paper's per-ordered-species-pair
// cutoffs make rc pair-dependent). Output is [Z,nb].
func (tp *Tape) Bessel(r *Value, rcuts []float64, nb int) *Value {
	z := r.T.Shape[0]
	if len(rcuts) != z {
		panic("ad: Bessel rcuts length mismatch")
	}
	y := tensor.New(z, nb)
	for i := 0; i < z; i++ {
		rv := r.T.Data[i]
		rc := rcuts[i]
		pref := math.Sqrt(2/rc) / rv
		for n := 1; n <= nb; n++ {
			y.Data[i*nb+n-1] = pref * math.Sin(float64(n)*math.Pi*rv/rc)
		}
	}
	tp.store(y)
	v := tp.node(y, r.req)
	op := tp.ops.bessel.get()
	*op = besselOp{v: v, r: r, rcuts: rcuts, z: z, nb: nb}
	v.back = op
	return v
}

// PolyCutoff applies the polynomial envelope of Klicpera et al. used by
// NequIP/Allegro, with exponent p and per-pair cutoffs:
//
//	f(x) = 1 - (p+1)(p+2)/2 x^p + p(p+2) x^(p+1) - p(p+1)/2 x^(p+2),  x = r/rc
//
// f and f' vanish smoothly at r = rc; beyond the cutoff f = 0. Output [Z,1].
func (tp *Tape) PolyCutoff(r *Value, rcuts []float64, p int) *Value {
	z := r.T.Shape[0]
	if len(rcuts) != z {
		panic("ad: PolyCutoff rcuts length mismatch")
	}
	fp := float64(p)
	c1 := (fp + 1) * (fp + 2) / 2
	c2 := fp * (fp + 2)
	c3 := fp * (fp + 1) / 2
	y := tensor.New(z, 1)
	for i := 0; i < z; i++ {
		x := r.T.Data[i] / rcuts[i]
		if x >= 1 {
			continue
		}
		xp := math.Pow(x, fp)
		y.Data[i] = 1 - c1*xp + c2*xp*x - c3*xp*x*x
	}
	tp.store(y)
	v := tp.node(y, r.req)
	op := tp.ops.polycut.get()
	*op = polyCutoffOp{v: v, r: r, rcuts: rcuts, fp: fp, c1: c1, c2: c2, c3: c3, z: z}
	v.back = op
	return v
}

// EnvSum computes the per-atom weighted environment embedding
//
//	env[i,u,c] = scale * sum_{z : center[z]=i} w[z,u] * y[z,c]
//
// — the bilinearity trick of Eq. 2: neighbors are summed *before* the tensor
// product. w is [Z,U], y is [Z,C], output [n,U,C].
func (tp *Tape) EnvSum(w, y *Value, center []int, n int, scale float64) *Value {
	z, u := w.T.Shape[0], w.T.Shape[1]
	c := y.T.Shape[1]
	if y.T.Shape[0] != z || len(center) != z {
		panic("ad: EnvSum shape mismatch")
	}
	out := tensor.New(n, u, c)
	for zi := 0; zi < z; zi++ {
		i := center[zi]
		yRow := y.T.Row(zi)
		for ui := 0; ui < u; ui++ {
			wv := scale * w.T.Data[zi*u+ui]
			dst := out.Data[(i*u+ui)*c : (i*u+ui+1)*c]
			for j, yv := range yRow {
				dst[j] += wv * yv
			}
		}
	}
	tp.store(out)
	v := tp.node(out, w.req || y.req)
	op := tp.ops.envsum.get()
	*op = envSumOp{v: v, w: w, y: y, center: center, scale: scale, z: z, u: u, c: c}
	v.back = op
	return v
}

// TensorProduct applies the fused equivariant tensor product with learned
// per-path weights: x [Z,U,W1] (x) y [Z,U,W2] -> [Z,U,W3].
//
// fused may carry a weight-folded entry table already flattened from the
// same weights (the Model-level frozen-weight cache); the forward pass then
// skips the per-call re-flatten. Pass nil to fold weights into the tape's
// entry scratch as before. The backward pass always differentiates through
// the per-path weights, so training gradients are unaffected either way.
func (tp *Tape) TensorProduct(prod *o3.TensorProduct, x, y, weights *Value, fused []o3.TPEntry) *Value {
	if weights.T.Len() != prod.NumPaths() {
		panic(fmt.Sprintf("ad: TensorProduct got %d weights for %d paths", weights.T.Len(), prod.NumPaths()))
	}
	out := tensor.New(x.T.Dim(0), x.T.Dim(1), prod.Out.Width)
	if fused != nil {
		o3.ContractEntries(out.Data, x.T.Data, y.T.Data, x.T.Dim(0)*x.T.Dim(1),
			prod.In1.Width, prod.In2.Width, prod.Out.Width, fused, tp.Compute)
	} else {
		tp.tpEntries = prod.ApplyFusedInto(out, x.T, y.T, weights.T.Data, tp.Compute, tp.tpEntries)
	}
	tp.store(out)
	v := tp.node(out, x.req || y.req || weights.req)
	op := tp.ops.tprod.get()
	*op = tensorProdOp{v: v, x: x, y: y, weights: weights, prod: prod}
	v.back = op
	return v
}
