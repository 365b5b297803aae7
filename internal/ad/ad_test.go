package ad

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/o3"
	"repro/internal/tensor"
)

// checkGrad verifies the tape gradient of a scalar function against central
// finite differences for a chosen leaf.
func checkGrad(t *testing.T, name string, build func(tp *Tape, leaf *Value) *Value, leafData *tensor.Tensor, tol float64) {
	t.Helper()
	tp := NewTape(tensor.F64, tensor.F64)
	leaf := tp.Leaf(leafData.Clone(), true)
	root := build(tp, leaf)
	tp.Backward(root)
	g := leaf.Grad()
	if g == nil {
		t.Fatalf("%s: no gradient", name)
	}
	const h = 1e-6
	eval := func(data *tensor.Tensor) float64 {
		tp2 := NewTape(tensor.F64, tensor.F64)
		l2 := tp2.Leaf(data, true)
		return build(tp2, l2).T.Data[0]
	}
	for i := 0; i < leafData.Len(); i++ {
		dp := leafData.Clone()
		dm := leafData.Clone()
		dp.Data[i] += h
		dm.Data[i] -= h
		fd := (eval(dp) - eval(dm)) / (2 * h)
		if math.Abs(fd-g.Data[i]) > tol*(1+math.Abs(fd)) {
			t.Fatalf("%s grad[%d]: fd=%g tape=%g", name, i, fd, g.Data[i])
		}
	}
}

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randT(rng, 4, 3)
	w := randT(rng, 5, 3)
	b := randT(rng, 5)
	// Gradient w.r.t. x.
	checkGrad(t, "linear/x", func(tp *Tape, leaf *Value) *Value {
		wv := tp.Leaf(w.Clone(), false)
		bv := tp.Leaf(b.Clone(), false)
		return tp.SumAll(tp.SiLU(tp.Linear(leaf, wv, bv)))
	}, x, 1e-5)
	// Gradient w.r.t. w.
	checkGrad(t, "linear/w", func(tp *Tape, leaf *Value) *Value {
		xv := tp.Leaf(x.Clone(), false)
		bv := tp.Leaf(b.Clone(), false)
		return tp.SumAll(tp.SiLU(tp.Linear(xv, leaf, bv)))
	}, w, 1e-5)
	// Gradient w.r.t. b.
	checkGrad(t, "linear/b", func(tp *Tape, leaf *Value) *Value {
		xv := tp.Leaf(x.Clone(), false)
		wv := tp.Leaf(w.Clone(), false)
		return tp.SumAll(tp.SiLU(tp.Linear(xv, wv, leaf)))
	}, b, 1e-5)
}

func TestElementwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	x := randT(rng, 3, 4)
	y := randT(rng, 3, 4)
	checkGrad(t, "mul", func(tp *Tape, leaf *Value) *Value {
		yv := tp.Leaf(y.Clone(), false)
		return tp.SumAll(tp.Mul(leaf, yv))
	}, x, 1e-6)
	checkGrad(t, "scale", func(tp *Tape, leaf *Value) *Value {
		return tp.SumAll(tp.Scale(leaf, -2.5))
	}, x, 1e-6)
	checkGrad(t, "add", func(tp *Tape, leaf *Value) *Value {
		yv := tp.Leaf(y.Clone(), false)
		return tp.SumAll(tp.Add(tp.Add(leaf, yv), leaf))
	}, x, 1e-6)
}

func TestConcatSliceReshapeGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	x := randT(rng, 3, 2)
	y := randT(rng, 3, 4)
	checkGrad(t, "concat+slice", func(tp *Tape, leaf *Value) *Value {
		yv := tp.Leaf(y.Clone(), false)
		cat := tp.Concat(leaf, yv)
		sl := tp.SliceLast(cat, 1, 5)
		return tp.SumAll(tp.Square(sl))
	}, x, 1e-5)
	checkGrad(t, "reshape", func(tp *Tape, leaf *Value) *Value {
		r := tp.Reshape(leaf, 2, 3)
		return tp.SumAll(tp.Square(r))
	}, x, 1e-5)
}

func TestGatherScatterGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	x := randT(rng, 4, 3)
	idx := []int{2, 0, 2, 1, 3}
	checkGrad(t, "gather", func(tp *Tape, leaf *Value) *Value {
		g := tp.GatherRows(leaf, idx)
		return tp.SumAll(tp.Square(g))
	}, x, 1e-5)
	z := randT(rng, 5, 3)
	checkGrad(t, "scatter", func(tp *Tape, leaf *Value) *Value {
		s := tp.ScatterAddRows(leaf, idx, 4)
		return tp.SumAll(tp.Square(s))
	}, z, 1e-5)
}

func TestBroadcastOpsGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	x := randT(rng, 4, 6)
	s := randT(rng, 4, 1)
	checkGrad(t, "mulbcast/x", func(tp *Tape, leaf *Value) *Value {
		sv := tp.Leaf(s.Clone(), false)
		return tp.SumAll(tp.Square(tp.MulBroadcastLast(leaf, sv)))
	}, x, 1e-5)
	checkGrad(t, "mulbcast/s", func(tp *Tape, leaf *Value) *Value {
		xv := tp.Leaf(x.Clone(), false)
		return tp.SumAll(tp.Square(tp.MulBroadcastLast(xv, leaf)))
	}, s, 1e-5)
	w := randT(rng, 3, 2)
	y := randT(rng, 3, 5)
	checkGrad(t, "outer/s", func(tp *Tape, leaf *Value) *Value {
		yv := tp.Leaf(y.Clone(), false)
		return tp.SumAll(tp.Square(tp.OuterMul(leaf, yv)))
	}, w, 1e-5)
	checkGrad(t, "outer/y", func(tp *Tape, leaf *Value) *Value {
		wv := tp.Leaf(w.Clone(), false)
		return tp.SumAll(tp.Square(tp.OuterMul(wv, leaf)))
	}, y, 1e-5)
}

func TestGeometricOpsGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	rvec := tensor.New(4, 3)
	for i := range rvec.Data {
		rvec.Data[i] = rng.NormFloat64() + 1.5 // keep away from origin
	}
	rcuts := []float64{4, 4, 5, 4}
	checkGrad(t, "norm", func(tp *Tape, leaf *Value) *Value {
		return tp.SumAll(tp.Square(tp.Norm(leaf)))
	}, rvec, 1e-5)
	checkGrad(t, "sphharm", func(tp *Tape, leaf *Value) *Value {
		return tp.SumAll(tp.Square(tp.SphHarm(leaf, 2)))
	}, rvec, 1e-4)
	checkGrad(t, "bessel", func(tp *Tape, leaf *Value) *Value {
		r := tp.Norm(leaf)
		return tp.SumAll(tp.Square(tp.Bessel(r, rcuts, 4)))
	}, rvec, 1e-4)
	checkGrad(t, "cutoff", func(tp *Tape, leaf *Value) *Value {
		r := tp.Norm(leaf)
		return tp.SumAll(tp.Square(tp.PolyCutoff(r, rcuts, 6)))
	}, rvec, 1e-4)
}

func TestEnvSumGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	w := randT(rng, 5, 2)
	y := randT(rng, 5, 4)
	center := []int{0, 1, 0, 2, 1}
	checkGrad(t, "envsum/w", func(tp *Tape, leaf *Value) *Value {
		yv := tp.Leaf(y.Clone(), false)
		return tp.SumAll(tp.Square(tp.EnvSum(leaf, yv, center, 3, 0.7)))
	}, w, 1e-5)
	checkGrad(t, "envsum/y", func(tp *Tape, leaf *Value) *Value {
		wv := tp.Leaf(w.Clone(), false)
		return tp.SumAll(tp.Square(tp.EnvSum(wv, leaf, center, 3, 0.7)))
	}, y, 1e-5)
}

func TestTensorProductOpGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	prod := o3.NewTensorProduct(o3.FullIrreps(1), o3.SphericalIrreps(1), o3.FullIrreps(1))
	x := randT(rng, 2, 2, prod.In1.Width)
	y := randT(rng, 2, 2, prod.In2.Width)
	w := randT(rng, prod.NumPaths())
	checkGrad(t, "tp/x", func(tp *Tape, leaf *Value) *Value {
		yv := tp.Leaf(y.Clone(), false)
		wv := tp.Leaf(w.Clone(), false)
		return tp.SumAll(tp.Square(tp.TensorProduct(prod, leaf, yv, wv, nil)))
	}, x, 1e-5)
	checkGrad(t, "tp/y", func(tp *Tape, leaf *Value) *Value {
		xv := tp.Leaf(x.Clone(), false)
		wv := tp.Leaf(w.Clone(), false)
		return tp.SumAll(tp.Square(tp.TensorProduct(prod, xv, leaf, wv, nil)))
	}, y, 1e-5)
	checkGrad(t, "tp/w", func(tp *Tape, leaf *Value) *Value {
		xv := tp.Leaf(x.Clone(), false)
		yv := tp.Leaf(y.Clone(), false)
		return tp.SumAll(tp.Square(tp.TensorProduct(prod, xv, yv, leaf, nil)))
	}, w, 1e-5)
}

func TestWeightedSumAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	x := randT(rng, 5, 1)
	w := []float64{1, -2, 0.5, 3, -1}
	checkGrad(t, "weightedsum", func(tp *Tape, leaf *Value) *Value {
		return tp.WeightedSumAll(tp.Square(leaf), w)
	}, x, 1e-5)
}

func TestCompositePipelineGradient(t *testing.T) {
	// A miniature Allegro-like pipeline end to end: rvec -> (r, Y, bessel)
	// -> MLP latent -> env weights -> env sum -> TP -> scalars -> energy.
	rng := rand.New(rand.NewPCG(10, 10))
	z := 6
	rvec := tensor.New(z, 3)
	for i := range rvec.Data {
		rvec.Data[i] = rng.NormFloat64()*0.8 + 1.2
	}
	center := []int{0, 0, 1, 1, 2, 2}
	rcuts := make([]float64, z)
	for i := range rcuts {
		rcuts[i] = 6.0
	}
	prod := o3.NewTensorProduct(o3.SphericalIrreps(1), o3.SphericalIrreps(1), o3.FullIrreps(1))
	u := 2
	w1 := randT(rng, 8, 4)
	w2 := randT(rng, u, 8)
	wtp := randT(rng, prod.NumPaths())
	wout := randT(rng, 1, 8)

	build := func(tp *Tape, leaf *Value) *Value {
		r := tp.Norm(leaf)
		y := tp.SphHarm(leaf, 1)
		bes := tp.Bessel(r, rcuts, 4)
		h := tp.SiLU(tp.Linear(bes, tp.Leaf(w1.Clone(), false), nil))
		envw := tp.Linear(h, tp.Leaf(w2.Clone(), false), nil)
		env := tp.EnvSum(envw, y, center, 3, 0.5)
		envPairs := tp.GatherRows(env, center)
		v0 := tp.OuterMul(envw, y)
		tpo := tp.TensorProduct(prod, v0, envPairs, tp.Leaf(wtp.Clone(), false), nil)
		scal := tp.Reshape(tp.SliceLast(tpo, 0, 1), z, u)
		cat := tp.Concat(h, scal)
		_ = cat
		e := tp.Linear(h, tp.Leaf(wout.Clone(), false), nil)
		cut := tp.PolyCutoff(r, rcuts, 6)
		eCut := tp.MulBroadcastLast(e, cut)
		return tp.Add(tp.SumAll(eCut), tp.SumAll(tp.Square(scal)))
	}
	checkGrad(t, "composite", build, rvec, 5e-4)
}

func TestBackwardRequiresScalarRoot(t *testing.T) {
	tp := NewTape(tensor.F64, tensor.F64)
	x := tp.Leaf(tensor.New(2, 2), true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar root")
		}
	}()
	tp.Backward(x)
}

func TestStorePrecisionQuantizesForward(t *testing.T) {
	tp := NewTape(tensor.F32, tensor.F32)
	x := tp.Leaf(tensor.FromSlice([]float64{1.0000000001, 2.0000000002}, 1, 2), false)
	y := tp.SiLU(x)
	for _, v := range y.T.Data {
		if float64(float32(v)) != v {
			t.Fatalf("activation %v not quantized to f32", v)
		}
	}
}
