package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ad"
	"repro/internal/tensor"
)

func TestParamSet(t *testing.T) {
	ps := NewParamSet()
	a := ps.Add("a", tensor.New(2, 3))
	ps.Add("b", tensor.New(4))
	if ps.NumParams() != 10 {
		t.Fatalf("NumParams = %d, want 10", ps.NumParams())
	}
	if ps.Get("a") != a {
		t.Fatal("Get should return the registered tensor")
	}
	if ps.Get("missing") != nil {
		t.Fatal("Get of missing name should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add should panic")
		}
	}()
	ps.Add("a", tensor.New(1))
}

func TestMLPShapesAndInitScale(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ps := NewParamSet()
	m := NewMLP(ps, rng, "mlp", []int{8, 16, 4}, true)
	if m.OutDim() != 4 {
		t.Fatalf("OutDim = %d", m.OutDim())
	}
	// Init variance should be ~1/fan_in.
	w := m.Ws[0]
	varSum := 0.0
	for _, v := range w.Data {
		varSum += v * v
	}
	varEst := varSum / float64(w.Len())
	if varEst < 0.05 || varEst > 0.25 { // 1/8 = 0.125 expected
		t.Fatalf("weight variance %g far from 1/fan_in=0.125", varEst)
	}
	tape := ad.NewTape(tensor.F64, tensor.F64)
	b := NewBinder(tape, false)
	x := tape.Const(tensor.New(5, 8))
	y := m.Apply(b, x)
	if y.T.Shape[0] != 5 || y.T.Shape[1] != 4 {
		t.Fatalf("MLP output shape %v", y.T.Shape)
	}
}

func TestMLPActivationVariancePreserved(t *testing.T) {
	// Unit-variance inputs through a wide MLP should stay O(1): the
	// normalization property the mixed-precision design depends on.
	rng := rand.New(rand.NewPCG(3, 4))
	ps := NewParamSet()
	m := NewMLP(ps, rng, "mlp", []int{64, 128, 128, 64}, false)
	x := tensor.New(32, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	tape := ad.NewTape(tensor.F64, tensor.F64)
	b := NewBinder(tape, false)
	y := m.Apply(b, tape.Const(x))
	varSum := 0.0
	for _, v := range y.T.Data {
		varSum += v * v
	}
	rms := math.Sqrt(varSum / float64(y.T.Len()))
	if rms < 0.05 || rms > 5 {
		t.Fatalf("output RMS %g not O(1)", rms)
	}
}

func TestBinderSharesLeaves(t *testing.T) {
	tape := ad.NewTape(tensor.F64, tensor.F64)
	b := NewBinder(tape, true)
	w := tensor.New(2, 2)
	v1 := b.Bind(w)
	v2 := b.Bind(w)
	if v1 != v2 {
		t.Fatal("Binder must cache leaves per tensor")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||x - target||^2 with Adam; must converge.
	ps := NewParamSet()
	x := ps.Add("x", tensor.FromSlice([]float64{5, -3, 2}, 3))
	target := []float64{1, 2, 3}
	opt := NewAdam(0.1)
	for it := 0; it < 500; it++ {
		g := tensor.New(3)
		for i := range g.Data {
			g.Data[i] = 2 * (x.Data[i] - target[i])
		}
		opt.Step(ps, func(t *tensor.Tensor) *tensor.Tensor { return g })
	}
	for i := range target {
		if math.Abs(x.Data[i]-target[i]) > 1e-2 {
			t.Fatalf("Adam did not converge: x=%v", x.Data)
		}
	}
}

func TestAdamSkipsNilGrads(t *testing.T) {
	ps := NewParamSet()
	x := ps.Add("x", tensor.FromSlice([]float64{1}, 1))
	opt := NewAdam(0.1)
	opt.Step(ps, func(t *tensor.Tensor) *tensor.Tensor { return nil })
	if x.Data[0] != 1 {
		t.Fatal("parameter without gradient must not move")
	}
}

func TestMLPTrainingEndToEnd(t *testing.T) {
	// Fit y = sin(2x) on [-1,1] with a small MLP trained through the tape.
	rng := rand.New(rand.NewPCG(5, 6))
	ps := NewParamSet()
	m := NewMLP(ps, rng, "f", []int{1, 32, 32, 1}, true)
	opt := NewAdam(0.01)
	n := 64
	xs := tensor.New(n, 1)
	ys := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		x := rng.Float64()*2 - 1
		xs.Data[i] = x
		ys.Data[i] = math.Sin(2 * x)
	}
	negYs := ys.Clone()
	negYs.Scale(-1, tensor.F64)
	var last float64
	for epoch := 0; epoch < 400; epoch++ {
		tape := ad.NewTape(tensor.F64, tensor.F64)
		b := NewBinder(tape, true)
		pred := m.Apply(b, tape.Const(xs))
		diff := tape.Add(pred, tape.Const(negYs))
		loss := tape.Scale(tape.SumAll(tape.Square(diff)), 1/float64(n))
		tape.Backward(loss)
		opt.Step(ps, b.Grad)
		last = loss.T.Data[0]
	}
	if last > 0.01 {
		t.Fatalf("MLP failed to fit sin(2x): loss %g", last)
	}
}

func TestEMATracksAndCopies(t *testing.T) {
	ps := NewParamSet()
	x := ps.Add("x", tensor.FromSlice([]float64{0}, 1))
	ema := NewEMA(ps, 0.5)
	x.Data[0] = 10
	ema.Update(ps) // shadow = 0.5*0 + 0.5*10 = 5
	ema.Update(ps) // shadow = 0.5*5 + 0.5*10 = 7.5
	ema.CopyTo(ps)
	if x.Data[0] != 7.5 {
		t.Fatalf("EMA = %v, want 7.5", x.Data[0])
	}
}

func TestGradAccumulator(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", tensor.FromSlice([]float64{1, 1}, 2))
	ga := NewGradAccumulator()
	g := tensor.FromSlice([]float64{3, 4}, 2)
	ga.AddScaled(w, g, 2)
	if ga.Grad(w).Data[0] != 6 || ga.Grad(w).Data[1] != 8 {
		t.Fatalf("AddScaled wrong: %v", ga.Grad(w).Data)
	}
	norm := ga.ClipNorm(5)
	if math.Abs(norm-10) > 1e-12 {
		t.Fatalf("pre-clip norm %g, want 10", norm)
	}
	if n := math.Hypot(ga.Grad(w).Data[0], ga.Grad(w).Data[1]); math.Abs(n-5) > 1e-9 {
		t.Fatalf("post-clip norm %g, want 5", n)
	}
	ga.Reset()
	if ga.Grad(w) != nil {
		t.Fatal("Reset must clear gradients")
	}
}

// TestGradAccumulatorClipNormReproducible: the global norm is one sum over
// every accumulated buffer, and its rounding depends on the order of the
// terms. Identical calls must return identical bits, equal to the sum taken
// in first-accumulation order.
func TestGradAccumulatorClipNormReproducible(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	ps := NewParamSet()
	ga := NewGradAccumulator()
	want := 0.0
	for k := 0; k < 40; k++ {
		p := ps.Add(fmt.Sprintf("p%d", k), tensor.New(3))
		g := tensor.New(3)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(7)-3))
		}
		ga.AddScaled(p, g, 1)
		want += g.Dot(g)
	}
	want = math.Sqrt(want)
	for call := 0; call < 200; call++ {
		if got := ga.ClipNorm(math.Inf(1)); got != want {
			t.Fatalf("call %d: pre-clip norm %.17g, want %.17g (the insertion-order sum)", call, got, want)
		}
	}
}

func TestParamQuantize(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", tensor.FromSlice([]float64{1.00000000001}, 1))
	ps.Quantize(tensor.F32)
	if float64(float32(w.Data[0])) != w.Data[0] {
		t.Fatal("Quantize(F32) must store f32-representable weights")
	}
}
