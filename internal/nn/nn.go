// Package nn provides the neural-network building blocks shared by the
// Allegro model and the learned baselines: parameter registries, multi-layer
// perceptrons with SiLU nonlinearities, the Adam optimizer, and exponential
// moving averages of weights — mirroring the training setup of Sec. VI-D.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/ad"
	"repro/internal/tensor"
)

// Param is a named trainable tensor.
type Param struct {
	Name string
	T    *tensor.Tensor
}

// ParamSet is an ordered collection of named parameters.
//
// The set carries a mutation version: caches derived from frozen weights
// (the fused tensor-product entry tables and the compiled inference plans)
// key on Version and rebuild when it changes. Every in-package mutator
// (Adam.Step, EMA.CopyTo, Quantize) bumps it; code that writes parameter
// Data directly must call Bump afterwards or downstream weight caches go
// stale.
//
// The counter is atomic so that cross-goroutine weight caches (the
// model-level fused tables, core's shared PlanRegistry) can validate their
// entries from any goroutine without a data race. Atomicity covers the
// version only — mutating parameter Data while evaluations are in flight is
// racy exactly as before; a serving tier must gate weight swaps against
// in-flight requests (see internal/serve).
type ParamSet struct {
	params  []*Param
	byName  map[string]*Param
	version atomic.Uint64
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: map[string]*Param{}}
}

// Add registers a tensor under a unique name and returns it.
func (ps *ParamSet) Add(name string, t *tensor.Tensor) *tensor.Tensor {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p := &Param{Name: name, T: t}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return t
}

// List returns the parameters in registration order.
func (ps *ParamSet) List() []*Param { return ps.params }

// Get returns the parameter tensor registered under name, or nil.
func (ps *ParamSet) Get(name string) *tensor.Tensor {
	if p, ok := ps.byName[name]; ok {
		return p.T
	}
	return nil
}

// Version returns the mutation counter of the set. It increments on every
// Bump; equal versions guarantee the parameter values are unchanged (as long
// as all mutators honour the Bump contract above). Safe to call from any
// goroutine.
func (ps *ParamSet) Version() uint64 { return ps.version.Load() }

// Bump records a parameter mutation, invalidating weight-derived caches.
// Safe to call from any goroutine, but see the ParamSet contract: the bump
// publishes only the version, not the parameter values themselves.
func (ps *ParamSet) Bump() { ps.version.Add(1) }

// NumParams returns the total number of scalar weights.
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.params {
		n += p.T.Len()
	}
	return n
}

// Quantize rounds every parameter to precision p in place (the "weights"
// component of the paper's mixed-precision triple).
func (ps *ParamSet) Quantize(p tensor.Precision) {
	for _, pr := range ps.params {
		pr.T.Quantize(p)
	}
	ps.Bump()
}

// Binder caches one tape leaf per parameter tensor so that a module applied
// several times within a forward pass shares weights (and accumulates
// gradients) correctly.
type Binder struct {
	Tape   *ad.Tape
	Train  bool
	leaves map[*tensor.Tensor]*ad.Value
}

// NewBinder wraps a tape. If train is true, bound parameters require grads.
func NewBinder(tape *ad.Tape, train bool) *Binder {
	return &Binder{Tape: tape, Train: train, leaves: map[*tensor.Tensor]*ad.Value{}}
}

// Bind returns the (cached) leaf for parameter tensor t.
func (b *Binder) Bind(t *tensor.Tensor) *ad.Value {
	if v, ok := b.leaves[t]; ok {
		return v
	}
	v := b.Tape.Leaf(t, b.Train)
	b.leaves[t] = v
	return v
}

// Grad returns the accumulated gradient for parameter t (nil if none).
func (b *Binder) Grad(t *tensor.Tensor) *tensor.Tensor {
	if v, ok := b.leaves[t]; ok {
		return v.Grad()
	}
	return nil
}

// MLP is a dense multi-layer perceptron with SiLU hidden nonlinearities and
// a linear output layer, the workhorse of Allegro's scalar track.
type MLP struct {
	Name  string
	Sizes []int // [in, hidden..., out]
	Ws    []*tensor.Tensor
	Bs    []*tensor.Tensor // nil entries mean no bias
	Bias  bool
}

// NewMLP constructs an MLP with the given layer sizes, registering weights
// in ps under prefixed names. Weights are drawn from a uniform distribution
// with variance 1/fan_in so that unit-variance inputs stay unit variance
// (the paper initializes "according to a uniform distribution of unit
// variance" and normalizes activations to O(1)).
func NewMLP(ps *ParamSet, rng *rand.Rand, name string, sizes []int, bias bool) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Name: name, Sizes: append([]int(nil), sizes...), Bias: bias}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := tensor.New(out, in)
		bound := math.Sqrt(3.0 / float64(in))
		for i := range w.Data {
			w.Data[i] = (rng.Float64()*2 - 1) * bound
		}
		ps.Add(fmt.Sprintf("%s.w%d", name, l), w)
		m.Ws = append(m.Ws, w)
		if bias {
			bt := tensor.New(out)
			ps.Add(fmt.Sprintf("%s.b%d", name, l), bt)
			m.Bs = append(m.Bs, bt)
		} else {
			m.Bs = append(m.Bs, nil)
		}
	}
	return m
}

// Apply runs the MLP on x [N,in] producing [N,out]. SiLU is applied after
// every layer except the last.
func (m *MLP) Apply(b *Binder, x *ad.Value) *ad.Value {
	h := x
	for l, w := range m.Ws {
		var bias *ad.Value
		if m.Bs[l] != nil {
			bias = b.Bind(m.Bs[l])
		}
		h = b.Tape.Linear(h, b.Bind(w), bias)
		if l+1 < len(m.Ws) {
			h = b.Tape.SiLU(h)
		}
	}
	return h
}

// OutDim returns the output width.
func (m *MLP) OutDim() int { return m.Sizes[len(m.Sizes)-1] }

// Adam implements the Adam optimizer with the PyTorch default
// hyperparameters used in the paper (lr given, beta1=0.9, beta2=0.999,
// eps=1e-8).
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	step   int
	moment map[*tensor.Tensor][2][]float64
}

// NewAdam returns an Adam optimizer with the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, moment: map[*tensor.Tensor][2][]float64{}}
}

// Step applies one update given gradients looked up through grad (a function
// so callers can source gradients from a Binder or an accumulation buffer).
// Parameters without gradients are skipped.
func (a *Adam) Step(ps *ParamSet, grad func(t *tensor.Tensor) *tensor.Tensor) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range ps.List() {
		g := grad(p.T)
		if g == nil {
			continue
		}
		mv, ok := a.moment[p.T]
		if !ok {
			mv = [2][]float64{make([]float64, p.T.Len()), make([]float64, p.T.Len())}
		}
		m, v := mv[0], mv[1]
		for i, gi := range g.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.T.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		a.moment[p.T] = [2][]float64{m, v}
	}
	ps.Bump()
}

// EMA maintains an exponential moving average of a parameter set (decay
// 0.99 in the paper), used for validation and the final model.
type EMA struct {
	Decay  float64
	shadow map[*tensor.Tensor][]float64
}

// NewEMA initializes the shadow weights from the current parameters.
func NewEMA(ps *ParamSet, decay float64) *EMA {
	e := &EMA{Decay: decay, shadow: map[*tensor.Tensor][]float64{}}
	for _, p := range ps.List() {
		e.shadow[p.T] = append([]float64(nil), p.T.Data...)
	}
	return e
}

// Update folds the current weights into the average.
func (e *EMA) Update(ps *ParamSet) {
	for _, p := range ps.List() {
		s := e.shadow[p.T]
		for i, v := range p.T.Data {
			s[i] = e.Decay*s[i] + (1-e.Decay)*v
		}
	}
}

// CopyTo overwrites the parameters with the averaged weights.
func (e *EMA) CopyTo(ps *ParamSet) {
	for _, p := range ps.List() {
		copy(p.T.Data, e.shadow[p.T])
	}
	ps.Bump()
}

// GradAccumulator sums gradients across structures in a batch. Buffers are
// kept in the order their parameters were first accumulated (ParamSet order
// under AddFrom), so reductions over all of them — ClipNorm's global norm —
// give the same bits on every call.
type GradAccumulator struct {
	grads map[*tensor.Tensor]*tensor.Tensor
	order []*tensor.Tensor // accumulated buffers, in first-accumulation order
}

// NewGradAccumulator returns an empty accumulator.
func NewGradAccumulator() *GradAccumulator {
	return &GradAccumulator{grads: map[*tensor.Tensor]*tensor.Tensor{}}
}

// AddFrom accumulates every bound gradient of b.
func (ga *GradAccumulator) AddFrom(b *Binder, ps *ParamSet) {
	for _, p := range ps.List() {
		g := b.Grad(p.T)
		if g == nil {
			continue
		}
		ga.buffer(p.T).AddInPlace(g, tensor.F64)
	}
}

// buffer returns the accumulation buffer of parameter t, creating it on
// first use.
func (ga *GradAccumulator) buffer(t *tensor.Tensor) *tensor.Tensor {
	acc, ok := ga.grads[t]
	if !ok {
		acc = tensor.New(t.Shape...)
		ga.grads[t] = acc
		ga.order = append(ga.order, acc)
	}
	return acc
}

// AddScaled accumulates scale*g into the buffer for parameter t.
func (ga *GradAccumulator) AddScaled(t *tensor.Tensor, g *tensor.Tensor, scale float64) {
	acc := ga.buffer(t)
	for i, v := range g.Data {
		acc.Data[i] += scale * v
	}
}

// Grad returns the accumulated gradient for t, or nil.
func (ga *GradAccumulator) Grad(t *tensor.Tensor) *tensor.Tensor { return ga.grads[t] }

// Scale multiplies all accumulated gradients by s (e.g. 1/batchSize).
func (ga *GradAccumulator) Scale(s float64) {
	for _, g := range ga.order {
		g.Scale(s, tensor.F64)
	}
}

// Reset clears the accumulator for the next batch.
func (ga *GradAccumulator) Reset() {
	ga.grads = map[*tensor.Tensor]*tensor.Tensor{}
	ga.order = nil
}

// ClipNorm rescales accumulated gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Squared norms are summed in
// first-accumulation order, so the result is bit-reproducible.
func (ga *GradAccumulator) ClipNorm(maxNorm float64) float64 {
	total := 0.0
	for _, g := range ga.order {
		total += g.Dot(g)
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		f := maxNorm / norm
		for _, g := range ga.order {
			g.Scale(f, tensor.F64)
		}
	}
	return norm
}
