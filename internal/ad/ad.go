// Package ad implements a small reverse-mode automatic differentiation tape
// over dense tensors, with the custom geometric operations the Allegro model
// and its baselines need: spherical harmonics, Bessel radial bases, smooth
// cutoff envelopes, the fused equivariant tensor product, and the
// neighbor-environment scatter/gather pattern.
//
// Forward computation honours a reduced-precision configuration (compute
// precision for matrix pipelines, store precision for activations),
// emulating the paper's mixed F64/F32/TF32 scheme. Backward passes always
// run in float64: the adjoint is used for forces and optimizer updates,
// whose correctness tests require the exact gradient, while the precision
// ablation of Table IV quantizes forward activations.
//
// Training on a force loss requires d(dE/dr)/dtheta, a second derivative.
// Rather than a second-order tape, the trainer uses the exact
// Hessian-vector-product identity
//
//	dL/dtheta = 2 * d/dh [ grad_theta E(r + h*u) ]  at h=0,  u = F_pred - F_ref
//
// evaluated by central finite differences of two ordinary first-order
// backward passes — the standard R-operator trick.
package ad

import (
	"fmt"

	"repro/internal/o3"
	"repro/internal/tensor"
)

// Value is a node in the computation graph.
type Value struct {
	T    *tensor.Tensor
	grad *tensor.Tensor
	req  bool   // participates in differentiation
	back backOp // pooled op accumulating into the grads of the inputs
}

// Grad returns the accumulated gradient tensor (nil until Backward runs, or
// if the value does not require gradients).
func (v *Value) Grad() *tensor.Tensor { return v.grad }

// RequiresGrad reports whether gradients flow into this value.
func (v *Value) RequiresGrad() bool { return v.req }

// ensureGrad allocates the gradient buffer on demand.
func (v *Value) ensureGrad() *tensor.Tensor {
	if v.grad == nil {
		v.grad = tensor.New(v.T.Shape...)
	}
	return v.grad
}

// Tape records operations in execution order for reverse-mode replay. Nodes
// and backward ops come from block pools, so a pass allocates per block of
// ops rather than per op. A tape serves one forward/backward pass and is not
// safe for concurrent use.
type Tape struct {
	vals []*Value
	// Compute is the matrix-pipeline precision (matmuls, tensor product).
	Compute tensor.Precision
	// Store is the activation storage precision applied after each op.
	Store tensor.Precision

	blocks [][]Value // pooled node storage (pointer-stable blocks)
	used   int
	ops    opPools // pooled backward-op storage (no closures on the hot path)

	// Reusable op scratch (grown on demand).
	sphBuf    []float64
	sphGBuf   [][3]float64
	tpEntries []o3.TPEntry
	mmScratch tensor.MatmulScratch // narrow-precision Linear rounding buffers
}

// valueBlock is the node pool granularity.
const valueBlock = 64

// NewTape returns a tape with the given compute/store precision pair.
// NewTape(tensor.F64, tensor.F64) gives exact double-precision behaviour.
func NewTape(compute, store tensor.Precision) *Tape {
	return &Tape{Compute: compute, Store: store}
}

// cloneT returns a deep copy of t.
func (tp *Tape) cloneT(t *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(t.Shape...)
	copy(y.Data, t.Data)
	return y
}

// newValue hands out a pooled node. Blocks are pointer-stable so Values stay
// valid while the vals slice grows.
func (tp *Tape) newValue() *Value {
	blk, off := tp.used/valueBlock, tp.used%valueBlock
	if blk == len(tp.blocks) {
		tp.blocks = append(tp.blocks, make([]Value, valueBlock))
	}
	tp.used++
	return &tp.blocks[blk][off]
}

// Leaf registers an input tensor. If req is true, gradients with respect to
// it are accumulated by Backward.
func (tp *Tape) Leaf(t *tensor.Tensor, req bool) *Value {
	v := tp.newValue()
	v.T = t
	v.req = req
	tp.vals = append(tp.vals, v)
	return v
}

// Const registers a non-differentiable input.
func (tp *Tape) Const(t *tensor.Tensor) *Value { return tp.Leaf(t, false) }

// node registers an op output; the caller attaches a pooled backward op to
// v.back (left nil for non-differentiable outputs).
func (tp *Tape) node(t *tensor.Tensor, req bool) *Value {
	v := tp.newValue()
	v.T = t
	v.req = req
	tp.vals = append(tp.vals, v)
	return v
}

// store applies the activation storage precision in place and returns t.
func (tp *Tape) store(t *tensor.Tensor) *tensor.Tensor { return t.Quantize(tp.Store) }

// Backward seeds the gradient of root (which must hold exactly one element)
// with 1 and propagates adjoints through the tape in reverse order.
// It may be called once per tape.
func (tp *Tape) Backward(root *Value) {
	if root.T.Len() != 1 {
		panic(fmt.Sprintf("ad: Backward root must be scalar, got shape %v", root.T.Shape))
	}
	root.ensureGrad().Data[0] = 1
	for i := len(tp.vals) - 1; i >= 0; i-- {
		v := tp.vals[i]
		if v.back != nil && v.req && v.grad != nil {
			v.back.run()
		}
	}
}
