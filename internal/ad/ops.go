package ad

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// maxRank bounds tensor rank for stack-built shapes in the hot ops.
const maxRank = 4

// Linear computes x W^T + b for x [N,I], w [O,I], optional b [O],
// producing [N,O] under the tape's compute precision.
func (tp *Tape) Linear(x, w, b *Value) *Value {
	n, in := x.T.Shape[0], x.T.Shape[1]
	out := w.T.Shape[0]
	if w.T.Shape[1] != in {
		panic(fmt.Sprintf("ad: Linear weight shape %v incompatible with input %v", w.T.Shape, x.T.Shape))
	}
	y := tensor.New(n, out)
	tensor.MatMulTIntoPooled(y, x.T, w.T, tp.Compute, &tp.mmScratch)
	if b != nil {
		for i := 0; i < n; i++ {
			row := y.Row(i)
			for j := 0; j < out; j++ {
				row[j] += b.T.Data[j]
			}
		}
	}
	tp.store(y)
	req := x.req || w.req || (b != nil && b.req)
	v := tp.node(y, req)
	op := tp.ops.linear.get()
	*op = linearOp{v: v, x: x, w: w, b: b, n: n, in: in, out_: out}
	v.back = op
	return v
}

// SiLU applies x*sigmoid(x) elementwise.
func (tp *Tape) SiLU(x *Value) *Value {
	y := tensor.New(x.T.Shape...)
	for i, v := range x.T.Data {
		y.Data[i] = v / (1 + math.Exp(-v))
	}
	tp.store(y)
	v := tp.node(y, x.req)
	op := tp.ops.silu.get()
	*op = siluOp{v: v, x: x}
	v.back = op
	return v
}

// Tanh applies tanh elementwise.
func (tp *Tape) Tanh(x *Value) *Value {
	y := tensor.New(x.T.Shape...)
	for i, v := range x.T.Data {
		y.Data[i] = math.Tanh(v)
	}
	tp.store(y)
	v := tp.node(y, x.req)
	op := tp.ops.tanh.get()
	*op = tanhOp{v: v, x: x}
	v.back = op
	return v
}

// Add returns a + b (same shapes).
func (tp *Tape) Add(a, b *Value) *Value {
	if !a.T.SameShape(b.T) {
		panic("ad: Add shape mismatch")
	}
	y := tp.cloneT(a.T)
	y.AddInPlace(b.T, tp.Store)
	v := tp.node(y, a.req || b.req)
	op := tp.ops.add.get()
	*op = addOp{v: v, a: a, b: b}
	v.back = op
	return v
}

// Sub returns a - b.
func (tp *Tape) Sub(a, b *Value) *Value {
	if !a.T.SameShape(b.T) {
		panic("ad: Sub shape mismatch")
	}
	y := tensor.New(a.T.Shape...)
	for i := range y.Data {
		y.Data[i] = tp.Store.Round(a.T.Data[i] - b.T.Data[i])
	}
	v := tp.node(y, a.req || b.req)
	op := tp.ops.sub.get()
	*op = subOp{v: v, a: a, b: b}
	v.back = op
	return v
}

// Mul returns the elementwise product a*b.
func (tp *Tape) Mul(a, b *Value) *Value {
	if !a.T.SameShape(b.T) {
		panic("ad: Mul shape mismatch")
	}
	y := tensor.New(a.T.Shape...)
	for i := range y.Data {
		y.Data[i] = tp.Store.Round(a.T.Data[i] * b.T.Data[i])
	}
	v := tp.node(y, a.req || b.req)
	op := tp.ops.mul.get()
	*op = mulOp{v: v, a: a, b: b}
	v.back = op
	return v
}

// Scale returns c*x for a compile-time constant c.
func (tp *Tape) Scale(x *Value, c float64) *Value {
	y := tp.cloneT(x.T)
	y.Scale(c, tp.Store)
	v := tp.node(y, x.req)
	op := tp.ops.scale.get()
	*op = scaleOp{v: v, x: x, c: c}
	v.back = op
	return v
}

// Square returns x*x elementwise.
func (tp *Tape) Square(x *Value) *Value { return tp.Mul(x, x) }

// Concat concatenates 2-D values [N,Ci] along the last dimension.
func (tp *Tape) Concat(xs ...*Value) *Value {
	n := xs[0].T.Shape[0]
	total := 0
	req := false
	for _, x := range xs {
		if x.T.NDim() != 2 || x.T.Shape[0] != n {
			panic("ad: Concat requires [N,C] values with equal N")
		}
		total += x.T.Shape[1]
		req = req || x.req
	}
	y := tensor.New(n, total)
	off := 0
	for _, x := range xs {
		c := x.T.Shape[1]
		for i := 0; i < n; i++ {
			copy(y.Data[i*total+off:i*total+off+c], x.T.Row(i))
		}
		off += c
	}
	v := tp.node(y, req)
	op := tp.ops.concat.get()
	op.v, op.n, op.total = v, n, total
	op.xs = append(op.xs[:0], xs...) // copy: the variadic slice is the caller's
	v.back = op
	return v
}

// SliceLast returns x[..., lo:hi] as a copy, for 2-D or 3-D x.
func (tp *Tape) SliceLast(x *Value, lo, hi int) *Value {
	nd := x.T.NDim()
	last := x.T.Shape[nd-1]
	if lo < 0 || hi > last || lo >= hi {
		panic(fmt.Sprintf("ad: SliceLast [%d:%d] out of range %d", lo, hi, last))
	}
	rows := x.T.Len() / last
	width := hi - lo
	var shape [maxRank]int
	copy(shape[:], x.T.Shape[:nd-1])
	shape[nd-1] = width
	y := tensor.New(shape[:nd]...)
	for r := 0; r < rows; r++ {
		copy(y.Data[r*width:(r+1)*width], x.T.Data[r*last+lo:r*last+hi])
	}
	v := tp.node(y, x.req)
	op := tp.ops.slice.get()
	*op = sliceLastOp{v: v, x: x, rows: rows, width: width, last: last, lo_: lo}
	v.back = op
	return v
}

// Reshape returns x with a new shape (copy semantics for gradient safety).
func (tp *Tape) Reshape(x *Value, shape ...int) *Value {
	y := tensor.New(shape...)
	if y.Len() != x.T.Len() {
		// Element counts only: formatting the shape slice would make every
		// caller's variadic argument escape to the heap.
		panic(fmt.Sprintf("ad: cannot reshape %d elements to %d", x.T.Len(), y.Len()))
	}
	copy(y.Data, x.T.Data)
	v := tp.node(y, x.req)
	op := tp.ops.reshape.get()
	*op = reshapeOp{v: v, x: x}
	v.back = op
	return v
}

// SumAll reduces x to a scalar [1]. The reduction runs in float64 (the
// paper performs final energy summation in double precision; callers that
// model a lower-precision final stage quantize separately).
func (tp *Tape) SumAll(x *Value) *Value {
	s := 0.0
	for _, v := range x.T.Data {
		s += v
	}
	y := tensor.New(1)
	y.Data[0] = s
	v := tp.node(y, x.req)
	op := tp.ops.sum.get()
	*op = sumAllOp{v: v, x: x}
	v.back = op
	return v
}

// WeightedSumAll returns sum_i w_i * x_i as a scalar for constant weights w
// (len(w) == x.Len()).
func (tp *Tape) WeightedSumAll(x *Value, w []float64) *Value {
	if len(w) != x.T.Len() {
		panic("ad: WeightedSumAll weight length mismatch")
	}
	s := 0.0
	for i, v := range x.T.Data {
		s += w[i] * v
	}
	y := tensor.New(1)
	y.Data[0] = s
	v := tp.node(y, x.req)
	op := tp.ops.wsum.get()
	*op = weightedSumOp{v: v, x: x, w: w}
	v.back = op
	return v
}

// GatherRows selects rows of x [N,...] by idx, producing [len(idx),...].
func (tp *Tape) GatherRows(x *Value, idx []int) *Value {
	rowLen := x.T.Len() / x.T.Shape[0]
	var shape [maxRank]int
	shape[0] = len(idx)
	copy(shape[1:], x.T.Shape[1:])
	y := tensor.New(shape[:x.T.NDim()]...)
	for z, i := range idx {
		copy(y.Data[z*rowLen:(z+1)*rowLen], x.T.Data[i*rowLen:(i+1)*rowLen])
	}
	v := tp.node(y, x.req)
	op := tp.ops.gather.get()
	*op = gatherOp{v: v, x: x, idx: idx, rowLen: rowLen}
	v.back = op
	return v
}

// ScatterAddRows accumulates rows of x [Z,...] into a fresh [n,...] tensor
// at positions idx (the per-atom reduction E_i = sum_j E_ij). The scatter
// runs in float64 with a fixed deterministic order.
func (tp *Tape) ScatterAddRows(x *Value, idx []int, n int) *Value {
	if len(idx) != x.T.Shape[0] {
		panic("ad: ScatterAddRows index length mismatch")
	}
	rowLen := x.T.Len() / x.T.Shape[0]
	var shape [maxRank]int
	shape[0] = n
	copy(shape[1:], x.T.Shape[1:])
	y := tensor.New(shape[:x.T.NDim()]...)
	for z, i := range idx {
		src := x.T.Data[z*rowLen : (z+1)*rowLen]
		dst := y.Data[i*rowLen : (i+1)*rowLen]
		for j, v := range src {
			dst[j] += v
		}
	}
	v := tp.node(y, x.req)
	op := tp.ops.scatter.get()
	*op = scatterOp{v: v, x: x, idx: idx, rowLen: rowLen}
	v.back = op
	return v
}

// MulBroadcastLast multiplies x [N,C] or [Z,U,C] by s with one trailing
// broadcast dimension: s is [N,1] (resp. [Z,U]) and scales each row
// (resp. each channel vector).
func (tp *Tape) MulBroadcastLast(x, s *Value) *Value {
	c := x.T.Shape[x.T.NDim()-1]
	rows := x.T.Len() / c
	if s.T.Len() != rows {
		panic(fmt.Sprintf("ad: MulBroadcastLast scale %v incompatible with %v", s.T.Shape, x.T.Shape))
	}
	y := tensor.New(x.T.Shape...)
	for r := 0; r < rows; r++ {
		sv := s.T.Data[r]
		for j := 0; j < c; j++ {
			y.Data[r*c+j] = tp.Store.Round(x.T.Data[r*c+j] * sv)
		}
	}
	v := tp.node(y, x.req || s.req)
	op := tp.ops.mulb.get()
	*op = mulBroadcastOp{v: v, x: x, s: s, rows: rows, c: c}
	v.back = op
	return v
}

// OuterMul builds initial pair features V0[z,u,c] = s[z,u] * y[z,c].
func (tp *Tape) OuterMul(s, y *Value) *Value {
	z, u := s.T.Shape[0], s.T.Shape[1]
	c := y.T.Shape[1]
	if y.T.Shape[0] != z {
		panic("ad: OuterMul row mismatch")
	}
	out := tensor.New(z, u, c)
	for zi := 0; zi < z; zi++ {
		yRow := y.T.Row(zi)
		for ui := 0; ui < u; ui++ {
			sv := s.T.Data[zi*u+ui]
			dst := out.Data[(zi*u+ui)*c : (zi*u+ui+1)*c]
			for j, yv := range yRow {
				dst[j] = tp.Store.Round(sv * yv)
			}
		}
	}
	v := tp.node(out, s.req || y.req)
	op := tp.ops.outer.get()
	*op = outerMulOp{v: v, s: s, y: y, z: z, u: u, c: c}
	v.back = op
	return v
}
