package tensor

import "fmt"

// MatMul computes C = A * B for 2-D tensors A [m,k] and B [k,n] under the
// compute precision p, emulating the corresponding hardware pipeline:
//
//	F64  : float64 inputs, float64 accumulation.
//	F32  : inputs rounded to binary32, float32 accumulation.
//	TF32 : inputs rounded to TF32 (10-bit mantissa), float32 accumulation —
//	       exactly the A100 tensor-core behaviour.
//
// The result elements are rounded to the accumulation format.
func MatMul(a, b *Tensor, p Precision) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	c := New(m, n)
	MatMulInto(c, a, b, p)
	return c
}

// MatMulInto computes dst = A*B, with dst preallocated to [m,n].
func MatMulInto(dst, a, b *Tensor, p Precision) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulInto destination shape mismatch")
	}
	switch p {
	case F64:
		matMulF64(dst.Data, a.Data, b.Data, m, k, n)
	default:
		matMulNarrow(dst.Data, a.Data, b.Data, m, k, n, p)
	}
}

// matMulF64 is a cache-friendly ikj loop in full double precision.
func matMulF64(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		for l := 0; l < k; l++ {
			av := a[i*k+l]
			// Measured (BenchmarkMatMulSkipZero, 256x64x64, Xeon 2.1GHz):
			// keeping this branch runs 0.42ms vs 0.66ms without it on fully
			// dense data — the always-false compare costs nothing predicted
			// and the generated loop schedules better — and 0.39ms vs 0.67ms
			// with 1/8 zero-padded rows, where it also skips real work
			// (gradient rows zeroed by pair padding). Keep.
			if av == 0 {
				continue
			}
			bl := b[l*n : (l+1)*n]
			for j, bv := range bl {
				ci[j] += av * bv
			}
		}
	}
}

// matMulNarrow emulates a reduced-precision matrix unit: operands are
// rounded to the input format of p and partial sums are kept in float32.
func matMulNarrow(c, a, b []float64, m, k, n int, p Precision) {
	// Pre-round operands once (the hardware converts tiles on load).
	ra := make([]float32, len(a))
	rb := make([]float32, len(b))
	if p == TF32 {
		for i, v := range a {
			ra[i] = float32(RoundTF32(v))
		}
		for i, v := range b {
			rb[i] = float32(RoundTF32(v))
		}
	} else {
		for i, v := range a {
			ra[i] = float32(v)
		}
		for i, v := range b {
			rb[i] = float32(v)
		}
	}
	acc := make([]float32, n)
	for i := 0; i < m; i++ {
		for j := range acc {
			acc[j] = 0
		}
		for l := 0; l < k; l++ {
			av := ra[i*k+l]
			if av == 0 {
				continue
			}
			bl := rb[l*n : (l+1)*n]
			for j, bv := range bl {
				acc[j] += av * bv // float32 accumulation
			}
		}
		ci := c[i*n : (i+1)*n]
		for j, v := range acc {
			ci[j] = float64(v)
		}
	}
}

// MatMulT computes C = A * B^T for A [m,k], B [n,k] under precision p.
func MatMulT(a, b *Tensor, p Precision) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulT requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %d vs %d", k, k2))
	}
	c := New(m, n)
	MatMulTInto(c, a, b, p)
	return c
}

// MatmulScratch pools the float32 rounding buffers of the narrow-precision
// matmul and matvec paths, so repeat callers (the autodiff tape, oracle
// comparisons) stop paying a heap allocation per call. The zero value is
// ready to use; buffers grow on demand and are retained across calls.
type MatmulScratch struct {
	ra, rb, rx []float32
}

// f32 returns a length-n view of buf, reallocating only on growth.
func f32Scratch(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// MatMulTInto computes dst = A * B^T with dst preallocated to [m,n]. The F64
// path performs no allocations; the narrow-precision paths allocate rounding
// scratch per call (use MatMulTIntoPooled on repeat-call paths).
func MatMulTInto(dst, a, b *Tensor, p Precision) {
	var s MatmulScratch
	MatMulTIntoPooled(dst, a, b, p, &s)
}

// MatMulTIntoPooled is MatMulTInto with the narrow-path rounding scratch
// drawn from s — bit-identical results, zero steady-state allocations once
// the buffers have grown to the working shape.
func MatMulTIntoPooled(dst, a, b *Tensor, p Precision, s *MatmulScratch) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulTInto destination shape mismatch")
	}
	switch p {
	case F64:
		matMulTF64(dst.Data, a.Data, b.Data, m, k, n)
	default:
		ra := f32Scratch(&s.ra, len(a.Data))
		rb := f32Scratch(&s.rb, len(b.Data))
		RoundSliceTo(ra, a.Data, p)
		RoundSliceTo(rb, b.Data, p)
		MatMulTRounded(dst.Data, ra, rb, m, k, n)
	}
}

// matMulTF64 is the full double-precision A*B^T inner kernel.
func matMulTF64(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			s := 0.0
			for l, av := range ai {
				s += av * bj[l]
			}
			c[i*n+j] = s
		}
	}
}

// RoundSliceTo rounds src into the float32 buffer dst (len(dst) >= len(src))
// per the input format of p: plain binary32 conversion for F32, the A100
// tensor-core TF32 grid for TF32. The per-element precision dispatch is
// hoisted out of the loop — these are the tile-load conversions of the
// emulated matrix unit.
func RoundSliceTo(dst []float32, src []float64, p Precision) {
	if p == TF32 {
		for i, v := range src {
			dst[i] = float32(RoundTF32(v))
		}
		return
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// RoundSliceToFast is RoundSliceTo using the branch-free RoundTF32Fast —
// bit-identical results, used by the kern-mode plan paths where the rounding
// sweep is hot (the reference paths keep RoundSliceTo so the differential
// oracle is the pre-kern code exactly).
func RoundSliceToFast(dst []float32, src []float64, p Precision) {
	if p == TF32 {
		for i, v := range src {
			dst[i] = float32(RoundTF32Fast(v))
		}
		return
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// MatMulTRounded computes c = A*B^T from pre-rounded float32 operands with
// float32 accumulation (the emulated tensor-core pipeline) and performs no
// allocations: the compiled inference plans pre-round the frozen weight
// operand once and reuse a persistent activation buffer.
func MatMulTRounded(c []float64, ra, rb []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ai := ra[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			bj := rb[j*k : (j+1)*k]
			var s float32
			for l, av := range ai {
				s += av * bj[l]
			}
			c[i*n+j] = float64(s)
		}
	}
}

// MatMulTransAInto computes dst = A^T * B for A [k,m], B [k,n], dst [m,n] in
// float64 without allocating (the weight-gradient contraction gW = g^T x of
// the backward pass).
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAInto inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulTransAInto destination shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for l := 0; l < k; l++ {
		al := a.Data[l*m : (l+1)*m]
		bl := b.Data[l*n : (l+1)*n]
		for i, av := range al {
			// Measured (BenchmarkMatMulSkipZero, 256x64x64, Xeon 2.1GHz):
			// 0.52ms with the branch vs 0.51ms without on dense data (within
			// noise), 0.47ms vs 0.49ms with 1/8 zero rows — a small real win
			// on the padded gradients this kernel sees in training, at no
			// dense-path cost. Keep.
			if av == 0 {
				continue
			}
			ci := dst.Data[i*n : (i+1)*n]
			for j, bv := range bl {
				ci[j] += av * bv
			}
		}
	}
}

// MatVec computes y = A*x for A [m,k] and x [k] under precision p.
func MatVec(a *Tensor, x []float64, p Precision) []float64 {
	y := make([]float64, a.Shape[0])
	var s MatmulScratch
	MatVecInto(y, a, x, p, &s)
	return y
}

// MatVecInto is MatVec into a caller-provided y with pooled rounding scratch
// and the per-element precision dispatch hoisted out of the inner loops —
// bit-identical accumulation (same per-row float32 chain, same rounding per
// element), zero steady-state allocations.
func MatVecInto(y []float64, a *Tensor, x []float64, p Precision, s *MatmulScratch) {
	m, k := a.Shape[0], a.Shape[1]
	if len(x) != k {
		panic("tensor: MatVec dimension mismatch")
	}
	if len(y) != m {
		panic("tensor: MatVecInto destination length mismatch")
	}
	switch p {
	case F64:
		for i := 0; i < m; i++ {
			ai := a.Data[i*k : (i+1)*k]
			sum := 0.0
			for l, av := range ai {
				sum += av * x[l]
			}
			y[i] = sum
		}
	case TF32:
		rx := f32Scratch(&s.rx, k)
		for i, v := range x {
			rx[i] = float32(RoundTF32(v))
		}
		for i := 0; i < m; i++ {
			ai := a.Data[i*k : (i+1)*k]
			var sum float32
			for l, av := range ai {
				sum += float32(RoundTF32(av)) * rx[l]
			}
			y[i] = float64(sum)
		}
	default:
		rx := f32Scratch(&s.rx, k)
		for i, v := range x {
			rx[i] = float32(v)
		}
		for i := 0; i < m; i++ {
			ai := a.Data[i*k : (i+1)*k]
			var sum float32
			for l, av := range ai {
				sum += float32(av) * rx[l]
			}
			y[i] = float64(sum)
		}
	}
}
