package tensor

import "math"

// Precision selects the floating-point format emulated for arithmetic
// results. Storage is always float64; Round projects a value onto the
// representable set of the target format (round-to-nearest-even), which is
// exactly what storing through the narrower type would do on real hardware.
//
// TF32 is NVIDIA's TensorFloat32 tensor-core input format: FP32's 8-bit
// exponent with a 10-bit mantissa. On an A100 the tensor core rounds the
// *inputs* of a matrix multiply to TF32 and accumulates in FP32; MatMul
// emulates precisely that.
type Precision int

const (
	// F64 is IEEE-754 binary64 (no rounding applied).
	F64 Precision = iota
	// F32 is IEEE-754 binary32.
	F32
	// TF32 is NVIDIA TensorFloat32 (19-bit: sign + 8-bit exponent + 10-bit
	// mantissa).
	TF32
)

// String returns the conventional name of the format.
func (p Precision) String() string {
	switch p {
	case F64:
		return "F64"
	case F32:
		return "F32"
	case TF32:
		return "TF32"
	}
	return "F?"
}

// Round projects v onto the representable set of p.
func (p Precision) Round(v float64) float64 {
	switch p {
	case F32:
		return float64(float32(v))
	case TF32:
		return RoundTF32(v)
	default:
		return v
	}
}

// RoundTF32 rounds v to the TF32 grid: first to binary32
// (round-to-nearest-even), then the 23-bit mantissa is rounded to 10 bits,
// again nearest-even, matching the A100 tensor-core input conversion. This is
// the reference statement of the projection (and the form the pre-kern
// compiled evaluator ran, so the reference kernels keep it); the
// microkernel layer uses the bit-identical branch-free RoundTF32Fast in its
// rounding-bound staging loops.
func RoundTF32(v float64) float64 {
	f := float32(v)
	bits := math.Float32bits(f)
	if bits&0x7f800000 == 0x7f800000 { // Inf or NaN: pass through.
		return float64(f)
	}
	const drop = 13
	const half = 1 << (drop - 1)
	low := bits & ((1 << drop) - 1)
	bits &^= (1 << drop) - 1
	if low > half || (low == half && bits&(1<<drop) != 0) {
		bits += 1 << drop
	}
	return float64(math.Float32frombits(bits))
}

// RoundTF32Fast is RoundTF32 with the round-up decision folded into a single
// add-and-truncate, bit-identical on every input (differentially tested over
// the full structured edge-case sweep plus random bit patterns): adding
// (half-1) plus the kept-mantissa LSB and truncating rounds up exactly when
// low > half, or low == half with an odd kept mantissa — the nearest-even
// condition — and a mantissa overflow carries into the exponent, which is
// correct rounding. The data-dependent round-up branch it replaces
// mispredicts ~half the time on real activations, which is why the kern-mode
// staging loops (blocked contractions, fused SiLU tiles) call this form.
func RoundTF32Fast(v float64) float64 {
	f := float32(v)
	bits := math.Float32bits(f)
	if bits&0x7f800000 == 0x7f800000 { // Inf or NaN: pass through.
		return float64(f)
	}
	const drop = 13
	bits = (bits + (1<<(drop-1) - 1) + ((bits >> drop) & 1)) &^ (1<<drop - 1)
	return float64(math.Float32frombits(bits))
}

// RoundSlice rounds every element of xs to precision p in place.
func RoundSlice(xs []float64, p Precision) {
	if p == F64 {
		return
	}
	for i, v := range xs {
		xs[i] = p.Round(v)
	}
}

// AccumPrecision returns the accumulation format used by matrix units for a
// given compute precision: tensor cores (TF32) and FP32 FMA pipelines both
// accumulate in FP32; F64 accumulates in F64.
func (p Precision) AccumPrecision() Precision {
	if p == F64 {
		return F64
	}
	return F32
}
