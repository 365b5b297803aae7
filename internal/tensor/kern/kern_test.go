package kern_test

import (
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/kern"
)

// refMatMulT is the single-accumulator float64 A*B^T reference (the tensor
// package's F64 kernel, restated here so the comparison is against the
// arithmetic definition, not a shared code path).
func refMatMulT(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[j*k+l]
			}
			c[i*n+j] = s
		}
	}
}

func fillNorm(rng *rand.Rand, xs []float64) {
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
}

// fillSpecial is fillNorm with about a third of the entries replaced by the
// values a vector kernel could treat differently from the scalar loop: ±0,
// float64 and float32 subnormals, and magnitudes whose pairwise products are
// subnormal in float32 (1e-20) or float64 (1e-160).
func fillSpecial(rng *rand.Rand, xs []float64) {
	specials := [...]float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1e-40, -1e-40, 1e-20, -1e-20, 1e-160, -1e-160}
	for i := range xs {
		if xs[i] = rng.NormFloat64(); rng.IntN(3) == 0 {
			xs[i] = specials[rng.IntN(len(specials))]
		}
	}
}

// Ragged dims around every tile and vector boundary of both kernel sets:
// rows around the MR block, columns and the inner dimension around 4, 8, 16
// lanes and around the 1-, 2- and 3-panel widths.
var (
	rowDims   = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33}
	innerDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}
	colDims   = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 47, 48, 49}
)

// offset returns a copy of xs that starts one element into its backing
// array, so the kernels see pointers that are aligned to the element size
// only — never to a vector.
func offset[F any](xs []F) []F { return append(make([]F, 1, len(xs)+1), xs...)[1:] }

// TestPackedMatchesReferenceBitwise checks every kernel set at both
// precisions over ragged m/k/n — tile-exact, tail rows, tail columns,
// degenerate dims — with ±0 and subnormal operands, on element-aligned
// sub-slices, for bit-for-bit agreement with the reference kernels; and the
// exported entry points (whichever set they dispatch to) with it.
func TestPackedMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, m := range rowDims {
		for _, k := range innerDims {
			for _, n := range colDims {
				a := make([]float64, m*k)
				b := make([]float64, n*k)
				fillSpecial(rng, a)
				fillSpecial(rng, b)
				want := make([]float64, m*n)
				got := offset(make([]float64, m*n))

				// F64 path.
				refMatMulT(want, a, b, m, k, n)
				pb64 := offset(kern.PackPanelB64(b, n, k))
				a64 := offset(a)
				for _, ks := range kern.KernelSets {
					clear(got)
					ks.MatMulT64Rows(got, a64, pb64, 0, m, k, n)
					diffCheck(t, ks.Name+" F64", want, got)
				}
				clear(got)
				kern.MatMulTPacked64(got, a64, pb64, m, k, n)
				diffCheck(t, "MatMulTPacked64", want, got)

				// Narrow paths: pre-round like the plan does, compare against
				// tensor.MatMulTRounded on the same rounded operands.
				for _, p := range []tensor.Precision{tensor.F32, tensor.TF32} {
					ra := make([]float32, m*k)
					rb := make([]float32, n*k)
					tensor.RoundSliceTo(ra, a, p)
					tensor.RoundSliceTo(rb, b, p)
					tensor.MatMulTRounded(want, ra, rb, m, k, n)
					pb32 := offset(kern.PackPanelB32(rb, n, k))
					ra = offset(ra)
					for _, ks := range kern.KernelSets {
						clear(got)
						ks.MatMulT32Rows(got, ra, pb32, 0, m, k, n)
						diffCheck(t, ks.Name+" "+p.String(), want, got)
					}
					clear(got)
					kern.MatMulTPacked32(got, ra, pb32, m, k, n)
					diffCheck(t, "MatMulTPacked32 "+p.String(), want, got)
				}
				if t.Failed() {
					t.Fatalf("first failure at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

// TestRowWindowMatchesWhole drives the Rows entry points of every kernel
// set window by window — the plan's fused SiLU→Linear streaming pattern,
// entered at i0 != 0 with window heights on both sides of the MR block — and
// checks the assembled result against the whole-matrix reference.
func TestRowWindowMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, dims := range [][3]int{{13, 9, 6}, {33, 17, 49}, {37, 36, 48}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := make([]float64, m*k)
		b := make([]float64, n*k)
		fillSpecial(rng, a)
		fillSpecial(rng, b)
		ra := make([]float32, m*k)
		rb := make([]float32, n*k)
		tensor.RoundSliceTo(ra, a, tensor.TF32)
		tensor.RoundSliceTo(rb, b, tensor.TF32)
		pb64 := kern.PackPanelB64(b, n, k)
		pb32 := kern.PackPanelB32(rb, n, k)
		want64 := make([]float64, m*n)
		want32 := make([]float64, m*n)
		refMatMulT(want64, a, b, m, k, n)
		tensor.MatMulTRounded(want32, ra, rb, m, k, n)

		for _, ks := range kern.KernelSets {
			for _, win := range []int{1, 3, kern.MR, 5, 2 * kern.MR, 32} {
				got64 := make([]float64, m*n)
				got32 := make([]float64, m*n)
				buf64 := make([]float64, win*k)
				buf32 := make([]float32, win*k)
				for i0 := 0; i0 < m; i0 += win {
					rows := min(win, m-i0)
					copy(buf64, a[i0*k:(i0+rows)*k])
					ks.MatMulT64Rows(got64, buf64[:rows*k], pb64, i0, rows, k, n)
					copy(buf32, ra[i0*k:(i0+rows)*k])
					ks.MatMulT32Rows(got32, buf32[:rows*k], pb32, i0, rows, k, n)
				}
				diffCheck(t, ks.Name+" f64 row-window", want64, got64)
				diffCheck(t, ks.Name+" f32 row-window", want32, got32)
				if t.Failed() {
					t.Fatalf("first failure at m=%d k=%d n=%d window=%d", m, k, n, win)
				}
			}
		}
	}
}

// refMatMul is tensor's ikj F64 reference (matMulF64) restated verbatim —
// including the skip-zero branch — as the oracle for MatMulBlocked64.
func refMatMul(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		for l := 0; l < k; l++ {
			av := a[i*k+l]
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

// TestMatMulBlocked64Bitwise checks every kernel set's backward matmul
// against the ikj reference bitwise over ragged m/k/n, with zeros through A
// both row-wise (single padded gradient rows and whole zero MR blocks, as
// pair padding produces — the skip paths) and element-wise (the ±0-addend
// path where one lane of a live step is zero), plus -0 and subnormal
// entries, on element-aligned sub-slices.
func TestMatMulBlocked64Bitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for _, m := range rowDims {
		for _, k := range innerDims {
			for _, n := range colDims {
				a := make([]float64, m*k)
				b := make([]float64, k*n)
				fillSpecial(rng, a)
				fillSpecial(rng, b)
				for i := 0; i < m; i++ {
					if i%5 == 2 || i/kern.MR == 1 { // zero rows; rows 4..7 are a zero block
						clear(a[i*k : (i+1)*k])
					}
				}
				want := make([]float64, m*n)
				refMatMul(want, a, b, m, k, n)
				a, b = offset(a), offset(b)
				got := offset(make([]float64, m*n))
				for _, ks := range kern.KernelSets {
					fillNorm(rng, got) // the kernel must overwrite, not accumulate
					ks.MatMulBlocked64(got, a, b, m, k, n)
					diffCheck(t, ks.Name, want, got)
				}
				fillNorm(rng, got)
				kern.MatMulBlocked64(got, a, b, m, k, n)
				diffCheck(t, "MatMulBlocked64", want, got)
				if t.Failed() {
					t.Fatalf("first failure at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

// TestPanelPadding checks the packed tail panel: padded columns are zero and
// the live columns land j-major.
func TestPanelPadding(t *testing.T) {
	const nr = kern.NR64
	n, k := nr+1, 3 // one full panel + one panel with 1 live column
	b := make([]float64, n*k)
	for i := range b {
		b[i] = float64(i + 1)
	}
	pb := kern.PackPanelB64(b, n, k)
	if want := kern.PanelLen(n, k, nr); len(pb) != want {
		t.Fatalf("panel len %d, want %d", len(pb), want)
	}
	for l := 0; l < k; l++ {
		for t2 := 0; t2 < nr; t2++ {
			got := pb[nr*k+l*nr+t2] // second panel
			var want float64
			if j := nr + t2; j < n {
				want = b[j*k+l]
			}
			if got != want {
				t.Fatalf("panel[1] l=%d lane=%d = %v, want %v", l, t2, got, want)
			}
		}
	}
}

// TestKernelSetSelected logs which kernel set the exported entry points run
// on this host and, where the OS publishes the CPU flags, holds the
// package's CPUID probe to them: a machine whose /proc/cpuinfo lists avx2
// (the kernel drops the flag when it does not save the YMM state) must not
// fall back to the portable set.
func TestKernelSetSelected(t *testing.T) {
	sel := kern.KernelSets[len(kern.KernelSets)-1].Name
	t.Logf("kernel set: %s", sel)
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || runtime.GOARCH != "amd64" {
		return
	}
	if slices.Contains(strings.Fields(string(info)), "avx2") && sel != "avx2" {
		t.Fatalf("/proc/cpuinfo lists avx2 but the %s kernel set was selected", sel)
	}
}

func BenchmarkMatMulTKernels(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	// The plan's production MLP shape class: chunk rows by latent width.
	m, k, n := 256, 64, 64
	a := make([]float64, m*k)
	w := make([]float64, n*k)
	g := make([]float64, m*n)
	fillNorm(rng, a)
	fillNorm(rng, w)
	fillNorm(rng, g)
	c := make([]float64, m*n)
	gx := make([]float64, m*k)
	ra := make([]float32, m*k)
	rw := make([]float32, n*k)
	tensor.RoundSliceTo(ra, a, tensor.TF32)
	tensor.RoundSliceTo(rw, w, tensor.TF32)
	pb32 := kern.PackPanelB32(rw, n, k)
	pb64 := kern.PackPanelB64(w, n, k)

	b.Run("ref32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulTRounded(c, ra, rw, m, k, n)
		}
	})
	b.Run("ref64", func(b *testing.B) {
		at := tensor.FromSlice(a, m, k)
		wt := tensor.FromSlice(w, n, k)
		ct := tensor.FromSlice(c, m, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulTInto(ct, at, wt, tensor.F64)
		}
	})
	for _, ks := range kern.KernelSets {
		b.Run(ks.Name+"/packed32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ks.MatMulT32Rows(c, ra, pb32, 0, m, k, n)
			}
		})
		b.Run(ks.Name+"/packed64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ks.MatMulT64Rows(c, a, pb64, 0, m, k, n)
			}
		})
		b.Run(ks.Name+"/blocked64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ks.MatMulBlocked64(gx, g, w, m, n, k)
			}
		})
	}
}
