package kern_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/kern"
)

// fuzzFill fills xs from rng: normal values with scattered zeros, or (special)
// the ±0 / subnormal mix of fillSpecial.
func fuzzFill(rng *rand.Rand, xs []float64, special bool) {
	if special {
		fillSpecial(rng, xs)
		return
	}
	for i := range xs {
		xs[i] = rng.NormFloat64()
		if rng.IntN(11) == 0 {
			xs[i] = 0
		}
	}
}

// FuzzMatMulTPacked drives every kernel set's packed register-blocked
// kernels (on an AVX2 host: the assembly and the portable Go set) against
// the reference kernels bit for bit over fuzzer-chosen shapes, data seeds,
// and precisions, including the tile-streamed Rows entry points at a
// seed-chosen window height and ±0 / subnormal operands. Run with
// `go test -fuzz FuzzMatMulTPacked` to explore; the committed corpus pins
// ragged tails, degenerate dims, each precision and the vector, tile and
// panel boundaries as regression seeds.
func FuzzMatMulTPacked(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(1), uint8(0))
	f.Add(uint8(4), uint8(8), uint8(4), uint64(2), uint8(1))
	f.Add(uint8(5), uint8(7), uint8(9), uint64(3), uint8(2))
	f.Add(uint8(33), uint8(17), uint8(3), uint64(4), uint8(2))
	f.Add(uint8(16), uint8(64), uint8(64), uint64(5), uint8(0))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, seed uint64, precRaw uint8) {
		m := int(mRaw)%40 + 1
		k := int(kRaw)%70 + 1
		n := int(nRaw)%70 + 1
		rng := rand.New(rand.NewPCG(seed, 0x9E3779B9))
		a := make([]float64, m*k)
		b := make([]float64, n*k)
		special := precRaw/3%2 == 1
		fuzzFill(rng, a, special)
		fuzzFill(rng, b, special)
		win := int(seed%9) + 1 // Rows window height, both sides of MR
		want := make([]float64, m*n)
		got := make([]float64, m*n)

		switch precRaw % 3 {
		case 0: // F64: packed whole and tile-streamed vs the reference.
			refMatMulT(want, a, b, m, k, n)
			pb := kern.PackPanelB64(b, n, k)
			buf := make([]float64, win*k)
			for _, ks := range kern.KernelSets {
				clear(got)
				ks.MatMulT64Rows(got, a, pb, 0, m, k, n)
				diffCheck(t, ks.Name+" packed64", want, got)
				clear(got)
				for i0 := 0; i0 < m; i0 += win {
					rows := min(win, m-i0)
					copy(buf, a[i0*k:(i0+rows)*k])
					ks.MatMulT64Rows(got, buf[:rows*k], pb, i0, rows, k, n)
				}
				diffCheck(t, ks.Name+" packed64rows", want, got)
			}
		default:
			p := tensor.F32
			if precRaw%3 == 2 {
				p = tensor.TF32
			}
			ra := make([]float32, m*k)
			rb := make([]float32, n*k)
			tensor.RoundSliceTo(ra, a, p)
			tensor.RoundSliceTo(rb, b, p)
			tensor.MatMulTRounded(want, ra, rb, m, k, n)
			pb := kern.PackPanelB32(rb, n, k)
			buf := make([]float32, win*k)
			for _, ks := range kern.KernelSets {
				clear(got)
				ks.MatMulT32Rows(got, ra, pb, 0, m, k, n)
				diffCheck(t, ks.Name+" packed32", want, got)
				clear(got)
				for i0 := 0; i0 < m; i0 += win {
					rows := min(win, m-i0)
					copy(buf, ra[i0*k:(i0+rows)*k])
					ks.MatMulT32Rows(got, buf[:rows*k], pb, i0, rows, k, n)
				}
				diffCheck(t, ks.Name+" packed32rows", want, got)
			}
		}
	})
}

// FuzzMatMulBlocked64 checks every kernel set's backward matmul against the
// skip-zero ikj reference over fuzzed shapes and zero patterns (whole zero
// rows, whole zero MR blocks and scattered zero elements — the ±0-addend
// equivalence the kernel's doc comment argues), with ±0 / subnormal operands
// on odd seeds.
func FuzzMatMulBlocked64(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(1), uint8(0))
	f.Add(uint8(8), uint8(9), uint8(5), uint64(2), uint8(3))
	f.Add(uint8(13), uint8(64), uint8(64), uint64(3), uint8(5))
	f.Add(uint8(32), uint8(3), uint8(17), uint64(4), uint8(255))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, seed uint64, zeroRaw uint8) {
		m := int(mRaw)%40 + 1
		k := int(kRaw)%70 + 1
		n := int(nRaw)%70 + 1
		rng := rand.New(rand.NewPCG(seed, 0x1D872B41))
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		fuzzFill(rng, a, seed%2 == 1)
		fuzzFill(rng, b, seed%2 == 1)
		// zeroRaw picks a zero pattern density for A: 0 = as filled,
		// otherwise roughly zeroRaw/256 of the rows and of the MR blocks
		// zeroed, plus scattered elements.
		if zeroRaw > 0 {
			for i := 0; i < m; i++ {
				if rng.IntN(256) < int(zeroRaw) {
					clear(a[i*k : (i+1)*k])
				}
			}
			for i := 0; i+kern.MR <= m; i += kern.MR {
				if rng.IntN(256) < int(zeroRaw) {
					clear(a[i*k : (i+kern.MR)*k])
				}
			}
			for i := range a {
				if rng.IntN(256) < int(zeroRaw)/2 {
					a[i] = 0
				}
			}
		}
		want := make([]float64, m*n)
		got := make([]float64, m*n)
		refMatMul(want, a, b, m, k, n)
		for _, ks := range kern.KernelSets {
			fillNorm(rng, got)
			ks.MatMulBlocked64(got, a, b, m, k, n)
			diffCheck(t, ks.Name+" blocked64", want, got)
		}
	})
}

// diffCheck reports the first element of got whose bits differ from want.
func diffCheck(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Errorf("%s elem %d: %x, want %x", name, i, got[i], want[i])
			return
		}
	}
}
