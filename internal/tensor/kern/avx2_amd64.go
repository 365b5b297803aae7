package kern

// The assembly kernels of avx2_amd64.s. They do no bounds checks: the Go
// drivers below prove every address before the first call.

//go:noescape
func fwd4x16f32(dst *float64, ldd int, a, pb *float32, k, np int)

//go:noescape
func fwd4x8f64(dst *float64, ldd int, a, pb *float64, k, np int)

//go:noescape
func bwd4x8f64(dst, a, b *float64, k, n, nt int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAVX2 is the kernel-set selection, probed once at package init: the CPU
// reports AVX and AVX2, and the OS has enabled XSAVE and saves the XMM and
// YMM state (XCR0 bits 1 and 2) across context switches.
var useAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()

func matMulTPacked32Rows(c []float64, ra, pb []float32, i0, rows, k, n int) {
	if useAVX2 {
		rows32AVX2(c, ra, pb, i0, rows, k, n)
	} else {
		rowsGo(c, ra, pb, nr32, i0, 0, rows, k, n)
	}
}

func matMulTPacked64Rows(c, a, pb []float64, i0, rows, k, n int) {
	if useAVX2 {
		rows64AVX2(c, a, pb, i0, rows, k, n)
	} else {
		rowsGo(c, a, pb, nr64, i0, 0, rows, k, n)
	}
}

func matMulBlocked64(c, a, b []float64, m, k, n int) {
	if useAVX2 {
		blocked64AVX2(c, a, b, m, k, n)
	} else {
		blocked64Go(c, a, b, m, k, n)
	}
}

// rows32AVX2 runs the full MR-row blocks of the row window through
// fwd4x16f32 and the ragged rows through the portable kernel. The whole
// panels of a block are one assembly call straight into c; a ragged last
// panel is computed at full width into a stack tile and its live columns
// copied out.
func rows32AVX2(c []float64, ra, pb []float32, i0, rows, k, n int) {
	full := 0
	if k > 0 && n > 0 {
		full = rows &^ (MR - 1)
	}
	if full > 0 {
		_, _, _ = c[(i0+full)*n-1], ra[full*k-1], pb[panelLen(n, k, nr32)-1]
	}
	np, rem := n/nr32, n%nr32
	for ii := 0; ii < full; ii += MR {
		ci := c[(i0+ii)*n:]
		if np > 0 {
			fwd4x16f32(&ci[0], n, &ra[ii*k], &pb[0], k, np)
		}
		if rem > 0 {
			var edge [MR * nr32]float64
			fwd4x16f32(&edge[0], nr32, &ra[ii*k], &pb[np*nr32*k], k, 1)
			for r := 0; r < MR; r++ {
				copy(ci[r*n+np*nr32:(r+1)*n], edge[r*nr32:])
			}
		}
	}
	rowsGo(c, ra, pb, nr32, i0, full, rows, k, n)
}

// rows64AVX2 is rows32AVX2 over fwd4x8f64 and 8-column panels.
func rows64AVX2(c, a, pb []float64, i0, rows, k, n int) {
	full := 0
	if k > 0 && n > 0 {
		full = rows &^ (MR - 1)
	}
	if full > 0 {
		_, _, _ = c[(i0+full)*n-1], a[full*k-1], pb[panelLen(n, k, nr64)-1]
	}
	np, rem := n/nr64, n%nr64
	for ii := 0; ii < full; ii += MR {
		ci := c[(i0+ii)*n:]
		if np > 0 {
			fwd4x8f64(&ci[0], n, &a[ii*k], &pb[0], k, np)
		}
		if rem > 0 {
			var edge [MR * nr64]float64
			fwd4x8f64(&edge[0], nr64, &a[ii*k], &pb[np*nr64*k], k, 1)
			for r := 0; r < MR; r++ {
				copy(ci[r*n+np*nr64:(r+1)*n], edge[r*nr64:])
			}
		}
	}
	rowsGo(c, a, pb, nr64, i0, full, rows, k, n)
}

// blocked64AVX2 runs the full MR-row blocks through bwd4x8f64 over the
// unpacked b, eight columns at a time. Ragged last columns are one more full
// tile ending at column n, overlapping its neighbour: the shared outputs are
// recomputed to the same bits. A block whose a rows are all zero (pair
// padding) is cleared without a matmul. Matrices narrower than one tile, and
// the ragged rows, run the portable kernel.
func blocked64AVX2(c, a, b []float64, m, k, n int) {
	full := 0
	if k > 0 && n >= nr64 {
		full = m &^ (MR - 1)
	}
	if full > 0 {
		_, _, _ = c[full*n-1], a[full*k-1], b[k*n-1]
	}
	nt, rem := n/nr64, n%nr64
	for i := 0; i < full; i += MR {
		if allZero(a[i*k : (i+MR)*k]) {
			clear(c[i*n : (i+MR)*n])
			continue
		}
		bwd4x8f64(&c[i*n], &a[i*k], &b[0], k, n, nt)
		if rem > 0 {
			bwd4x8f64(&c[i*n+n-nr64], &a[i*k], &b[n-nr64], k, n, 1)
		}
	}
	blocked64Go(c[full*n:], a[full*k:], b, m-full, k, n)
}

func allZero(xs []float64) bool {
	for _, v := range xs {
		if v != 0 {
			return false
		}
	}
	return true
}
