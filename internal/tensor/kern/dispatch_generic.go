//go:build !amd64

package kern

// Architectures without an assembly kernel set run the portable kernels.

func matMulTPacked32Rows(c []float64, ra, pb []float32, i0, rows, k, n int) {
	rowsGo(c, ra, pb, nr32, i0, 0, rows, k, n)
}

func matMulTPacked64Rows(c, a, pb []float64, i0, rows, k, n int) {
	rowsGo(c, a, pb, nr64, i0, 0, rows, k, n)
}

func matMulBlocked64(c, a, b []float64, m, k, n int) {
	blocked64Go(c, a, b, m, k, n)
}
