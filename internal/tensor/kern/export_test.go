package kern

// Test-only view of the package's private parts: the panel geometry and the
// kernel sets. The differential tests call each set's unexported
// implementations directly, so on an AVX2 host both the assembly and the
// portable kernels are checked against the tensor reference in one run —
// with no toggle to flip.

const NR64 = nr64

func PanelLen(n, k, nr int) int { return panelLen(n, k, nr) }

// KernelSet is one implementation of the three matmuls, in the argument
// order of the exported entry points.
type KernelSet struct {
	Name            string
	MatMulT32Rows   func(c []float64, ra, pb []float32, i0, rows, k, n int)
	MatMulT64Rows   func(c, a, pb []float64, i0, rows, k, n int)
	MatMulBlocked64 func(c, a, b []float64, m, k, n int)
}

var portableSet = KernelSet{
	Name: "portable",
	MatMulT32Rows: func(c []float64, ra, pb []float32, i0, rows, k, n int) {
		rowsGo(c, ra, pb, nr32, i0, 0, rows, k, n)
	},
	MatMulT64Rows: func(c, a, pb []float64, i0, rows, k, n int) {
		rowsGo(c, a, pb, nr64, i0, 0, rows, k, n)
	},
	MatMulBlocked64: blocked64Go,
}

// KernelSets lists every kernel set this host can run; the last one is the
// set the exported entry points dispatch to.
var KernelSets = []KernelSet{portableSet}
