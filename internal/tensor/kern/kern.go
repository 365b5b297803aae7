// Package kern provides the register-blocked, cache-aware CPU microkernels
// that run under the compiled inference plans (internal/plan). The plans
// retired dispatch and allocation from the MD hot path; what remained was the
// scalar shape of the inner loops themselves — one sequential accumulator per
// output element (a latency-bound dependency chain), strided reads of the
// B^T operand, and per-call work on operands that are frozen at plan-compile
// time. kern attacks exactly that layer, the way the paper's custom fused
// tensor-product kernels do on the GPU:
//
//   - Register blocking: the matmuls compute MR-row output tiles, two vector
//     registers of columns wide, with one *independent* sequential
//     accumulator per output, so every lane of every accumulator register is
//     its own multiply-add chain. Each individual output still sums its k
//     products in ascending-l order — the exact summation order of the
//     reference kernels (tensor.MatMulTRounded, tensor's F64 A*B^T and ikj
//     A*B loops) — so results are bit-identical; only the interleaving
//     between independent outputs changes.
//
//   - Packed weight panels: the weight operand of every plan matmul is frozen
//     (and, under narrow compute, pre-rounded) at plan-compile time, so
//     PackPanelB32/64 repack it once into j-major panels one register tile
//     wide. The inner loop then streams one contiguous panel, and the panel's
//     zero-padded tail columns let every tile run at full register width
//     (padded lanes are computed and discarded, never stored). The panel
//     layout is private to this package.
//
// There are exactly two kernel sets, and the code picks between them from
// what it can observe — there is no option, build tag or environment switch:
//
//   - On amd64, a CPUID+XGETBV probe at package init selects the AVX2
//     assembly microkernels (avx2_amd64.s) when the CPU has AVX2 and the OS
//     saves the YMM state. The Go compiler does not auto-vectorise and
//     GOAMD64 does not change how it compiles these loops, so the vector unit
//     is only reachable from assembly. The kernels broadcast one A value per
//     row against two YMM registers of the panel and use separate
//     VMULPS/VADDPS (VMULPD/VADDPD) — never FMA. A fused multiply-add rounds
//     once where the scalar kernels round twice (product, then sum), so FMA
//     would change result bits; an unfused vector lane performs the same two
//     IEEE operations as the scalar loop, in the same order.
//
//   - Everywhere else (amd64 without AVX2, every other architecture) the one
//     portable Go kernel set in tail.go runs over the same panels. It is also
//     the ragged-row tail of the AVX2 set and the oracle-side twin in this
//     package's differential tests, which run both sets against the tensor
//     reference kernels on an AVX2 host.
package kern

// Register-tile geometry: MR output rows by two 256-bit vectors of columns —
// 16 float32 or 8 float64 lanes — is 8 accumulator registers, leaving room
// in the 16-register YMM file for the two panel vectors, the broadcast row
// value and the unfused products.
const (
	MR   = 4
	nr32 = 16
	nr64 = 8
)

// panelLen returns the packed-panel buffer length for an [n,k] weight
// matrix: n rounded up to a multiple of the panel width nr, times k.
func panelLen(n, k, nr int) int { return (n + nr - 1) / nr * nr * k }

// PackPanelB32 packs a pre-rounded [n,k] row-major weight matrix — the B
// operand of C = A*B^T — into j-major panels: panel p holds, for each l in
// [0,k), the nr32 consecutive values B[p*nr32+0..p*nr32+nr32-1, l]. Columns
// past n are zero (their products are computed into dead accumulator lanes
// and never stored). Packing is a pure permutation of the already-rounded
// values, so the multiplied operands are bit-identical to the unpacked
// kernel's.
func PackPanelB32(b []float32, n, k int) []float32 {
	dst := make([]float32, panelLen(n, k, nr32))
	packPanels(dst, b, n, k, nr32)
	return dst
}

// PackPanelB64 is PackPanelB32 for float64 weights (the F64 compute path),
// in panels of nr64 columns.
func PackPanelB64(b []float64, n, k int) []float64 {
	dst := make([]float64, panelLen(n, k, nr64))
	packPanels(dst, b, n, k, nr64)
	return dst
}

func packPanels[F float32 | float64](dst, b []F, n, k, nr int) {
	for p := 0; p*nr < n; p++ {
		panel := dst[p*nr*k : (p+1)*nr*k]
		for l := 0; l < k; l++ {
			for t := 0; t < nr; t++ {
				if j := p*nr + t; j < n {
					panel[l*nr+t] = b[j*k+l]
				}
			}
		}
	}
}

// MatMulTPacked32 computes c = A*B^T over pre-rounded float32 operands with
// float32 accumulation — the emulated tensor-core pipeline of
// tensor.MatMulTRounded, bit-identical per output element — with A [m,k] in
// ra and B pre-packed into column panels (PackPanelB32). No allocations.
func MatMulTPacked32(c []float64, ra, pb []float32, m, k, n int) {
	matMulTPacked32Rows(c, ra, pb, 0, m, k, n)
}

// MatMulTPacked32Rows computes rows [i0, i0+rows) of c = A*B^T, with ra
// holding exactly those `rows` rows starting at offset 0 — the entry point
// for tile-fused callers (the plan's SiLU→Linear row batching) that stream
// MR-row activation slices through a small hot buffer.
func MatMulTPacked32Rows(c []float64, ra, pb []float32, i0, rows, k, n int) {
	matMulTPacked32Rows(c, ra, pb, i0, rows, k, n)
}

// MatMulTPacked64 computes c = A*B^T in full float64 — bit-identical per
// output element to tensor's F64 A*B^T kernel — with B pre-packed into
// column panels (PackPanelB64). No allocations.
func MatMulTPacked64(c, a, pb []float64, m, k, n int) {
	matMulTPacked64Rows(c, a, pb, 0, m, k, n)
}

// MatMulTPacked64Rows is the row-window form of MatMulTPacked64, mirroring
// MatMulTPacked32Rows.
func MatMulTPacked64Rows(c, a, pb []float64, i0, rows, k, n int) {
	matMulTPacked64Rows(c, a, pb, i0, rows, k, n)
}

// MatMulBlocked64 computes c[m,n] = a[m,k] * b[k,n] in full float64 with
// four output rows sharing each streamed b row — the backward-linear kernel
// of the compiled plans (gx = g·W). It is bit-identical to tensor's
// reference ikj loop (matMulF64) for finite operands:
//
//   - Each output c[i,j] accumulates av_l * b[l,j] in ascending-l order
//     through its own accumulator, exactly the reference order; row blocking
//     only interleaves independent chains and shares the b[l,:] loads.
//
//   - The reference skips a row's rank-1 update when a[i,l] == 0. The kernels
//     here skip less (the portable set an l step whose four row values are
//     all zero, the AVX2 set a four-row block that is entirely zero); a zero
//     a value in work that is not skipped contributes exact ±0 products.
//     Round-to-nearest addition of ±0 never changes a finite accumulator
//     that is not -0, and these accumulators start at +0 and can never
//     become -0 (an RN sum yields -0 only from an all-(-0) addend chain,
//     which the +0 start precludes) — so the extra ±0 addends leave every
//     result bit unchanged. Gradient rows zeroed by pair padding still skip
//     their whole matmul, which is where the reference branch earns its keep
//     (see the skip-zero benchmark notes in tensor/matmul.go).
func MatMulBlocked64(c, a, b []float64, m, k, n int) {
	matMulBlocked64(c, a, b, m, k, n)
}
