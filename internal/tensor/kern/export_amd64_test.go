package kern

func init() {
	if useAVX2 {
		KernelSets = append(KernelSets, KernelSet{
			Name:            "avx2",
			MatMulT32Rows:   rows32AVX2,
			MatMulT64Rows:   rows64AVX2,
			MatMulBlocked64: blocked64AVX2,
		})
	}
}
