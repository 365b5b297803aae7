package kern

// The portable kernel set: the whole body of every build without the AVX2
// assembly, and the ragged-row tail (rows past the last full MR block) of
// the assembly drivers. Per-output accumulation — ascending l through one
// sequential scalar accumulator — is the same on every path, so every
// platform produces the same bits.

// rowsGo computes rows [ii, rows) of the row window (see
// MatMulTPacked32Rows) one row at a time: each nr-column panel is walked in
// groups of four lanes, four independent accumulators per group. Float32
// accumulators are widened on store, exactly like the reference kernel's
// float64(s) result write.
func rowsGo[F float32 | float64](c []float64, a, pb []F, nr, i0, ii, rows, k, n int) {
	np := (n + nr - 1) / nr
	for ; ii < rows; ii++ {
		ai := a[ii*k : (ii+1)*k]
		ci := c[(i0+ii)*n : (i0+ii+1)*n]
		for p := 0; p < np; p++ {
			panel := pb[p*nr*k : (p+1)*nr*k]
			for q := 0; q < nr && p*nr+q < n; q += 4 {
				lanes := panel[q:]
				var s0, s1, s2, s3 F
				for l, av := range ai {
					pl := lanes[nr*l : nr*l+4 : nr*l+4]
					s0 += av * pl[0]
					s1 += av * pl[1]
					s2 += av * pl[2]
					s3 += av * pl[3]
				}
				// The last group of a panel may hold fewer than four live columns.
				s := [4]F{s0, s1, s2, s3}
				for t := range min(4, n-p*nr-q) {
					ci[p*nr+q+t] = float64(s[t])
				}
			}
		}
	}
}

// blocked64Go is the portable MatMulBlocked64: four output rows share each
// streamed b row; an l step is skipped when all four row values are zero.
func blocked64Go(c, a, b []float64, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		c0 := c[(i+0)*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		c2 := c[(i+2)*n : (i+3)*n]
		c3 := c[(i+3)*n : (i+4)*n]
		clear(c0)
		clear(c1)
		clear(c2)
		clear(c3)
		for l := 0; l < k; l++ {
			av0 := a[(i+0)*k+l]
			av1 := a[(i+1)*k+l]
			av2 := a[(i+2)*k+l]
			av3 := a[(i+3)*k+l]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bl := b[l*n : (l+1)*n : (l+1)*n]
			for j, bv := range bl {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
				c3[j] += av3 * bv
			}
		}
	}
	for ; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		clear(ci)
		for l := 0; l < k; l++ {
			av := a[i*k+l]
			if av == 0 {
				continue
			}
			bl := b[l*n : (l+1)*n : (l+1)*n]
			for j, bv := range bl {
				ci[j] += av * bv
			}
		}
	}
}
