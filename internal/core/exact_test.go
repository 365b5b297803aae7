package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"repro/internal/neighbor"
)

// bigRound is the reference for ExactSum: every addend truncated toward
// zero to a multiple of 2⁻⁶⁴, summed as big integers, and rounded once to
// float64, nearest even.
func bigRound(xs ...float64) float64 {
	sum := new(big.Int)
	for _, x := range xs {
		f := new(big.Float).SetFloat64(x)
		f.SetMantExp(f, 64)
		i, _ := f.Int(nil) // truncates toward zero
		sum.Add(sum, i)
	}
	f := new(big.Float).SetPrec(53).SetMode(big.ToNearestEven).SetInt(sum)
	f.SetMantExp(f, -64)
	v, _ := f.Float64()
	return v
}

// TestExactSumRoundsLikeBig sweeps addends from subnormals through ±2⁻¹²
// to ±2⁶¹, alone and in random combinations (carries, borrows, ties), and
// checks the accumulator's rounding against math/big bit for bit.
func TestExactSumRoundsLikeBig(t *testing.T) {
	check := func(xs ...float64) {
		t.Helper()
		var a ExactSum
		for _, x := range xs {
			a.Add(x)
		}
		if got, want := a.Float64(), bigRound(xs...); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sum of %v: got %v (%016x), math/big %v (%016x)",
				xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var singles []float64
	for _, x := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-65, 0x1p-64, 0x1.8p-64,
		0x1p-12, 0x1.fffffffffffffp-13, 1, 0x1p61, 0x1.fffffffffffffp61,
	} {
		singles = append(singles, x, -x)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for e := -1074; e <= 61; e++ {
		for k := 0; k < 4; k++ {
			x := math.Ldexp(1+rng.Float64(), e)
			if k&1 == 1 {
				x = -x
			}
			singles = append(singles, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
	}
	for _, x := range singles {
		check(x)
	}
	for it := 0; it < 20000; it++ {
		n := 2 + rng.IntN(5)
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = singles[rng.IntN(len(singles))]
			if xs[k] > 0x1p59 || xs[k] < -0x1p59 {
				xs[k] /= 8 // keep the sum inside (-2⁶³, 2⁶³)
			}
		}
		check(xs...)
	}
	// Ties: 2⁶⁴ + 2¹¹ + k·2¹² in units of 2⁻⁶⁴ lands exactly halfway
	// between two float64s, rounding to the even neighbour.
	for k := 0; k < 4; k++ {
		check(1, 0x1p-53+float64(k)*0x1p-52)
		check(-1, -(0x1p-53 + float64(k)*0x1p-52))
	}
}

// randomRows returns a pair list with random centers and neighbors over n
// atoms and rows and pair energies spanning many magnitudes.
func randomRows(rng *rand.Rand, n, z int) (*neighbor.Pairs, [][3]float64, []float64) {
	p := &neighbor.Pairs{NAtoms: n, NumReal: z}
	rows := make([][3]float64, z)
	pairE := make([]float64, z)
	for k := 0; k < z; k++ {
		i := rng.IntN(n)
		j := (i + 1 + rng.IntN(n-1)) % n
		p.I = append(p.I, i)
		p.J = append(p.J, j)
		for c := 0; c < 3; c++ {
			rows[k][c] = rng.NormFloat64() * math.Ldexp(1, rng.IntN(40)-30)
		}
		pairE[k] = rng.NormFloat64() * math.Ldexp(1, rng.IntN(20)-15)
	}
	return p, rows, pairE
}

// TestReduceRowsBitwiseUnderPermutation: ReduceRows over a random
// permutation of (pairs, rows, pairE) gives the same force and energy bits,
// and so does splitting the pairs into two partials and merging them.
func TestReduceRowsBitwiseUnderPermutation(t *testing.T) {
	m := testModel(t, 1)
	m.SetScaleShift(1.25, []float64{-0.5, -1.75})
	sys := testWater(5)
	n := sys.NumAtoms()
	rng := rand.New(rand.NewPCG(7, 8))
	pairs, rows, pairE := randomRows(rng, n, 40*n)
	var sum Partial
	want := make([][3]float64, n)
	wantE := ReduceRows(&sum, m, sys.Species, pairs, rows, pairE, want)

	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(pairs.NumReal)
		pp := &neighbor.Pairs{NAtoms: n, NumReal: pairs.NumReal}
		pr := make([][3]float64, len(perm))
		pe := make([]float64, len(perm))
		for k, src := range perm {
			pp.I = append(pp.I, pairs.I[src])
			pp.J = append(pp.J, pairs.J[src])
			pr[k], pe[k] = rows[src], pairE[src]
		}
		got := make([][3]float64, n)
		gotE := ReduceRows(&sum, m, sys.Species, pp, pr, pe, got)
		sameBits(t, fmt.Sprintf("permutation %d", trial), gotE, wantE, got, want)

		// Split at a random pair and species boundary, merge the partials.
		cut, scut := rng.IntN(pp.NumReal), rng.IntN(n)
		var a, b Partial
		a.Reset(n)
		b.Reset(n)
		head, tail := *pp, *pp
		head.I, head.J, head.NumReal = pp.I[:cut], pp.J[:cut], cut
		tail.I, tail.J, tail.NumReal = pp.I[cut:], pp.J[cut:], pp.NumReal-cut
		a.AddRows(&head, pr[:cut], pe[:cut])
		b.AddRows(&tail, pr[cut:], pe[cut:])
		a.AddShifts(m, sys.Species[:scut])
		b.AddShifts(m, sys.Species[scut:])
		for i := range a.Forces {
			for k := 0; k < 3; k++ {
				a.Forces[i][k].Merge(b.Forces[i][k])
			}
		}
		a.Energy.Merge(b.Energy)
		a.RoundForces(got)
		sameBits(t, fmt.Sprintf("split/merge %d", trial), m.RoundEnergy(a.Energy), wantE, got, want)
	}
}

// TestEvaluationBitwiseAcrossCenterOrderAndChunks: a full evaluation gives
// the same bits when whole center blocks of the pair list are permuted and
// when the chunk boundaries move (worker counts 1 to 5): a center's rows
// depend only on its own ordered neighbors, and the sums do not depend on
// the order of the rows.
func TestEvaluationBitwiseAcrossCenterOrderAndChunks(t *testing.T) {
	m := testModel(t, 1)
	m.SetScaleShift(1.25, []float64{-0.5, -1.75})
	sys := testWater(6)
	var pairs neighbor.Pairs
	var b neighbor.Builder
	b.BuildInto(&pairs, sys, m.Cuts)
	ref := NewEvalScratch()
	ref.Workers = 1
	r := m.EvaluatePairsInto(ref, sys, &pairs)
	wantE, want := r.Energy, append([][3]float64(nil), r.Forces...)
	ref.Close()

	var blocks [][2]int
	for lo := 0; lo < pairs.Len(); {
		hi := lo + 1
		for hi < pairs.Len() && pairs.I[hi] == pairs.I[lo] {
			hi++
		}
		blocks = append(blocks, [2]int{lo, hi})
		lo = hi
	}
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(blocks), func(a, b int) { blocks[a], blocks[b] = blocks[b], blocks[a] })
		pp := neighbor.Pairs{NAtoms: pairs.NAtoms, NumReal: pairs.NumReal}
		for _, blk := range blocks {
			pp.I = append(pp.I, pairs.I[blk[0]:blk[1]]...)
			pp.J = append(pp.J, pairs.J[blk[0]:blk[1]]...)
			pp.Vec = append(pp.Vec, pairs.Vec[blk[0]:blk[1]]...)
			pp.Dist = append(pp.Dist, pairs.Dist[blk[0]:blk[1]]...)
			pp.Cut = append(pp.Cut, pairs.Cut[blk[0]:blk[1]]...)
		}
		for _, workers := range []int{1, 2, 3, 5} {
			es := NewEvalScratch()
			es.Workers = workers
			r := m.EvaluatePairsInto(es, sys, &pp)
			sameBits(t, fmt.Sprintf("shuffle %d workers=%d", trial, workers), r.Energy, wantE, r.Forces, want)
			es.Close()
		}
	}
}

// TestExactSumForcesCancel: +row on the center and -row on the neighbor
// truncate symmetrically, so before rounding the force sums over all atoms
// are exactly zero (Newton's third law holds in the integers).
func TestExactSumForcesCancel(t *testing.T) {
	m := testModel(t, 1)
	sys := testWater(7)
	es := NewEvalScratch()
	defer es.Close()
	m.EvaluateInto(es, sys)
	rng := rand.New(rand.NewPCG(11, 12))
	random, rows, pairE := randomRows(rng, 50, 4000)
	for _, c := range []struct {
		name string
		sum  *Partial
	}{{"evaluation", &es.sum}, {"random rows", new(Partial)}} {
		if c.name == "random rows" {
			c.sum.Reset(50)
			c.sum.AddRows(random, rows, pairE)
		}
		var total [3]ExactSum
		for _, f := range c.sum.Forces {
			for k := 0; k < 3; k++ {
				total[k].Merge(f[k])
			}
		}
		if total != [3]ExactSum{} {
			t.Errorf("%s: force sums over atoms are %+v, want exactly zero", c.name, total)
		}
	}
}

// TestExactSumPoison: a NaN or Inf row, an addend of magnitude ≥ 2⁶², or a
// sum leaving the representable range rounds to NaN on the affected atoms —
// also after Merge and the 4-word wire form — and never to a finite number.
func TestExactSumPoison(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p62, -0x1p62, math.MaxFloat64} {
		rng := rand.New(rand.NewPCG(13, 14))
		n := 8
		pairs, rows, pairE := randomRows(rng, n, 64)
		rows[5][1] = bad
		i, j := pairs.I[5], pairs.J[5]
		var p Partial
		p.Reset(n)
		p.AddRows(pairs, rows, pairE)
		for _, x := range []float64{1, -1, 0x1p61} { // later additions keep the poison
			p.Forces[i][1].Add(x)
		}
		// The affected atoms' partials travel as wire words and merge into
		// a clean partial; the poison must survive both.
		var q Partial
		q.Reset(n)
		var w [4]int32
		for _, a := range []int{i, j} {
			p.Forces[a][1].PutWords(w[:])
			q.Forces[a][1].Add(2.5)
			q.Forces[a][1].Merge(ExactSumFromWords(w[:]))
		}
		forces := make([][3]float64, n)
		q.RoundForces(forces)
		for _, a := range []int{i, j} {
			if !math.IsNaN(forces[a][1]) {
				t.Errorf("bad addend %v: atom %d force %v, want NaN", bad, a, forces[a][1])
			}
		}
		p.RoundForces(forces)
		for a := range forces {
			for k := 0; k < 3; k++ {
				if poisoned := (a == i || a == j) && k == 1; poisoned != math.IsNaN(forces[a][k]) {
					t.Errorf("bad addend %v: atom %d component %d = %v", bad, a, k, forces[a][k])
				}
			}
		}
		var e ExactSum
		e.Add(1)
		e.Add(bad)
		e.Add(-1)
		if !math.IsNaN(e.Float64()) {
			t.Errorf("energy with addend %v rounds to %v, want NaN", bad, e.Float64())
		}
	}
	// Overflow of the 64 integer bits, by additions and by a merge.
	var a, b ExactSum
	for k := 0; k < 3; k++ {
		a.Add(0x1.fp61)
		b.Add(-0x1.fp61)
	}
	if !math.IsNaN(a.Float64()) || !math.IsNaN(b.Float64()) {
		t.Errorf("overflowing sums round to %v and %v, want NaN", a.Float64(), b.Float64())
	}
	var c, d ExactSum
	c.Add(0x1.fp61)
	c.Add(0x1.fp61)
	d.Add(0x1.fp61)
	d.Add(0x1.fp61)
	c.Merge(d)
	if !math.IsNaN(c.Float64()) {
		t.Errorf("overflowing merge rounds to %v, want NaN", c.Float64())
	}
}

// BenchmarkReduceRows times the exact reduction on a pair list the size of
// the benchmark protein (~0.9k atoms, ~22.7k pairs) and reports ns/pair.
func BenchmarkReduceRows(b *testing.B) {
	m := testModel(b, 1)
	const n, z = 900, 22700
	rng := rand.New(rand.NewPCG(15, 16))
	pairs, rows, pairE := randomRows(rng, n, z)
	species := testWater(1).Species
	for len(species) < n {
		species = append(species, species...)
	}
	species = species[:n]
	forces := make([][3]float64, n)
	var sum Partial
	ReduceRows(&sum, m, species, pairs, rows, pairE, forces)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		ReduceRows(&sum, m, species, pairs, rows, pairE, forces)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/z, "ns/pair")
}
