package core

import (
	"math"
	"math/bits"

	"repro/internal/neighbor"
	"repro/internal/tensor"
	"repro/internal/units"
)

// ExactSum is an exact, order-free accumulator of float64 addends: a 128-bit
// two's-complement fixed-point number with 64 fraction bits. Each addend is
// truncated toward zero to a multiple of 2⁻⁶⁴ (exact for |x| ≥ 2⁻¹²) and
// added as an integer, so the sum does not depend on the order of the
// additions or on how they are split into partials and merged; Float64
// rounds once, to nearest even. For n addends the result is within
// n·2⁻⁶⁴ + ½ ulp of the true sum.
//
// A non-finite addend, an addend of magnitude ≥ 2⁶², or a sum leaving
// (−2⁶³, 2⁶³) poisons the accumulator: it stays poisoned through further
// additions, merges and the 4-word wire form, and rounds to NaN.
//
// The zero value is an empty sum.
type ExactSum struct {
	hi int64  // integer part (two's complement, with lo's carry)
	lo uint64 // fraction bits
}

// poisonHi marks a poisoned accumulator; no valid sum reaches it.
const poisonHi = math.MinInt64

// Add adds x, truncated toward zero to a multiple of 2⁻⁶⁴.
func (a *ExactSum) Add(x float64) {
	hi, lo, ok := toFixed(x)
	if !ok {
		a.hi, a.lo = poisonHi, 0
		return
	}
	a.add(hi, lo)
}

// Merge adds the partial sum b.
func (a *ExactSum) Merge(b ExactSum) {
	if b.hi == poisonHi {
		a.hi, a.lo = poisonHi, 0
		return
	}
	a.add(b.hi, b.lo)
}

// toFixed returns x truncated toward zero to a multiple of 2⁻⁶⁴, as a
// 128-bit two's-complement integer in units of 2⁻⁶⁴; ok is false for
// |x| ≥ 2⁶², Inf and NaN. It is branch-free in the sign and magnitude of x.
func toFixed(x float64) (hi int64, lo uint64, ok bool) {
	b := math.Float64bits(x)
	e := int(b>>52) & 0x7FF
	// |x| = m·2^(e-1075), so in units of 2⁻⁶⁴ it is m·2^s, s = e-1011 ≤ 73.
	// Go shifts by ≥ 64 (including negative counts cast to uint) give 0, so
	// the two words below are exact for every s; |x| < 2⁻⁶⁴ (zeros and
	// subnormals included) truncates to 0.
	m := b&(1<<52-1) | 1<<52
	s := e - 1011
	mlo := m<<uint(s) | m>>uint(-s)
	mhi := m>>uint(64-s) | m<<uint(s-64)
	// Negate in two's complement when x < 0: flip every bit, add one.
	neg := uint64(int64(b) >> 63)
	lo, c := bits.Add64(mlo^neg, neg&1, 0)
	return int64(mhi ^ neg + c), lo, e < 1085
}

// add adds the 128-bit integer (hi, lo), poisoning on signed overflow.
func (a *ExactSum) add(hi int64, lo uint64) {
	old := a.hi
	if old == poisonHi {
		return
	}
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi = old + hi + int64(c)
	// Signed overflow: the result's sign differs from both operands'.
	if (old^a.hi)&(hi^a.hi) < 0 || a.hi == poisonHi {
		a.hi, a.lo = poisonHi, 0
	}
}

// sub subtracts the 128-bit integer (hi, lo), poisoning on signed overflow.
func (a *ExactSum) sub(hi int64, lo uint64) {
	nlo, c := bits.Sub64(0, lo, 0)
	a.add(-hi-int64(c), nlo)
}

// Float64 rounds the sum to the nearest float64, ties to even; a poisoned
// sum is NaN and an empty one +0.
func (a ExactSum) Float64() float64 {
	if a.hi == poisonHi {
		return math.NaN()
	}
	hi, lo := uint64(a.hi), a.lo
	neg := a.hi < 0
	if neg {
		var c uint64
		lo, c = bits.Sub64(0, lo, 0)
		hi = 0 - hi - c
	}
	// Normalize the magnitude's leading 64 bits into top; sticky records
	// whether any bit below them is set.
	var top uint64
	var exp int // magnitude = top·2^exp·2⁻⁶⁴ (plus the sticky bits)
	sticky := false
	switch {
	case hi != 0:
		z := bits.LeadingZeros64(hi)
		top = hi<<uint(z) | lo>>uint(64-z) // z = 0: lo>>64 is 0 in Go
		sticky = lo<<uint(z) != 0
		exp = 64 - z
	case lo != 0:
		z := bits.LeadingZeros64(lo)
		top = lo << uint(z)
		exp = -z
	default:
		return 0
	}
	mant := top >> 11
	rem := top & 0x7FF
	if rem > 0x400 || rem == 0x400 && (sticky || mant&1 == 1) {
		mant++ // may carry to 2⁵³, which float64 holds exactly
	}
	v := math.Ldexp(float64(mant), exp+11-64)
	if neg {
		v = -v
	}
	return v
}

// ExactSumWords is the length of an ExactSum's wire form in int32 words.
const ExactSumWords = 4

// PutWords writes the sum's wire form into w[:ExactSumWords].
func (a ExactSum) PutWords(w []int32) {
	hi := uint64(a.hi)
	w[0], w[1] = int32(uint32(a.lo)), int32(uint32(a.lo>>32))
	w[2], w[3] = int32(uint32(hi)), int32(uint32(hi>>32))
}

// ExactSumFromWords decodes the 4-word wire form PutWords writes.
func ExactSumFromWords(w []int32) ExactSum {
	return ExactSum{
		lo: uint64(uint32(w[0])) | uint64(uint32(w[1]))<<32,
		hi: int64(uint64(uint32(w[2])) | uint64(uint32(w[3]))<<32),
	}
}

// Partial is an exact, mergeable partial of an evaluation: per-atom force
// sums and the energy sum. Rows and energies added in any order, on any
// number of partials, merge to the same bits.
type Partial struct {
	Forces [][3]ExactSum
	Energy ExactSum
}

// Reset empties the partial for n atoms, reusing its storage.
func (p *Partial) Reset(n int) {
	if cap(p.Forces) < n {
		p.Forces = make([][3]ExactSum, n)
	}
	p.Forces = p.Forces[:n]
	clear(p.Forces)
	p.Energy = ExactSum{}
}

// AddRows adds the real pairs' rows and pair energies. rvec_z = r_j - r_i,
// so each row adds to its center and subtracts from its neighbor: one
// truncated integer, added once and subtracted once, so the two halves
// cancel exactly.
func (p *Partial) AddRows(pairs *neighbor.Pairs, rows [][3]float64, pairE []float64) {
	for z := 0; z < pairs.NumReal; z++ {
		row := &rows[z]
		fi, fj := &p.Forces[pairs.I[z]], &p.Forces[pairs.J[z]]
		for k := 0; k < 3; k++ {
			hi, lo, ok := toFixed(row[k])
			if !ok {
				fi[k].Add(row[k]) // poisons both
				fj[k].Add(row[k])
				continue
			}
			fi[k].add(hi, lo)
			fj[k].sub(hi, lo)
		}
		p.Energy.Add(pairE[z])
	}
}

// AddShifts adds the per-species energy shift of every listed atom.
func (p *Partial) AddShifts(m *Model, species []units.Species) {
	for _, sp := range species {
		p.Energy.Add(m.EnergyShift[m.Idx.Index(sp)])
	}
}

// RoundForces rounds the first len(forces) atoms' sums into forces.
func (p *Partial) RoundForces(forces [][3]float64) {
	for i := range forces {
		f := &p.Forces[i]
		forces[i] = [3]float64{f[0].Float64(), f[1].Float64(), f[2].Float64()}
	}
}

// RoundEnergy rounds an evaluation's total energy sum once, then to the
// model's final-stage precision.
func (m *Model) RoundEnergy(e ExactSum) float64 {
	energy := e.Float64()
	if m.Cfg.Precision.Final != tensor.F64 {
		energy = m.Cfg.Precision.Final.Round(energy)
	}
	return energy
}
