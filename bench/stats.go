package main

import (
	"math"
	"regexp"
	"sort"
)

// metricValue is one reported number with its unit, the shape the result
// line and the result files carry.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is acceptable to BENCHMARK.json: a
// letter or digit first, then letters, digits, '_', '.', '-', 64 at most.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// percentile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailBeyond is how many samples must lie beyond the tail percentile for it
// to be reported: a percentile resting on fewer is one outlier's value.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile of n samples that has
// at least tailBeyond samples strictly beyond it (p66 at n=30, p75 at 40,
// p93 at 150, p98 at 600), never below the median. ok is false when even
// the median has fewer than tailBeyond samples beyond it (n < 20).
func tailPercentile(n int) (pct int, ok bool) {
	if n < 2*tailBeyond {
		return 50, false
	}
	pct = int(math.Floor(100 * float64(n-tailBeyond) / float64(n)))
	if pct > 99 {
		pct = 99
	}
	return pct, true
}

// tailValue returns the sample with exactly the number of samples beyond it
// that tailPercentile(n) promises, and the percentile it stands for.
func tailValue(sorted []float64) (v float64, pct int) {
	n := len(sorted)
	pct, ok := tailPercentile(n)
	if !ok || pct <= 50 {
		return percentile(sorted, 0.5), pct
	}
	// ceil(pct/100*n) samples lie at or below the value, the rest beyond.
	idx := int(math.Ceil(float64(pct)/100*float64(n))) - 1
	return sorted[idx], pct
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the pipeline's spread check
// uses. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spreadOf is the run-to-run spread the pipeline computes: the distance
// between the first and third quartile as a share of the median.
func spreadOf(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
