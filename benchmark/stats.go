package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cut returns the i-th of the n-1 cut points dividing xs into n groups,
// with the interpolation of Python's statistics.quantiles(method=
// "exclusive"), so the spreads this benchmark prints match the ones a
// script computes from its output. Where too few samples make that
// interpolation reach past the data (the quartiles of two samples), the
// cut point stops at the smallest or largest sample instead, so a spread
// never exceeds the samples' range. A single sample is every cut point.
func cut(xs []float64, i, n int) float64 {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	v := (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	return min(max(v, s[0]), s[ld-1])
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return cut(xs, 1, 2) }

// quartiles returns the first and third quartiles of xs.
func quartiles(xs []float64) (q1, q3 float64) { return cut(xs, 1, 4), cut(xs, 3, 4) }

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile of xs and whether it may be
// reported: a percentile counts only with at least minBeyond samples
// beyond it, so p90 needs 100 samples and p50 needs 20.
func percentile(xs []float64, p int) (float64, bool) {
	ok := float64(len(xs))*float64(100-p)/100 >= minBeyond
	return cut(xs, p, 100), ok
}
