package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile. A p90 of 40 samples rests on four values, which is no
// tail; requiring ten keeps every reported percentile backed by data.
const minBeyond = 10

// pct is one reported percentile: its value and the sample count
// behind it.
type pct struct {
	P     float64 // percentile in (0, 100)
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of xs. It
// refuses (with an error naming the sample count) when fewer than
// minBeyond samples lie beyond the percentile's rank.
func percentile(xs []float64, p float64) (pct, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return pct{}, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return pct{}, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", p, n, max(0, n-rank), minBeyond)
	}
	s := sorted(xs)
	return pct{P: p, Value: s[rank-1], N: n}, nil
}

// highestPercentile returns the highest of the conventional tail
// percentiles that n samples support.
func highestPercentile(xs []float64) (pct, error) {
	best, err := percentile(xs, 50)
	if err != nil {
		return pct{}, err
	}
	for _, p := range []float64{90, 95, 99, 99.9, 99.99} {
		v, err := percentile(xs, p)
		if err != nil {
			break
		}
		best = v
	}
	return best, nil
}

// medianOf is the median of per-round or per-setup values. Those come
// a handful per run, so it asks for at least three rather than a tail.
func medianOf(xs []float64) (float64, error) {
	if len(xs) < 3 {
		return 0, fmt.Errorf("median of %d values; need at least 3", len(xs))
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// quartiles returns the three cut points of xs by the "exclusive"
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
