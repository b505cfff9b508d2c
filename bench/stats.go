package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (Hyndman and Fan's type 7, numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) || h == float64(lo) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// supportedPercentile is the highest of p90, p99 and p99.9 that n samples
// support: at least ten samples lie beyond it. It returns 0 when even p90
// has fewer than ten.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}
