package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: a p99 needs 1000 samples, a p50 twenty.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, refusing one
// the sample cannot support. Failed requests enter as +Inf, so they
// count as missing any latency limit.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || float64(n)*(1-q) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, int(math.Ceil(minBeyond/(1-q)-1e-9)), n)
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the mean of the middle pair
// for an even count.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method, so spreads read here match the ones a Python
// harness computes from the same runs. A single value is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// band is how far a metric may move before a change counts, in the
// relative IsNearBy style plus an absolute allowance for a metric
// whose base sits at zero (fail_ratio).
type band struct {
	rel float64 // share of the base median
	abs float64
}

func (b band) allowance(base float64) float64 { return b.rel*math.Abs(base) + b.abs }

// Verdicts of a comparison.
const (
	within     = "within"
	regressed  = "regressed"
	improved   = "improved"
	unresolved = "unresolved"
)

// judge compares two sets of runs of one metric. The new median is
// regressed (improved) when it is worse (better) than the base median
// by more than the band. When either side's own interquartile spread
// exceeds the band the difference cannot be told from noise, and the
// verdict is unresolved unless every new run beats, or loses to, every
// base run.
func judge(base, cur []float64, b band, lowerBetter bool) string {
	mb := median(base)
	worse := func(x, than float64) bool {
		if lowerBetter {
			return x > than
		}
		return x < than
	}
	allow := b.allowance(mb)
	for _, side := range [][]float64{base, cur} {
		q1, q3 := quartiles(side)
		if q3-q1 > allow {
			switch {
			case allPairs(cur, base, func(c, b float64) bool { return worse(b, c) }):
				return improved
			case allPairs(cur, base, worse):
				return regressed
			}
			return unresolved
		}
	}
	delta := median(cur) - mb
	if !lowerBetter {
		delta = -delta
	}
	switch {
	case delta > allow:
		return regressed
	case -delta > allow:
		return improved
	}
	return within
}

// allPairs reports whether rel(c, b) holds for every c in cur and b in
// base.
func allPairs(cur, base []float64, rel func(c, b float64) bool) bool {
	for _, c := range cur {
		for _, b := range base {
			if !rel(c, b) {
				return false
			}
		}
	}
	return true
}
