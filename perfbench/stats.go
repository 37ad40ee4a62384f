package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// must be sorted ascending; an empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps float error in p*n/100 (99.9*10000 is not exactly
// 999000) from pushing an exact product up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond reports how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile's position.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest percentile among tailPercentiles that
// leaves at least ten samples beyond it, so the reported tail is never a
// single outlier. With fewer than eleven samples it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// median returns the nearest-rank median of xs (sorting a copy).
func median(xs []float64) float64 {
	return percentile(sorted(xs), 50)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// micros converts durations to sorted microsecond samples.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
