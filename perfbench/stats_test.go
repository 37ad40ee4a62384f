package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.01, 1}, {55, 6},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %g, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty p50 = %g, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},          // too few for any tail: the median
		{20, 50},         // p90 leaves 2 beyond
		{100, 90},        // p90 leaves 10; p99 leaves 1
		{999, 90},        // p99 leaves 9
		{1000, 99},       // p99 leaves exactly 10
		{10000, 99.9},    // p99.9 leaves 10
		{100000, 99.99},  // p99.99 leaves 10
		{1000000, 99.99}, // the highest candidate
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n > 10 && got != 50 && beyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves %d beyond, want >= 10", c.n, got, beyond(c.n, got))
		}
	}
}
