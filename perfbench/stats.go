package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankPercentile returns the nearest-rank q-quantile of xs.
func rankPercentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentile is the highest nearest-rank percentile of xs, up to
// p99, that still has at least ten samples beyond it (never below the
// median). It returns the value and the quantile used.
func tailPercentile(xs []float64) (float64, float64) {
	n := len(xs)
	q := 0.99
	if n < 1000 {
		q = max(0.5, float64(n-10)/float64(n))
	}
	return rankPercentile(xs, q), q
}

// windowedP99 splits xs, in order, into windows of at least 1,000
// samples and returns the median of the windows' p99s, so one burst of
// machine noise moves one window, not the figure. With fewer than 2,000
// samples it is tailPercentile of all of them.
func windowedP99(xs []float64) (float64, int) {
	w := len(xs) / 1000
	if w < 2 {
		v, _ := tailPercentile(xs)
		return v, 1
	}
	var p99s []float64
	for i := 0; i < w; i++ {
		v, _ := tailPercentile(xs[i*len(xs)/w : (i+1)*len(xs)/w])
		p99s = append(p99s, v)
	}
	return median(p99s), w
}

// geomean is the geometric mean of positive values; 0 when any is <= 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), the
// steadiness measure the benchmark's bounds are checked against.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
