package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method, the one Python's
// statistics.quantiles(xs, n=4) uses by default, so the spreads this
// program reports are the spreads a reader recomputing them from the
// archived values gets. One value is its own three quartiles; no values
// give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the bounds in BENCHMARK.json are held against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs: an
// observed sample, never an interpolation or a bucket edge.
func percentile(xs []float64, q float64) float64 {
	d := sorted(xs)
	if len(d) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(0, min(k, len(d)-1))]
}

// tailQuantiles are the candidate tail percentiles, highest first. p99
// and above are left out: on the reference host they sit in a tail of
// host noise (serve-cached's p99 moved 0.6-1.3 ms between identical
// runs, its p95 by under 10%), which no bound could hold.
var tailQuantiles = []float64{0.95, 0.90}

// tail reports the higher of p95 and p90 that has at least ten samples
// above it. With too few samples for either it reports the median: a run
// of a compute workload holds a handful of identical deterministic
// operations, whose slowest says only how noisy the host was (its spread
// across runs came near the 0.25 bound on the reference host).
func tail(xs []float64) float64 {
	d := sorted(xs)
	for _, q := range tailQuantiles {
		k := int(math.Ceil(q*float64(len(d)))) - 1
		if len(d)-1-k >= 10 {
			return d[k]
		}
	}
	return median(d)
}

// tailWindow is how many consecutive operations one tail estimate
// covers.
const tailWindow = 1000

// windowedTail splits chronologically ordered samples into consecutive
// windows of at least tailWindow (one window when there are fewer) and
// returns the median of the windows' tails. One slow second moves one
// window's p99, not the run's.
func windowedTail(xs []float64) float64 {
	n := max(1, len(xs)/tailWindow)
	tails := make([]float64, n)
	for w := 0; w < n; w++ {
		tails[w] = tail(xs[w*len(xs)/n : (w+1)*len(xs)/n])
	}
	return median(tails)
}

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}
