package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{0.5, 0.25, 4, 1, 2}, 0.375, 1, 3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	// IQR 8.25-2.75 = 5.5 over median 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := seq(1, 100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesAbove(t *testing.T) {
	cases := []struct {
		xs     []float64
		want   float64
		reason string
	}{
		{seq(1, 1000), 950, "p95 has fifty above"},
		{seq(1, 200), 190, "p95 has exactly ten above"},
		{seq(1, 100), 90, "only p90 has ten above"},
		{seq(1, 50), 25.5, "too few samples: the median"},
		{[]float64{5, 1, 3}, 3, "three operations: the median"},
	}
	for _, c := range cases {
		if got := tail(c.xs); got != c.want {
			t.Errorf("%s: tail = %v, want %v", c.reason, got, c.want)
		}
	}
}

func TestWindowedTailIsMedianOfWindowTails(t *testing.T) {
	// Two windows of 1000: p95s 950 and 1950.
	if got := windowedTail(seq(1, 2000)); got != 1450 {
		t.Errorf("windowedTail(1..2000) = %v, want 1450", got)
	}
	// One slow window out of three moves nothing.
	xs := append(append(seq(1, 1000), seq(1, 1000)...), seq(100001, 101000)...)
	if got := windowedTail(xs); got != 950 {
		t.Errorf("windowedTail with one slow window = %v, want 950", got)
	}
	if got := windowedTail([]float64{3, 9, 4}); got != 4 {
		t.Errorf("windowedTail of three = %v, want the median, 4", got)
	}
}

func TestCoveredUnionsIntervals(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {5, 15}, {20, 30}}, 25},
		{[][2]int64{{20, 30}, {0, 10}, {2, 3}}, 20},
		{[][2]int64{{5, 5}, {7, 6}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "grandchild", Start: 10, End: 20},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
	}
	if got := tr.self(1); got != 40 {
		t.Errorf("self(parent) = %d, want 40 (100 - 50 covered by a∪b - 10 by c)", got)
	}
	if got := tr.count(1); got != 5 {
		t.Errorf("count(parent) = %d, want 5", got)
	}
}

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
