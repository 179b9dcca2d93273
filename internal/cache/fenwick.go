package cache

// fenwick is a binary indexed tree over 1-based positions, used by the
// stack-distance profiler to count, in O(log n), how many distinct lines
// have been referenced between two points in the trace.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]int, n+1)}
}

// fill re-dimensions the tree to n positions, with positions 1..k holding
// 1 and the rest 0, in one O(n) pass that reuses the existing storage when
// it is large enough. The profiler compacts every ~size references at
// steady state; without reuse each compaction reallocates a
// half-megabyte tree.
func (f *fenwick) fill(n, k int) {
	if cap(f.tree) >= n+1 {
		f.tree = f.tree[:n+1]
	} else {
		f.tree = make([]int, n+1)
	}
	// Node i sums the low = lowbit(i) positions (i-low, i]; those in
	// 1..k number min(low, k-(i-low)), or none.
	for i := 1; i <= n; i++ {
		low := i & -i
		f.tree[i] = min(max(k-(i-low), 0), low)
	}
}

// size reports the number of positions.
func (f *fenwick) size() int { return len(f.tree) - 1 }

// add adds delta at position i (1-based).
func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// prefix returns the sum over positions [1, i].
func (f *fenwick) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// rangeSum returns the sum over positions [lo, hi], inclusive.
func (f *fenwick) rangeSum(lo, hi int) int {
	if lo > hi {
		return 0
	}
	return f.prefix(hi) - f.prefix(lo-1)
}
