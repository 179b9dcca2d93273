package cache

import "testing"

// cycleProfiler drives n references over a fixed working set of lines,
// enough to trigger position compactions when n exceeds the occupancy
// index's size.
func cycleProfiler(p *StackProfiler, n, lines int) {
	for i := 0; i < n; i++ {
		p.Access(uint64(i%lines)*8, 8, true)
	}
}

// TestCompactReusesAllocations pins down the steady-state allocation
// behavior of the profiler: after warm-up (histograms grown, owner slice
// and occupancy index sized), a window of references that includes a full
// compaction must allocate nothing: compaction rebuilds the index on its
// existing storage.
func TestCompactReusesAllocations(t *testing.T) {
	p := MustStackProfiler(8)
	const lines = 1024
	// Warm up past several compactions so every buffer reaches its
	// steady-state size.
	cycleProfiler(p, 3*initialPositions, lines)
	avg := testing.AllocsPerRun(5, func() {
		cycleProfiler(p, initialPositions, lines)
	})
	if avg > 2 {
		t.Fatalf("steady-state window (with compaction) allocated %.1f times, want <= 2", avg)
	}
}

// TestCachesHoldOnlyResidentLines pins the concrete caches' footprint to
// their capacity: once full, a stream of 65,536 never-seen lines per run,
// with invalidations of resident and of absent lines interleaved,
// allocates nothing. A cache that remembered every line it had touched
// would grow with the stream; sharing1024 keeps 1,024 caches alive at
// once.
func TestCachesHoldOnlyResidentLines(t *testing.T) {
	const lines = 1024
	for _, tc := range []struct {
		name string
		c    Cache
	}{
		{"lru", MustLRU(lines, 8)},
		{"direct-mapped", MustDirectMapped(lines, 8)},
		{"4-way", MustSetAssoc(lines, 4, 8)},
	} {
		// Fill with lines 0 to 2×lines−1: every cache ends full, holding
		// none of the first lines.
		for l := uint64(0); l < 2*lines; l++ {
			tc.c.Access(l*8, l%2 == 0)
		}
		next := uint64(2 * lines)
		avg := testing.AllocsPerRun(4, func() {
			for i := 0; i < 1<<16; i++ {
				addr := next * 8
				next++
				tc.c.Access(addr, i%2 == 0)
				if i%8 == 0 {
					tc.c.Invalidate(addr)                // resident: just filled
					tc.c.Invalidate(uint64(i%lines) * 8) // absent: evicted by the fill
				}
			}
		})
		if avg != 0 {
			t.Errorf("%s: a stream of never-seen lines allocated %.1f times per run, want 0", tc.name, avg)
		}
	}
}

// BenchmarkStackProfilerSteadyState reports the per-reference cost and
// allocation count of the profiler at steady state, compactions included.
func BenchmarkStackProfilerSteadyState(b *testing.B) {
	p := MustStackProfiler(8)
	const lines = 1024
	cycleProfiler(p, 3*initialPositions, lines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(i%lines)*8, 8, true)
	}
}
