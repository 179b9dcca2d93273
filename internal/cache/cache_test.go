package cache

import (
	"errors"
	"math/rand"
	"testing"

	"wsstudy/internal/linetab"
)

func TestLineComputation(t *testing.T) {
	cases := []struct {
		addr     uint64
		lineSize uint32
		want     uint64
	}{
		{0, 8, 0},
		{7, 8, 0},
		{8, 8, 1},
		{63, 64, 0},
		{64, 64, 1},
		{1000, 8, 125},
	}
	for _, c := range cases {
		if got := Line(c.addr, c.lineSize); got != c.want {
			t.Errorf("Line(%d,%d) = %d, want %d", c.addr, c.lineSize, got, c.want)
		}
	}
}

func TestLineSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two line size")
		}
	}()
	Line(0, 24)
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		addr       uint64
		size, line uint32
		want       int
	}{
		{0, 8, 8, 1},
		{0, 9, 8, 2},
		{4, 8, 8, 2},
		{0, 0, 8, 0},
		{0, 64, 64, 1},
		{63, 2, 64, 2},
	}
	for _, c := range cases {
		if got := LinesSpanned(c.addr, c.size, c.line); got != c.want {
			t.Errorf("LinesSpanned(%d,%d,%d) = %d, want %d", c.addr, c.size, c.line, got, c.want)
		}
	}
}

func TestLRUBasicHitMiss(t *testing.T) {
	c := MustLRU(2, 8)
	if !c.Access(0, true) {
		t.Fatal("first access hit, want a miss")
	}
	if c.Access(0, true) {
		t.Fatal("re-access missed, want a hit")
	}
	if !c.Access(8, true) {
		t.Fatal("new line hit, want a miss")
	}
	// Capacity 2: accessing a third line evicts LRU line 0... but line 0
	// was most recently... order: 0 (hit), 8 -> stack [8,0]. Access 16
	// evicts 0.
	if !c.Access(16, true) {
		t.Fatal("third line hit, want a miss")
	}
	if c.Contains(0) {
		t.Fatal("line 0 should have been evicted")
	}
	if !c.Access(0, true) {
		t.Fatal("evicted line hit, want a miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := MustLRU(3, 8)
	for _, a := range []uint64{0, 8, 16} {
		c.Access(a, true)
	}
	c.Access(0, true) // refresh 0; LRU order now [0,16,8]
	c.Access(24, true)
	if c.Contains(8) {
		t.Error("line 8 should have been evicted (LRU)")
	}
	for _, a := range []uint64{0, 16, 24} {
		if !c.Contains(a) {
			t.Errorf("line at %d should be resident", a)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := MustLRU(4, 8)
	c.Access(0, true)
	c.Invalidate(0)
	if c.Contains(0) {
		t.Fatal("line should be gone after invalidation")
	}
	if !c.Access(0, true) {
		t.Fatal("post-invalidation access hit, want a miss")
	}
	// Invalidating an absent line leaves the cache and its statistics as
	// they were.
	before := c.Stats()
	c.Invalidate(800)
	if c.Len() != 1 || c.Stats() != before {
		t.Fatalf("stray invalidate changed the cache: Len %d, stats %+v, was %+v", c.Len(), c.Stats(), before)
	}
}

func TestLRUStatsAndReset(t *testing.T) {
	c := MustLRU(2, 8)
	c.Access(0, true)
	c.Access(0, false)
	c.Access(8, true)
	s := c.Stats()
	if s.Accesses != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ReadMisses != 2 || s.WriteMisses != 0 {
		t.Fatalf("miss stats = %+v", s)
	}
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Contains(0) {
		t.Fatal("ResetStats must keep contents")
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.ReadMissRate() != 0 {
		t.Fatal("empty stats should have zero rates")
	}
	s.Record(true, true)
	s.Record(true, false)
	s.Record(false, true)
	if got := s.ReadMissRate(); got != 0.5 {
		t.Errorf("ReadMissRate = %v, want 0.5", got)
	}
	if got := s.MissRate(); got != 2.0/3.0 {
		t.Errorf("MissRate = %v, want 2/3", got)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Accesses != 6 || sum.Misses() != 4 {
		t.Errorf("Add: %+v", sum)
	}
}

func TestSetAssocDirectMappedConflicts(t *testing.T) {
	// Direct-mapped, 4 lines: addresses 0 and 4*8=32 map to set 0 with
	// line size 8 (lines 0 and 4; 4 mod 4 = 0).
	c := MustDirectMapped(4, 8)
	c.Access(0, true)
	if !c.Access(32, true) {
		t.Fatal("new line hit, want a miss")
	}
	// Line 4 evicted line 0 from their shared set while three of the
	// cache's four lines stood empty: a conflict, not a capacity, miss.
	if c.Contains(0) || c.Len() != 1 {
		t.Fatalf("Contains(0) = %v, Len = %d; want line 0 evicted and 1 line resident", c.Contains(0), c.Len())
	}
	if !c.Access(0, true) {
		t.Fatal("conflicting line hit, want a miss")
	}
}

func TestSetAssocAssociativityAvoidsConflict(t *testing.T) {
	// 2-way, 4 lines total (2 sets): lines 0 and 2 share set 0 but fit.
	c := MustSetAssoc(4, 2, 8)
	c.Access(0, true)
	c.Access(16, true) // line 2, same set
	if c.Access(0, true) {
		t.Fatal("2-way should retain both lines, but line 0 missed")
	}
	// A third line in the same set evicts the LRU member (line 2).
	c.Access(32, true) // line 4, set 0
	if !c.Access(16, true) {
		t.Fatal("line 2 should have been evicted from the set")
	}
}

func TestSetAssocInvalidate(t *testing.T) {
	c := MustSetAssoc(4, 2, 8)
	c.Access(0, true)
	c.Invalidate(0)
	if c.Contains(0) {
		t.Fatal("line should be gone after invalidation")
	}
	if !c.Access(0, true) {
		t.Fatal("post-invalidation access hit, want a miss")
	}
}

func TestSetAssocFullyAssociativeMatchesLRU(t *testing.T) {
	// A SetAssoc with one set IS a fully associative LRU cache; their miss
	// counts must agree on a random trace.
	const capLines = 16
	sa := MustSetAssoc(capLines, capLines, 8)
	lru := MustLRU(capLines, 8)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(64)) * 8
		read := rng.Intn(4) != 0
		r1 := sa.Access(addr, read)
		r2 := lru.Access(addr, read)
		if r1 != r2 {
			t.Fatalf("ref %d addr %d: setassoc miss %v vs lru %v", i, addr, r1, r2)
		}
	}
	saStats, lruStats := sa.Stats(), lru.Stats()
	if saStats.Misses() != lruStats.Misses() {
		t.Fatalf("miss totals differ: %d vs %d", saStats.Misses(), lruStats.Misses())
	}
}

// TestStackProfilerMatchesLRU is the load-bearing correctness property:
// without invalidations, Mattson's theorem says the single-pass profiler
// must report exactly the miss counts of independent LRU simulations at
// every capacity, on an adversarially random trace. The second line set
// mixes dense lines with lines at and far above the line table's dense
// bound, so the far-line map is held to the same property; both runs stay
// inside one 65,536-position span, where no compaction runs.
func TestStackProfilerMatchesLRU(t *testing.T) {
	capacities := []int{1, 2, 3, 5, 8, 13, 21, 34, 55}
	dense := make([]uint64, 100)
	for i := range dense {
		dense[i] = uint64(i)
	}
	var mixed []uint64
	for i := uint64(0); i < 20; i++ {
		mixed = append(mixed, i, 3*linetab.PageLines+i, linetab.Dense-10+i, 1<<40+i, (1<<61-1)-i)
	}
	for _, lines := range [][]uint64{dense, mixed} {
		p := MustStackProfiler(8)
		lrus := make([]*LRU, len(capacities))
		for i, c := range capacities {
			lrus[i] = MustLRU(c, 8)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50000; i++ {
			addr := lines[rng.Intn(len(lines))] * 8
			read := rng.Intn(3) != 0
			p.Access(addr, 8, read)
			for _, c := range lrus {
				c.Access(addr, read)
			}
		}
		curve := p.Curve(capacities)
		for i, c := range capacities {
			want := lrus[i].Stats()
			got := curve[i]
			if got.ReadMisses != want.ReadMisses || got.WriteMisses != want.WriteMisses {
				t.Errorf("lines %d..%d capacity %d: profiler (r=%d,w=%d) vs LRU (r=%d,w=%d)",
					lines[0], lines[len(lines)-1], c, got.ReadMisses, got.WriteMisses, want.ReadMisses, want.WriteMisses)
			}
			single := p.MissesAt(c)
			if single != got {
				t.Errorf("capacity %d: MissesAt disagrees with Curve: %+v vs %+v", c, single, got)
			}
		}
		if p.DistinctLines() != len(lines) {
			t.Errorf("DistinctLines = %d, want %d", p.DistinctLines(), len(lines))
		}
	}
}

// TestStackProfilerInvalidationBound checks the documented approximation
// property: with invalidations, the profiler's miss count at each capacity
// stays within the number of invalidation events of the exact per-size
// simulation, and never undercounts coherence effects away entirely.
func TestStackProfilerInvalidationBound(t *testing.T) {
	capacities := []int{1, 2, 3, 5, 8, 13, 21, 34, 55}
	p := MustStackProfiler(8)
	bank := MustBank(capacities, 8)
	rng := rand.New(rand.NewSource(7))
	invals := 0
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(100)) * 8
		if rng.Intn(50) == 0 {
			invals++
			p.Invalidate(addr)
			bank.Invalidate(addr)
			continue
		}
		read := rng.Intn(3) != 0
		p.Access(addr, 8, read)
		bank.Access(addr, 8, read)
	}
	exact := bank.Curve()
	approx := p.Curve(capacities)
	for i, c := range capacities {
		diff := int64(approx[i].Misses()) - int64(exact[i].Misses())
		if diff < 0 {
			diff = -diff
		}
		if diff > int64(invals) {
			t.Errorf("capacity %d: |profiler-exact| = %d exceeds invalidation count %d",
				c, diff, invals)
		}
	}
}

func TestBankMatchesProfilerWithoutInvalidations(t *testing.T) {
	capacities := []int{1, 4, 16, 64}
	p := MustStackProfiler(8)
	bank := MustBank(capacities, 8)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(200)) * 8
		read := rng.Intn(2) == 0
		p.Access(addr, 8, read)
		bank.Access(addr, 8, read)
	}
	got := bank.Curve()
	want := p.Curve(capacities)
	for i := range capacities {
		if got[i] != want[i] {
			t.Errorf("capacity %d: bank %+v vs profiler %+v", capacities[i], got[i], want[i])
		}
	}
}

func TestBankValidation(t *testing.T) {
	for _, caps := range [][]int{{}, {0}, {4, 4}, {8, 4}} {
		if _, err := NewBank(caps, 8); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewBank(%v) err = %v, want ErrInvalidConfig", caps, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustBank(%v) should panic", caps)
				}
			}()
			MustBank(caps, 8)
		}()
	}
}

// TestConstructorValidation exercises every constructor's input checks:
// invalid configurations return ErrInvalidConfig instead of panicking.
func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		make func() error
	}{
		{"LRU zero capacity", func() error { _, err := NewLRU(0, 8); return err }},
		{"LRU negative capacity", func() error { _, err := NewLRU(-4, 8); return err }},
		{"LRU zero line", func() error { _, err := NewLRU(4, 0); return err }},
		{"LRU non-pow2 line", func() error { _, err := NewLRU(4, 24); return err }},
		{"SetAssoc zero capacity", func() error { _, err := NewSetAssoc(0, 2, 8); return err }},
		{"SetAssoc zero assoc", func() error { _, err := NewSetAssoc(8, 0, 8); return err }},
		{"SetAssoc capacity not multiple", func() error { _, err := NewSetAssoc(7, 2, 8); return err }},
		{"SetAssoc non-pow2 sets", func() error { _, err := NewSetAssoc(6, 2, 8); return err }},
		{"SetAssoc bad line", func() error { _, err := NewSetAssoc(8, 2, 3); return err }},
		{"DirectMapped zero capacity", func() error { _, err := NewDirectMapped(0, 8); return err }},
		{"DirectMapped bad line", func() error { _, err := NewDirectMapped(4, 7); return err }},
		{"Bank empty", func() error { _, err := NewBank(nil, 8); return err }},
		{"Bank not ascending", func() error { _, err := NewBank([]int{8, 4}, 8); return err }},
		{"Bank bad line", func() error { _, err := NewBank([]int{4, 8}, 0); return err }},
		{"StackProfiler zero line", func() error { _, err := NewStackProfiler(0); return err }},
		{"StackProfiler non-pow2 line", func() error { _, err := NewStackProfiler(12); return err }},
	}
	for _, c := range cases {
		if err := c.make(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", c.name, err)
		}
	}

	// Sanity: valid configurations construct cleanly through every path.
	valid := []func() error{
		func() error { _, err := NewLRU(4, 8); return err },
		func() error { _, err := NewSetAssoc(8, 2, 8); return err },
		func() error { _, err := NewDirectMapped(4, 8); return err },
		func() error { _, err := NewBank([]int{2, 4, 8}, 8); return err },
		func() error { _, err := NewStackProfiler(64); return err },
	}
	for i, f := range valid {
		if err := f(); err != nil {
			t.Errorf("valid constructor %d rejected: %v", i, err)
		}
	}
}

func TestBankColdStartExclusion(t *testing.T) {
	bank := MustBank([]int{2, 8}, 8)
	bank.Access(0, 8, true)
	bank.Access(8, 8, true)
	bank.SetMeasuring(true) // resets counters, keeps contents
	bank.Access(0, 8, true)
	if got := bank.Stats(1).ReadMisses; got != 0 {
		t.Errorf("8-line cache misses after warm-up = %d, want 0", got)
	}
}

// TestStackProfilerCompaction drives enough references through the profiler
// to force position-space compaction and re-checks agreement with LRU.
func TestStackProfilerCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction test needs >64k references")
	}
	p := MustStackProfiler(8)
	lru := MustLRU(10, 8)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300000; i++ {
		addr := uint64(rng.Intn(40)) * 8
		p.Access(addr, 8, true)
		lru.Access(addr, true)
	}
	got := p.MissesAt(10)
	want := lru.Stats()
	if got.ReadMisses != want.ReadMisses {
		t.Fatalf("after compaction: profiler %d misses vs LRU %d", got.ReadMisses, want.ReadMisses)
	}
}

// TestCompactionPhantomSlot pins a known defect of compaction. When a
// compaction lands on a hit, the line's freed position is renumbered as
// occupied and stays occupied, with no owner, until the next compaction,
// adding 1 to the stack distance of every older line meanwhile. Here
// 1,000 cyclic lines with a hot line touched between each fit a
// 1,001-line LRU cache after the cold pass, so LRU misses 1,001 times;
// after each phantom the profiler misses on cyclic lines until the next
// compaction. The counts below are the profiler's today. Removing the
// phantom moves the paper-scale figures, so the fix waits for a change
// that re-records them (ROADMAP), and that change flips this test to
// equality with LRU.
func TestCompactionPhantomSlot(t *testing.T) {
	const hot = 5000
	for _, c := range []struct {
		hotFirst bool
		want     uint64
	}{{false, 4997}, {true, 5996}} {
		p := MustStackProfiler(8)
		lru := MustLRU(1001, 8)
		for i := 0; i < 300000; i++ {
			pair := [2]uint64{uint64(i % 1000), hot}
			if c.hotFirst {
				pair[0], pair[1] = pair[1], pair[0]
			}
			for _, line := range pair {
				p.Access(line*8, 8, true)
				lru.Access(line*8, true)
			}
		}
		if got := lru.Stats().ReadMisses; got != 1001 {
			t.Fatalf("hot first %v: LRU misses = %d, want 1001", c.hotFirst, got)
		}
		if got := p.MissesAt(1001).ReadMisses; got != c.want {
			t.Errorf("hot first %v: profiler misses at 1,001 lines = %d, want %d (the phantom-slot count)",
				c.hotFirst, got, c.want)
		}
	}
}

func TestStackProfilerColdStartExclusion(t *testing.T) {
	p := MustStackProfiler(8)
	p.SetMeasuring(false)
	for i := 0; i < 10; i++ {
		p.Access(uint64(i)*8, 8, true)
	}
	if p.Accesses() != 0 {
		t.Fatal("warm-up references must not be counted")
	}
	p.SetMeasuring(true)
	for i := 0; i < 10; i++ {
		p.Access(uint64(i)*8, 8, true)
	}
	// All 10 lines were warmed: a 10-line cache sees zero misses, a
	// 5-line cache sees 10 capacity misses (cyclic sweep), and no cold
	// misses are charged.
	if got := p.MissesAt(10).ReadMisses; got != 0 {
		t.Errorf("10-line cache misses = %d, want 0", got)
	}
	if got := p.MissesAt(5).ReadMisses; got != 10 {
		t.Errorf("5-line cache misses = %d, want 10", got)
	}
	cr, _ := p.ColdMisses()
	if cr != 0 {
		t.Errorf("cold misses = %d, want 0 (excluded by warm-up)", cr)
	}
}

func TestStackProfilerSequentialScan(t *testing.T) {
	// A cyclic scan over N lines: caches smaller than N always miss; a
	// cache of N lines never misses after warm-up.
	const n = 100
	p := MustStackProfiler(8)
	p.SetMeasuring(false)
	for i := 0; i < n; i++ {
		p.Access(uint64(i)*8, 8, true)
	}
	p.SetMeasuring(true)
	const sweeps = 5
	for s := 0; s < sweeps; s++ {
		for i := 0; i < n; i++ {
			p.Access(uint64(i)*8, 8, true)
		}
	}
	if got := p.MissesAt(n).ReadMisses; got != 0 {
		t.Errorf("full-size cache misses = %d, want 0", got)
	}
	if got := p.MissesAt(n - 1).ReadMisses; got != sweeps*n {
		t.Errorf("n-1 cache misses = %d, want %d (LRU pathological scan)", got, sweeps*n)
	}
}

func TestStackProfilerInvalidation(t *testing.T) {
	p := MustStackProfiler(8)
	p.Access(0, 8, true) // cold
	p.Invalidate(0)
	p.Access(0, 8, true) // coherence at every size
	if got := p.MissesAt(1000).ReadMisses; got != 2 {
		t.Errorf("misses at huge cache = %d, want 2 (cold+coherence)", got)
	}
	cr, _ := p.CoherenceMisses()
	if cr != 1 {
		t.Errorf("coherence read misses = %d, want 1", cr)
	}
}

func TestStackProfilerMultiLineAccess(t *testing.T) {
	p := MustStackProfiler(8)
	p.Access(0, 24, true) // touches lines 0,1,2
	if p.DistinctLines() != 3 {
		t.Fatalf("DistinctLines = %d, want 3", p.DistinctLines())
	}
	if p.Reads() != 3 {
		t.Fatalf("Reads = %d, want 3 (one per line)", p.Reads())
	}
}

func TestCurveMonotone(t *testing.T) {
	// Miss counts must be non-increasing in capacity (stack inclusion).
	p := MustStackProfiler(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30000; i++ {
		p.Access(uint64(rng.Intn(500))*8, 8, rng.Intn(2) == 0)
	}
	caps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	curve := p.Curve(caps)
	for i := 1; i < len(curve); i++ {
		if curve[i].Misses() > curve[i-1].Misses() {
			t.Fatalf("miss count increased with capacity: %+v -> %+v", curve[i-1], curve[i])
		}
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := MustLRU(2, 8)
	c.Access(0, false) // dirty line 0
	c.Access(8, true)  // clean line 1
	c.Access(16, true) // evicts line 0 (dirty): writeback
	c.Access(24, true) // evicts line 1 (clean): no writeback
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
	// Invalidating a dirty resident line also writes back.
	c.Access(32, false)
	c.Invalidate(32)
	if got := c.Stats().Writebacks; got != 2 {
		t.Fatalf("writebacks after invalidate = %d, want 2", got)
	}
	// A read hit must not dirty the line.
	d := MustLRU(1, 8)
	d.Access(0, true)
	d.Access(8, true) // evict clean
	if d.Stats().Writebacks != 0 {
		t.Fatal("clean eviction counted as writeback")
	}
}

func TestWritebackDirtyPropagatesOnHit(t *testing.T) {
	c := MustLRU(1, 8)
	c.Access(0, true)  // clean load
	c.Access(0, false) // write hit dirties it
	c.Access(8, true)  // eviction must write back
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}
