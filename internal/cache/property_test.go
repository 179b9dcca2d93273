package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refLRU is an intentionally naive reference implementation of a fully
// associative LRU cache (slice scan), used as the oracle for the
// production implementation.
type refLRU struct {
	cap   int
	order []uint64 // most recent first
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity}
}

// access touches line and reports whether it missed.
func (r *refLRU) access(line uint64) bool {
	for i, l := range r.order {
		if l == line {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = line
			return false
		}
	}
	r.order = append([]uint64{line}, r.order...)
	if len(r.order) > r.cap {
		r.order = r.order[:r.cap]
	}
	return true
}

func (r *refLRU) invalidate(line uint64) {
	for i, l := range r.order {
		if l == line {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// TestLRUMatchesReference drives random operation sequences through the
// production LRU and the naive oracle; every access must hit or miss
// alike.
func TestLRUMatchesReference(t *testing.T) {
	check := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		lru := MustLRU(capacity, 8)
		ref := newRefLRU(capacity)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 500; op++ {
			line := uint64(rng.Intn(40))
			if rng.Intn(6) == 0 {
				lru.Invalidate(line * 8)
				ref.invalidate(line)
				continue
			}
			got := lru.Access(line*8, true)
			want := ref.access(line)
			if got != want {
				t.Logf("seed %d cap %d op %d line %d: miss %v, want %v",
					seed, capacity, op, line, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestProfilerInclusionProperty: for any trace without invalidations, the
// miss count must be non-increasing in capacity and the histogram totals
// must account for every access.
func TestProfilerInclusionProperty(t *testing.T) {
	check := func(seed int64, spanRaw uint8) bool {
		span := int(spanRaw%100) + 2
		p := MustStackProfiler(8)
		rng := rand.New(rand.NewSource(seed))
		const refs = 2000
		for i := 0; i < refs; i++ {
			p.Access(uint64(rng.Intn(span))*8, 8, rng.Intn(2) == 0)
		}
		if p.Accesses() != refs {
			return false
		}
		prev := uint64(refs + 1)
		for c := 1; c <= span+2; c++ {
			m := p.MissesAt(c).Misses()
			if m > prev {
				return false
			}
			prev = m
		}
		// At capacity >= distinct lines, only cold misses remain.
		cr, cw := p.ColdMisses()
		if p.MissesAt(span+1).Misses() != cr+cw {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleSetEqualsLRUProperty: a SetAssoc whose associativity equals
// its capacity has one set and must behave exactly like the fully
// associative LRU on any trace, including invalidations. (Note that a
// partitioned cache can legitimately *beat* fully associative LRU on
// adversarial traces — LRU is pathological on cyclic scans — so no
// domination property holds between the two in general.)
func TestSingleSetEqualsLRUProperty(t *testing.T) {
	check := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		sa := MustSetAssoc(capacity, capacity, 8)
		fa := MustLRU(capacity, 8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			addr := uint64(rng.Intn(48)) * 8
			if rng.Intn(8) == 0 {
				sa.Invalidate(addr)
				fa.Invalidate(addr)
				continue
			}
			read := rng.Intn(2) == 0
			if sa.Access(addr, read) != fa.Access(addr, read) {
				return false
			}
		}
		saStats, faStats := sa.Stats(), fa.Stats()
		return saStats.Misses() == faStats.Misses()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBankAgreesWithProfilerProperty: randomized version of the
// exactness theorem.
func TestBankAgreesWithProfilerProperty(t *testing.T) {
	check := func(seed int64) bool {
		caps := []int{1, 3, 7, 20}
		prof := MustStackProfiler(8)
		bank := MustBank(caps, 8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(50)) * 8
			read := rng.Intn(2) == 0
			prof.Access(addr, 8, read)
			bank.Access(addr, 8, read)
		}
		want := bank.Curve()
		got := prof.Curve(caps)
		for i := range caps {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
