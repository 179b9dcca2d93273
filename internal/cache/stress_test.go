package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wsstudy/internal/obs"
)

// stressCache is what the stress test reads from a flat cache and from its
// oracle after every operation.
type stressCache interface {
	Cache
	Len() int
	Contains(addr uint64) bool
	Instrument(rec *obs.Recorder)
}

// stressPair is a flat cache and its oracle, each counting evictions into
// its own Recorder.
type stressPair struct {
	flat, oracle       stressCache
	flatRec, oracleRec *obs.Recorder
}

func newStressPair(t *testing.T, lines, assoc int, lineSize uint32) stressPair {
	t.Helper()
	var p stressPair
	var err error
	if assoc == 0 {
		p.flat, err = NewLRU(lines, lineSize)
		if err == nil {
			p.oracle, err = newOracleLRU(lines, lineSize)
		}
	} else {
		p.flat, err = NewSetAssoc(lines, assoc, lineSize)
		if err == nil {
			p.oracle, err = newOracleSetAssoc(lines, assoc, lineSize)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	p.flatRec, p.oracleRec = obs.New(), obs.New()
	p.flat.Instrument(p.flatRec)
	p.oracle.Instrument(p.oracleRec)
	return p
}

// check compares everything observable after one operation on addr.
func (p stressPair) check(t *testing.T, op int, what string, addr uint64) {
	t.Helper()
	PublishCache(p.flat)
	PublishCache(p.oracle) // a no-op for the map-based oracles
	if got, want := p.flat.Stats(), p.oracle.Stats(); got != want {
		t.Fatalf("op %d (%s %#x): stats\nflat:   %+v\noracle: %+v", op, what, addr, got, want)
	}
	if got, want := p.flat.Len(), p.oracle.Len(); got != want {
		t.Fatalf("op %d (%s %#x): Len = %d, oracle %d", op, what, addr, got, want)
	}
	if got, want := p.flat.Contains(addr), p.oracle.Contains(addr); got != want {
		t.Fatalf("op %d (%s %#x): Contains = %v, oracle %v", op, what, addr, got, want)
	}
	got := p.flatRec.Counter(MetricEvictions).Value()
	if want := p.oracleRec.Counter(MetricEvictions).Value(); got != want {
		t.Fatalf("op %d (%s %#x): evictions = %d, oracle %d", op, what, addr, got, want)
	}
}

// stress drives the pair with ops seeded reads, writes and invalidations
// of addresses base + [0, span), half of them re-touching one of the last
// 2,048 addresses so that hits, re-misses and invalidations of resident
// lines all occur, and resets statistics halfway. It adds to seen how
// often each outcome occurred in the flat cache (hits, misses,
// invalidations of resident and of absent lines, writebacks and
// evictions), so the caller can check the streams reached every one.
func stress(t *testing.T, p stressPair, seed int64, ops int, base, span uint64, seen map[string]uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recent := make([]uint64, 0, 2048)
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			seen["writebacks"] += p.flat.Stats().Writebacks
			p.flat.ResetStats()
			p.oracle.ResetStats()
		}
		var addr uint64
		if len(recent) > 0 && rng.Intn(2) == 0 {
			addr = recent[rng.Intn(len(recent))]
		} else {
			addr = base + uint64(rng.Int63n(int64(span)))
		}
		if len(recent) < cap(recent) {
			recent = append(recent, addr)
		} else {
			recent[op%len(recent)] = addr
		}
		if rng.Intn(8) == 0 {
			if p.flat.Contains(addr) {
				seen["invalidations of resident lines"]++
			} else {
				seen["invalidations of absent lines"]++
			}
			p.flat.Invalidate(addr)
			p.oracle.Invalidate(addr)
			p.check(t, op, "invalidate", addr)
			continue
		}
		read := rng.Intn(2) == 0
		got, want := p.flat.Access(addr, read), p.oracle.Access(addr, read)
		if got != want {
			t.Fatalf("op %d (access %#x read=%v): miss %v, oracle %v", op, addr, read, got, want)
		}
		if got {
			seen["misses"]++
		} else {
			seen["hits"]++
		}
		p.check(t, op, "access", addr)
	}
	seen["writebacks"] += p.flat.Stats().Writebacks
	seen["evictions"] += p.flatRec.Counter(MetricEvictions).Value()
}

// TestFlatCachesMatchOracles holds the flat LRU and SetAssoc to the
// map-based caches they replaced (oracle_test.go): the same seeded stream
// of reads, writes and invalidations, with a statistics reset midway, must
// give the same hit or miss for every access and the same statistics
// (writebacks included), resident count, residency of the touched line
// and eviction total after every operation. Address ranges of 64 B, 1 KB
// and 1 MB of 8-byte lines keep the caches respectively oversized, near
// their capacity and thrashing; a 1-byte-line case runs at the top of the
// address space, where line 2^64−1 must be an ordinary line. A one-set
// SetAssoc is also held to the flat LRU of the same capacity, on every
// outcome and every statistic, so the two caches replace and count
// writebacks by one rule.
func TestFlatCachesMatchOracles(t *testing.T) {
	geometries := []struct {
		name         string
		lines, assoc int // assoc 0 is the fully associative LRU
	}{
		{"lru-1", 1, 0},
		{"lru-7", 7, 0},
		{"lru-512", 512, 0},
		{"direct-mapped-64", 64, 1},
		{"4-way-64", 64, 4},
		{"one-set-8", 8, 8},
	}
	ops := 20000
	if testing.Short() {
		ops = 5000
	}
	seen := make(map[string]uint64)
	for _, g := range geometries {
		for i, span := range []uint64{64, 1 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%s/%dB", g.name, span), func(t *testing.T) {
				p := newStressPair(t, g.lines, g.assoc, 8)
				stress(t, p, int64(100+i), ops, 0, span, seen)
				if span > 1<<10 {
					return
				}
				for addr := uint64(0); addr < span; addr += 8 {
					if got, want := p.flat.Contains(addr), p.oracle.Contains(addr); got != want {
						t.Fatalf("after the stream: Contains(%#x) = %v, oracle %v", addr, got, want)
					}
				}
			})
		}
		t.Run(g.name+"/top-line", func(t *testing.T) {
			p := newStressPair(t, g.lines, g.assoc, 1)
			stress(t, p, 7, ops, math.MaxUint64-63, 64, seen)
			if got, want := p.flat.Access(math.MaxUint64, false), p.oracle.Access(math.MaxUint64, false); got != want {
				t.Fatalf("access to line 2^64-1: miss %v, oracle %v", got, want)
			}
			p.check(t, ops, "access", math.MaxUint64)
			if !p.flat.Contains(math.MaxUint64) {
				t.Fatal("line 2^64-1 is not resident after an access")
			}
		})
	}
	for i, span := range []uint64{64, 1 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("one-set-vs-lru-8/%dB", span), func(t *testing.T) {
			p := stressPair{
				flat: MustSetAssoc(8, 8, 8), oracle: MustLRU(8, 8),
				flatRec: obs.New(), oracleRec: obs.New(),
			}
			p.flat.Instrument(p.flatRec)
			p.oracle.Instrument(p.oracleRec)
			stress(t, p, int64(200+i), ops, 0, span, seen)
		})
	}
	for _, outcome := range []string{
		"hits", "misses", "invalidations of resident lines",
		"invalidations of absent lines", "writebacks", "evictions",
	} {
		if seen[outcome] == 0 {
			t.Errorf("the streams produced no %s; the comparison would not cover them", outcome)
		}
	}
}
