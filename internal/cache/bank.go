package cache

import "fmt"

// Bank runs one exact LRU simulation per candidate capacity, sharing a
// single access stream. It is the slow-but-exact counterpart of
// StackProfiler: under coherence invalidations LRU caches of different
// sizes fill freed slots at different times, which breaks the single-valued
// stack-distance property (no one-pass algorithm can be exact), so
// experiments that need exact per-size miss counts in the presence of
// communication use a Bank. Without invalidations the two agree bit-exactly;
// the ablation benchmark quantifies the cost difference.
type Bank struct {
	caches []*LRU
	shift  uint // log2 of the shared line size
}

// NewBank builds LRU caches at each capacity (in lines), which must be
// positive and sorted strictly ascending. Violations return an error
// wrapping ErrInvalidConfig.
func NewBank(capacitiesLines []int, lineSize uint32) (*Bank, error) {
	if len(capacitiesLines) == 0 {
		return nil, fmt.Errorf("%w: Bank needs at least one capacity", ErrInvalidConfig)
	}
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	b := &Bank{caches: make([]*LRU, len(capacitiesLines)), shift: lineShift(lineSize)}
	prev := 0
	for i, c := range capacitiesLines {
		if c <= prev {
			return nil, fmt.Errorf("%w: Bank capacities must be positive and strictly ascending (got %v)",
				ErrInvalidConfig, capacitiesLines)
		}
		prev = c
		b.caches[i] = MustLRU(c, lineSize)
	}
	return b, nil
}

// MustBank is NewBank for statically-valid configurations; it panics on
// error.
func MustBank(capacitiesLines []int, lineSize uint32) *Bank {
	b, err := NewBank(capacitiesLines, lineSize)
	if err != nil {
		panic(err)
	}
	return b
}

// Access touches the byte range in every member cache.
func (b *Bank) Access(addr uint64, size uint32, read bool) {
	if size == 0 {
		return
	}
	first := addr >> b.shift
	last := (addr + uint64(size) - 1) >> b.shift
	for line := first; ; line++ {
		a := line << b.shift
		for _, c := range b.caches {
			c.Access(a, read)
		}
		if line == last {
			break
		}
	}
}

// Invalidate removes the line containing addr from every member cache.
func (b *Bank) Invalidate(addr uint64) {
	for _, c := range b.caches {
		c.Invalidate(addr)
	}
}

// SetMeasuring implements cold-start exclusion: turning measurement on
// resets all counters while keeping contents.
func (b *Bank) SetMeasuring(on bool) {
	if on {
		for _, c := range b.caches {
			c.ResetStats()
		}
	}
}

// Curve reports the exact miss counts at every member capacity.
func (b *Bank) Curve() []MissCount {
	out := make([]MissCount, len(b.caches))
	for i, c := range b.caches {
		s := c.Stats()
		out[i] = MissCount{
			CapacityLines: int(c.CapacityBytes() / uint64(c.LineSize())),
			ReadMisses:    s.ReadMisses,
			WriteMisses:   s.WriteMisses,
		}
	}
	return out
}

// Stats returns the statistics of the cache at index i.
func (b *Bank) Stats(i int) Stats { return b.caches[i].Stats() }

// Capacities reports the member capacities in lines.
func (b *Bank) Capacities() []int {
	out := make([]int, len(b.caches))
	for i, c := range b.caches {
		out[i] = int(c.CapacityBytes() / uint64(c.LineSize()))
	}
	return out
}
