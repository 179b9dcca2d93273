package cache

// Infinite is an unbounded cache: its only misses are cold misses and
// coherence misses. The paper uses infinite caches to isolate the inherent
// communication miss rate, the asymptote every working-set curve flattens to.
type Infinite struct {
	shift       uint // log2 of the line size
	resident    map[uint64]struct{}
	invalidated map[uint64]struct{}
	stats       Stats
}

// NewInfinite builds an infinite cache with the given line size.
func NewInfinite(lineSize uint32) *Infinite {
	return &Infinite{
		shift:       lineShift(lineSize),
		resident:    make(map[uint64]struct{}),
		invalidated: make(map[uint64]struct{}),
	}
}

// Access touches the line containing addr.
func (c *Infinite) Access(addr uint64, read bool) AccessResult {
	line := addr >> c.shift
	var res AccessResult
	if _, ok := c.resident[line]; ok {
		res = Hit
	} else if _, inv := c.invalidated[line]; inv {
		res = CoherenceMiss
		delete(c.invalidated, line)
	} else {
		res = ColdMiss
	}
	c.resident[line] = struct{}{}
	c.stats.Record(read, res)
	return res
}

// Invalidate removes the line containing addr.
func (c *Infinite) Invalidate(addr uint64) {
	line := addr >> c.shift
	if _, ok := c.resident[line]; ok {
		delete(c.resident, line)
		c.invalidated[line] = struct{}{}
	}
}

// Stats returns the accumulated statistics.
func (c *Infinite) Stats() Stats { return c.stats }

// ResetStats clears counters, keeping contents.
func (c *Infinite) ResetStats() { c.stats = Stats{} }

var _ Cache = (*Infinite)(nil)
