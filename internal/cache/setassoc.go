package cache

import (
	"fmt"

	"wsstudy/internal/obs"
)

// SetAssoc is a set-associative cache with LRU replacement within each set.
// Assoc=1 gives a direct-mapped cache, which Section 6.4 of the paper uses
// to show the Barnes-Hut working set needs roughly 3x the fully associative
// capacity.
//
// Writebacks follow LRU's rule: a write marks its line dirty, and evicting
// or invalidating a dirty line counts one writeback.
//
// All ways live in one flat slice, so a hit scans and reorders plain
// memory, and the cache keeps nothing about lines it no longer holds.
type SetAssoc struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	sets     int
	assoc    int

	// ways holds set s in ways[s*assoc:(s+1)*assoc], most recent first.
	// The set's valid ways are the prefix of length fill[s], so every
	// uint64 is a valid line number and no tag value is reserved. dirty
	// is laid out like ways and moves with it: dirty[k] reports whether
	// the line in ways[k] was written since it was filled.
	ways     []uint64
	dirty    []bool
	fill     []int32
	occupied int

	stats Stats

	// evictions counts capacity and conflict evictions over the run;
	// published is the part already added to mEvictions, which is live
	// only after Instrument.
	evictions, published uint64
	mEvictions           *obs.Counter
}

// NewSetAssoc builds a cache with the given total capacity in lines,
// associativity and line size. capacityLines must be a positive multiple of
// assoc; the set count is capacityLines/assoc and must be a power of two.
// Violations return an error wrapping ErrInvalidConfig.
func NewSetAssoc(capacityLines, assoc int, lineSize uint32) (*SetAssoc, error) {
	if capacityLines <= 0 || assoc <= 0 || capacityLines%assoc != 0 {
		return nil, fmt.Errorf("%w: SetAssoc capacity %d must be a positive multiple of associativity %d",
			ErrInvalidConfig, capacityLines, assoc)
	}
	sets := capacityLines / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("%w: SetAssoc set count %d must be a power of two", ErrInvalidConfig, sets)
	}
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	return &SetAssoc{
		lineSize: lineSize,
		shift:    lineShift(lineSize),
		sets:     sets,
		assoc:    assoc,
		ways:     make([]uint64, capacityLines),
		dirty:    make([]bool, capacityLines),
		fill:     make([]int32, sets),
	}, nil
}

// MustSetAssoc is NewSetAssoc for statically-valid configurations; it
// panics on error.
func MustSetAssoc(capacityLines, assoc int, lineSize uint32) *SetAssoc {
	c, err := NewSetAssoc(capacityLines, assoc, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// NewDirectMapped builds a direct-mapped cache (associativity 1).
func NewDirectMapped(capacityLines int, lineSize uint32) (*SetAssoc, error) {
	return NewSetAssoc(capacityLines, 1, lineSize)
}

// MustDirectMapped is NewDirectMapped for statically-valid configurations;
// it panics on error.
func MustDirectMapped(capacityLines int, lineSize uint32) *SetAssoc {
	return MustSetAssoc(capacityLines, 1, lineSize)
}

// CapacityBytes reports the capacity in bytes.
func (c *SetAssoc) CapacityBytes() uint64 {
	return uint64(c.sets) * uint64(c.assoc) * uint64(c.lineSize)
}

// Assoc reports the associativity.
func (c *SetAssoc) Assoc() int { return c.assoc }

// LineSize reports the configured line size in bytes.
func (c *SetAssoc) LineSize() uint32 { return c.lineSize }

// Len reports the number of resident lines.
func (c *SetAssoc) Len() int { return c.occupied }

// set returns line's set index, the position of its first way, and the
// set's valid ways, most recent first; their dirty flags start at the same
// position.
func (c *SetAssoc) set(line uint64) (si, base int, ways []uint64) {
	si = int(line & uint64(c.sets-1))
	base = si * c.assoc
	return si, base, c.ways[base : base+int(c.fill[si])]
}

// Access touches the line containing addr and reports whether it missed.
// Writes mark the line dirty; its eventual eviction or invalidation
// counts as a writeback.
func (c *SetAssoc) Access(addr uint64, read bool) bool {
	miss := c.touch(addr>>c.shift, !read)
	c.stats.Record(read, miss)
	return miss
}

func (c *SetAssoc) touch(line uint64, write bool) (miss bool) {
	si, base, set := c.set(line)
	for i, l := range set {
		if l == line {
			// A read of the most recent way changes nothing.
			if i == 0 && !write {
				return false
			}
			// Move to front (LRU position 0). Sets are a few ways wide,
			// where a loop beats a call to memmove.
			dirty := c.dirty[base : base+len(set)]
			d := dirty[i] || write
			for ; i > 0; i-- {
				set[i] = set[i-1]
				dirty[i] = dirty[i-1]
			}
			set[0], dirty[0] = line, d
			return false
		}
	}
	// Insert at LRU position 0, evicting the last way if the set is full.
	dirty := c.dirty[base : base+len(set)]
	if len(set) < c.assoc {
		c.fill[si]++
		c.occupied++
		set, dirty = set[:len(set)+1], dirty[:len(set)+1]
	} else {
		c.evictions++
		if dirty[len(dirty)-1] {
			c.stats.Writebacks++
		}
	}
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
		dirty[i] = dirty[i-1]
	}
	set[0], dirty[0] = line, write
	return true
}

// Invalidate removes the line containing addr if resident, counting a
// writeback if it is dirty.
func (c *SetAssoc) Invalidate(addr uint64) {
	line := addr >> c.shift
	si, base, set := c.set(line)
	for i, l := range set {
		if l == line {
			dirty := c.dirty[base : base+len(set)]
			if dirty[i] {
				c.stats.Writebacks++
			}
			copy(set[i:], set[i+1:])
			copy(dirty[i:], dirty[i+1:])
			c.fill[si]--
			c.occupied--
			return
		}
	}
}

// Contains reports whether the line holding addr is resident.
func (c *SetAssoc) Contains(addr uint64) bool {
	line := addr >> c.shift
	_, _, set := c.set(line)
	for _, l := range set {
		if l == line {
			return true
		}
	}
	return false
}

// Stats returns the accumulated statistics.
func (c *SetAssoc) Stats() Stats { return c.stats }

// ResetStats clears counters, keeping contents (cold-start exclusion).
func (c *SetAssoc) ResetStats() { c.stats = Stats{} }

var _ Cache = (*SetAssoc)(nil)
