package cache

import (
	"fmt"

	"wsstudy/internal/obs"
)

// SetAssoc is a set-associative cache with LRU replacement within each set.
// Assoc=1 gives a direct-mapped cache, which Section 6.4 of the paper uses
// to show the Barnes-Hut working set needs roughly 3x the fully associative
// capacity. A miss caused by eviction is classified as ConflictMiss when a
// same-capacity fully associative cache would have hit (approximated by the
// line still being within the last `capacity` distinct lines — we use the
// simpler and standard convention: eviction from a non-full *cache* is a
// conflict; eviction when total occupancy equals capacity is capacity).
type SetAssoc struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	sets     int
	assoc    int

	ways        [][]setWay // per set, LRU-ordered slice, most recent first
	occupied    int
	seen        map[uint64]struct{}
	invalidated map[uint64]struct{}

	stats Stats

	// Run-scope capacity/conflict-eviction counter, live only after
	// Instrument.
	mEvictions *obs.Counter
}

type setWay struct {
	line  uint64
	valid bool
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
	ways := make([][]setWay, sets)
	for i := range ways {
		ways[i] = make([]setWay, 0, assoc)
	}
	return &SetAssoc{
		lineSize:    lineSize,
		shift:       lineShift(lineSize),
		sets:        sets,
		assoc:       assoc,
		ways:        ways,
		seen:        make(map[uint64]struct{}),
		invalidated: make(map[uint64]struct{}),
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

func (c *SetAssoc) setIndex(line uint64) int {
	return int(line & uint64(c.sets-1))
}

// Access touches the line containing addr and returns the outcome.
func (c *SetAssoc) Access(addr uint64, read bool) AccessResult {
	res := c.touch(addr >> c.shift)
	c.stats.Record(read, res)
	return res
}

func (c *SetAssoc) touch(line uint64) AccessResult {
	si := c.setIndex(line)
	set := c.ways[si]
	for i := range set {
		if set[i].valid && set[i].line == line {
			// Move to front (LRU position 0).
			w := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = w
			return Hit
		}
	}
	var res AccessResult
	if _, inv := c.invalidated[line]; inv {
		res = CoherenceMiss
		delete(c.invalidated, line)
	} else if _, ok := c.seen[line]; ok {
		// Evicted since last use. If the whole cache was full we call it
		// capacity; otherwise the set filled while the cache had room, a
		// pure conflict.
		if c.occupied >= c.sets*c.assoc {
			res = CapacityMiss
		} else {
			res = ConflictMiss
		}
	} else {
		res = ColdMiss
		c.seen[line] = struct{}{}
	}
	// Insert at LRU position 0, evicting the last way if the set is full.
	if len(set) < c.assoc {
		set = append(set, setWay{})
		c.occupied++
	} else {
		c.mEvictions.Inc()
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = setWay{line: line, valid: true}
	c.ways[si] = set
	return res
}

// Invalidate removes the line containing addr if resident and marks its next
// access as a coherence miss.
func (c *SetAssoc) Invalidate(addr uint64) {
	line := addr >> c.shift
	si := c.setIndex(line)
	set := c.ways[si]
	for i := range set {
		if set[i].valid && set[i].line == line {
			copy(set[i:], set[i+1:])
			set = set[:len(set)-1]
			c.ways[si] = set
			c.occupied--
			break
		}
	}
	if _, ok := c.seen[line]; ok {
		c.invalidated[line] = struct{}{}
	}
}

// Stats returns the accumulated statistics.
func (c *SetAssoc) Stats() Stats { return c.stats }

// ResetStats clears counters, keeping contents (cold-start exclusion).
func (c *SetAssoc) ResetStats() { c.stats = Stats{} }

var _ Cache = (*SetAssoc)(nil)
