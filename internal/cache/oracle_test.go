package cache

import (
	"fmt"

	"wsstudy/internal/obs"
)

// The concrete caches as they were before they moved to flat,
// pointer-free tables: a map entry and a heap node per resident line for
// the LRU, a slice per set for the set-associative cache, and two history
// maps each. Their simulation code is kept verbatim (types renamed, the
// unused constructors and accessors dropped) as the oracles
// TestFlatCachesMatchOracles holds the flat caches to. One rule was added
// since: the set-associative oracle counts writebacks the way the LRU
// always has, through a set of dirty resident lines.

// oracleLRU is an exact fully associative cache with least-recently-used
// replacement, the measurement instrument of the paper's Section 2.2.
// Capacity is expressed in lines; byte capacity is capacityLines*lineSize.
type oracleLRU struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	capacity int

	// Intrusive doubly linked list over table entries, most recent first.
	table map[uint64]*oracleNode
	head  *oracleNode // most recently used
	tail  *oracleNode // least recently used

	// invalidated remembers lines removed by coherence actions so the next
	// access can be classified as a coherence miss rather than cold.
	invalidated map[uint64]struct{}
	// seen remembers every line ever touched, to distinguish cold misses
	// from capacity misses after eviction.
	seen map[uint64]struct{}

	stats Stats

	// Run-scope capacity-eviction counter, live only after Instrument.
	mEvictions *obs.Counter
}

type oracleNode struct {
	line       uint64
	dirty      bool
	prev, next *oracleNode
}

// newOracleLRU builds a fully associative LRU cache holding capacityLines
// lines of lineSize bytes each. capacityLines must be positive and
// lineSize a power of two; violations return an error wrapping
// ErrInvalidConfig.
func newOracleLRU(capacityLines int, lineSize uint32) (*oracleLRU, error) {
	if capacityLines <= 0 {
		return nil, fmt.Errorf("%w: LRU capacity %d must be positive", ErrInvalidConfig, capacityLines)
	}
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	return &oracleLRU{
		lineSize:    lineSize,
		shift:       lineShift(lineSize),
		capacity:    capacityLines,
		table:       make(map[uint64]*oracleNode, capacityLines+1),
		invalidated: make(map[uint64]struct{}),
		seen:        make(map[uint64]struct{}),
	}, nil
}

// Len reports the number of resident lines.
func (c *oracleLRU) Len() int { return len(c.table) }

// Access touches the line containing addr and returns the outcome.
// Writes mark the line dirty; its eventual eviction or invalidation
// counts as a writeback.
func (c *oracleLRU) Access(addr uint64, read bool) AccessResult {
	res := c.touch(addr>>c.shift, !read)
	c.stats.Record(read, res)
	return res
}

func (c *oracleLRU) touch(line uint64, dirty bool) AccessResult {
	if n, ok := c.table[line]; ok {
		c.moveToFront(n)
		n.dirty = n.dirty || dirty
		return Hit
	}
	var res AccessResult
	switch {
	case c.isInvalidated(line):
		res = CoherenceMiss
		delete(c.invalidated, line)
	case c.wasSeen(line):
		res = CapacityMiss
	default:
		res = ColdMiss
		c.seen[line] = struct{}{}
	}
	c.insert(line, dirty)
	return res
}

func (c *oracleLRU) isInvalidated(line uint64) bool {
	_, ok := c.invalidated[line]
	return ok
}

func (c *oracleLRU) wasSeen(line uint64) bool {
	_, ok := c.seen[line]
	return ok
}

func (c *oracleLRU) insert(line uint64, dirty bool) {
	n := &oracleNode{line: line, dirty: dirty}
	c.table[line] = n
	c.pushFront(n)
	if len(c.table) > c.capacity {
		c.evict(c.tail)
		c.mEvictions.Inc()
	}
}

func (c *oracleLRU) evict(n *oracleNode) {
	if n.dirty {
		c.stats.Writebacks++
	}
	c.unlink(n)
	delete(c.table, n.line)
}

func (c *oracleLRU) moveToFront(n *oracleNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *oracleLRU) pushFront(n *oracleNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *oracleLRU) unlink(n *oracleNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Invalidate removes the line containing addr, recording that its next
// access is a coherence miss. Invalidating an absent line still marks it:
// the remote write communicated fresh data either way.
func (c *oracleLRU) Invalidate(addr uint64) {
	line := addr >> c.shift
	if n, ok := c.table[line]; ok {
		c.evict(n)
	}
	if c.wasSeen(line) {
		c.invalidated[line] = struct{}{}
	}
}

// Contains reports whether the line holding addr is resident.
func (c *oracleLRU) Contains(addr uint64) bool {
	_, ok := c.table[addr>>c.shift]
	return ok
}

// Stats returns the accumulated statistics.
func (c *oracleLRU) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents and history,
// implementing the paper's cold-start exclusion.
func (c *oracleLRU) ResetStats() { c.stats = Stats{} }

// Instrument attaches a run-scope eviction counter from rec.
func (c *oracleLRU) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Counter(MetricEvictions)
}

// oracleSetAssoc is a set-associative cache with LRU replacement within
// each set. A re-miss is a capacity miss when the cache is full, and a
// conflict miss otherwise. A write marks its line dirty, and evicting or
// invalidating a dirty line counts one writeback.
type oracleSetAssoc struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	sets     int
	assoc    int

	ways        [][]oracleWay // per set, LRU-ordered slice, most recent first
	occupied    int
	seen        map[uint64]struct{}
	invalidated map[uint64]struct{}
	dirty       map[uint64]struct{} // resident lines written since filled

	stats Stats

	// Run-scope capacity/conflict-eviction counter, live only after
	// Instrument.
	mEvictions *obs.Counter
}

type oracleWay struct {
	line  uint64
	valid bool
}

// newOracleSetAssoc builds a cache with the given total capacity in lines,
// associativity and line size. capacityLines must be a positive multiple
// of assoc; the set count is capacityLines/assoc and must be a power of
// two. Violations return an error wrapping ErrInvalidConfig.
func newOracleSetAssoc(capacityLines, assoc int, lineSize uint32) (*oracleSetAssoc, error) {
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
	ways := make([][]oracleWay, sets)
	for i := range ways {
		ways[i] = make([]oracleWay, 0, assoc)
	}
	return &oracleSetAssoc{
		lineSize:    lineSize,
		shift:       lineShift(lineSize),
		sets:        sets,
		assoc:       assoc,
		ways:        ways,
		seen:        make(map[uint64]struct{}),
		invalidated: make(map[uint64]struct{}),
		dirty:       make(map[uint64]struct{}),
	}, nil
}

// clean drops line from the dirty set, counting a writeback if it was
// there.
func (c *oracleSetAssoc) clean(line uint64) {
	if _, ok := c.dirty[line]; ok {
		c.stats.Writebacks++
		delete(c.dirty, line)
	}
}

func (c *oracleSetAssoc) setIndex(line uint64) int {
	return int(line & uint64(c.sets-1))
}

// Access touches the line containing addr and returns the outcome.
func (c *oracleSetAssoc) Access(addr uint64, read bool) AccessResult {
	line := addr >> c.shift
	res := c.touch(line)
	if !read {
		c.dirty[line] = struct{}{}
	}
	c.stats.Record(read, res)
	return res
}

func (c *oracleSetAssoc) touch(line uint64) AccessResult {
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
		set = append(set, oracleWay{})
		c.occupied++
	} else {
		c.mEvictions.Inc()
		c.clean(set[len(set)-1].line)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = oracleWay{line: line, valid: true}
	c.ways[si] = set
	return res
}

// Invalidate removes the line containing addr if resident and marks its next
// access as a coherence miss.
func (c *oracleSetAssoc) Invalidate(addr uint64) {
	line := addr >> c.shift
	si := c.setIndex(line)
	set := c.ways[si]
	for i := range set {
		if set[i].valid && set[i].line == line {
			c.clean(line)
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
func (c *oracleSetAssoc) Stats() Stats { return c.stats }

// ResetStats clears counters, keeping contents (cold-start exclusion).
func (c *oracleSetAssoc) ResetStats() { c.stats = Stats{} }

// Instrument attaches a run-scope eviction counter from rec.
func (c *oracleSetAssoc) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Counter(MetricEvictions)
}

// Len and Contains were never part of the set-associative cache; the
// stress test reads the oracle's residency through these two, which only
// look at its ways.

// Len reports the number of resident lines.
func (c *oracleSetAssoc) Len() int { return c.occupied }

// Contains reports whether the line holding addr is resident.
func (c *oracleSetAssoc) Contains(addr uint64) bool {
	line := addr >> c.shift
	for _, w := range c.ways[c.setIndex(line)] {
		if w.valid && w.line == line {
			return true
		}
	}
	return false
}
