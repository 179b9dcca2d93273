package cache

import (
	"fmt"

	"wsstudy/internal/obs"
)

// The concrete caches as they were before they moved to flat,
// pointer-free tables: a map entry and a heap node per resident line for
// the LRU, and a slice per set for the set-associative cache. Their
// simulation code is kept verbatim (types renamed, the unused
// constructors and accessors dropped) as the oracles
// TestFlatCachesMatchOracles holds the flat caches to. Two rules changed
// since: the set-associative oracle counts writebacks the way the LRU
// always has, through a set of dirty resident lines, and both report an
// access as hit or miss, without the history maps that once labelled
// each miss cold, capacity, conflict or coherence.

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
		lineSize: lineSize,
		shift:    lineShift(lineSize),
		capacity: capacityLines,
		table:    make(map[uint64]*oracleNode, capacityLines+1),
	}, nil
}

// Len reports the number of resident lines.
func (c *oracleLRU) Len() int { return len(c.table) }

// Access touches the line containing addr and reports whether it missed.
// Writes mark the line dirty; its eventual eviction or invalidation
// counts as a writeback.
func (c *oracleLRU) Access(addr uint64, read bool) bool {
	miss := c.touch(addr>>c.shift, !read)
	c.stats.Record(read, miss)
	return miss
}

func (c *oracleLRU) touch(line uint64, dirty bool) (miss bool) {
	if n, ok := c.table[line]; ok {
		c.moveToFront(n)
		n.dirty = n.dirty || dirty
		return false
	}
	c.insert(line, dirty)
	return true
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

// Invalidate removes the line containing addr if it is resident.
func (c *oracleLRU) Invalidate(addr uint64) {
	if n, ok := c.table[addr>>c.shift]; ok {
		c.evict(n)
	}
}

// Contains reports whether the line holding addr is resident.
func (c *oracleLRU) Contains(addr uint64) bool {
	_, ok := c.table[addr>>c.shift]
	return ok
}

// Stats returns the accumulated statistics.
func (c *oracleLRU) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents, implementing
// the paper's cold-start exclusion.
func (c *oracleLRU) ResetStats() { c.stats = Stats{} }

// Instrument attaches a run-scope eviction counter from rec.
func (c *oracleLRU) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Counter(MetricEvictions)
}

// oracleSetAssoc is a set-associative cache with LRU replacement within
// each set. A write marks its line dirty, and evicting or invalidating a
// dirty line counts one writeback.
type oracleSetAssoc struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	sets     int
	assoc    int

	ways     [][]oracleWay // per set, LRU-ordered slice, most recent first
	occupied int
	dirty    map[uint64]struct{} // resident lines written since filled

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
		lineSize: lineSize,
		shift:    lineShift(lineSize),
		sets:     sets,
		assoc:    assoc,
		ways:     ways,
		dirty:    make(map[uint64]struct{}),
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

// Access touches the line containing addr and reports whether it missed.
func (c *oracleSetAssoc) Access(addr uint64, read bool) bool {
	line := addr >> c.shift
	miss := c.touch(line)
	if !read {
		c.dirty[line] = struct{}{}
	}
	c.stats.Record(read, miss)
	return miss
}

func (c *oracleSetAssoc) touch(line uint64) (miss bool) {
	si := c.setIndex(line)
	set := c.ways[si]
	for i := range set {
		if set[i].valid && set[i].line == line {
			// Move to front (LRU position 0).
			w := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = w
			return false
		}
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
	return true
}

// Invalidate removes the line containing addr if resident.
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
