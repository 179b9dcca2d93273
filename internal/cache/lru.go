package cache

import (
	"fmt"

	"wsstudy/internal/obs"
)

// LRU is an exact fully associative cache with least-recently-used
// replacement, the measurement instrument of the paper's Section 2.2.
// Capacity is expressed in lines; byte capacity is capacityLines*lineSize.
type LRU struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	capacity int

	// Intrusive doubly linked list over table entries, most recent first.
	table map[uint64]*lruNode
	head  *lruNode // most recently used
	tail  *lruNode // least recently used

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

type lruNode struct {
	line       uint64
	dirty      bool
	prev, next *lruNode
}

// NewLRU builds a fully associative LRU cache holding capacityLines lines of
// lineSize bytes each. capacityLines must be positive and lineSize a power
// of two; violations return an error wrapping ErrInvalidConfig.
func NewLRU(capacityLines int, lineSize uint32) (*LRU, error) {
	if capacityLines <= 0 {
		return nil, fmt.Errorf("%w: LRU capacity %d must be positive", ErrInvalidConfig, capacityLines)
	}
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	return &LRU{
		lineSize:    lineSize,
		shift:       lineShift(lineSize),
		capacity:    capacityLines,
		table:       make(map[uint64]*lruNode, capacityLines+1),
		invalidated: make(map[uint64]struct{}),
		seen:        make(map[uint64]struct{}),
	}, nil
}

// MustLRU is NewLRU for statically-valid configurations; it panics on error.
func MustLRU(capacityLines int, lineSize uint32) *LRU {
	c, err := NewLRU(capacityLines, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// LineSize reports the configured line size in bytes.
func (c *LRU) LineSize() uint32 { return c.lineSize }

// CapacityBytes reports the cache capacity in bytes.
func (c *LRU) CapacityBytes() uint64 {
	return uint64(c.capacity) * uint64(c.lineSize)
}

// Len reports the number of resident lines.
func (c *LRU) Len() int { return len(c.table) }

// Access touches the line containing addr and returns the outcome.
// Writes mark the line dirty; its eventual eviction or invalidation
// counts as a writeback.
func (c *LRU) Access(addr uint64, read bool) AccessResult {
	res := c.touch(addr>>c.shift, !read)
	c.stats.Record(read, res)
	return res
}

func (c *LRU) touch(line uint64, dirty bool) AccessResult {
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

func (c *LRU) isInvalidated(line uint64) bool {
	_, ok := c.invalidated[line]
	return ok
}

func (c *LRU) wasSeen(line uint64) bool {
	_, ok := c.seen[line]
	return ok
}

func (c *LRU) insert(line uint64, dirty bool) {
	n := &lruNode{line: line, dirty: dirty}
	c.table[line] = n
	c.pushFront(n)
	if len(c.table) > c.capacity {
		c.evict(c.tail)
		c.mEvictions.Inc()
	}
}

func (c *LRU) evict(n *lruNode) {
	if n.dirty {
		c.stats.Writebacks++
	}
	c.unlink(n)
	delete(c.table, n.line)
}

func (c *LRU) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *LRU) pushFront(n *lruNode) {
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

func (c *LRU) unlink(n *lruNode) {
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
func (c *LRU) Invalidate(addr uint64) {
	line := addr >> c.shift
	if n, ok := c.table[line]; ok {
		c.evict(n)
	}
	if c.wasSeen(line) {
		c.invalidated[line] = struct{}{}
	}
}

// Contains reports whether the line holding addr is resident.
func (c *LRU) Contains(addr uint64) bool {
	_, ok := c.table[addr>>c.shift]
	return ok
}

// Stats returns the accumulated statistics.
func (c *LRU) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents and history,
// implementing the paper's cold-start exclusion.
func (c *LRU) ResetStats() { c.stats = Stats{} }

var _ Cache = (*LRU)(nil)
