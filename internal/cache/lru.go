package cache

import (
	"fmt"

	"wsstudy/internal/obs"
)

// LRU is an exact fully associative cache with least-recently-used
// replacement, the measurement instrument of the paper's Section 2.2.
// Capacity is expressed in lines; byte capacity is capacityLines*lineSize.
//
// A hit touches only plain, pointer-free memory: resident lines live in a
// slot array linked into a recency list by int32 indexes, and an
// open-addressing index finds a line's slot. An insert allocates no heap
// node, and the garbage collector never scans either table. The cache
// keeps nothing about lines it no longer holds, so its footprint is
// fixed by its capacity, however many lines the stream touches.
type LRU struct {
	lineSize uint32
	shift    uint // log2(lineSize)
	capacity int

	// slots[0] is the sentinel of a circular, doubly linked recency list
	// over the resident lines: slots[0].next is the most recently used,
	// slots[0].prev the least. free holds the slots that invalidations
	// and evictions released, for the next insert.
	slots []lruSlot
	free  []int32
	n     int // resident lines

	// index is a linear-probing hash table of resident lines' slot
	// numbers (0 is an empty entry), deleted from by backward shift so no
	// tombstones build up. Its length, 1<<bits, starts at 16 and doubles
	// whenever an insert would fill it past half, so a full cache's index
	// holds at least 2×capacity entries while one that never fills stays
	// small.
	index []int32
	bits  uint

	stats Stats

	// evictions counts capacity evictions over the run; published is
	// the part already added to mEvictions, which is live only after
	// Instrument.
	evictions, published uint64
	mEvictions           *obs.Counter
}

type lruSlot struct {
	line       uint64
	prev, next int32
	dirty      bool
}

// minIndexBits sizes a new cache's index: 16 entries, enough for 8 lines
// before the first doubling.
const minIndexBits = 4

// NewLRU builds a fully associative LRU cache holding capacityLines lines of
// lineSize bytes each. capacityLines must be positive and lineSize a power
// of two; violations return an error wrapping ErrInvalidConfig. Slot
// numbers are int32, so at most 2^31−2 lines can be resident at once.
func NewLRU(capacityLines int, lineSize uint32) (*LRU, error) {
	if capacityLines <= 0 {
		return nil, fmt.Errorf("%w: LRU capacity %d must be positive", ErrInvalidConfig, capacityLines)
	}
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	c := &LRU{
		lineSize: lineSize,
		shift:    lineShift(lineSize),
		capacity: capacityLines,
		slots:    make([]lruSlot, 1, min(capacityLines, 1<<minIndexBits)+1),
	}
	c.rehash(minIndexBits)
	return c, nil
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
func (c *LRU) Len() int { return c.n }

// Access touches the line containing addr and reports whether it missed.
// Writes mark the line dirty; its eventual eviction or invalidation
// counts as a writeback.
func (c *LRU) Access(addr uint64, read bool) bool {
	miss := c.touch(addr>>c.shift, !read)
	c.stats.Record(read, miss)
	return miss
}

func (c *LRU) touch(line uint64, dirty bool) (miss bool) {
	i := c.probe(line)
	if s := c.index[i]; s != 0 {
		if c.slots[0].next != s {
			c.unlink(s)
			c.pushFront(s)
		}
		if dirty {
			c.slots[s].dirty = true
		}
		return false
	}
	// Make room first: the victim is the least recently used line, the
	// same one inserting first and evicting the overflow would pick.
	// Either change moves index entries, so line is probed again.
	switch {
	case c.n == c.capacity:
		c.remove(c.probe(c.slots[c.slots[0].prev].line))
		c.evictions++
		i = c.probe(line)
	case 2*(c.n+1) > len(c.index):
		c.rehash(c.bits + 1)
		i = c.probe(line)
	}
	var s int32
	if k := len(c.free); k > 0 {
		s = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		s = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot{})
	}
	c.slots[s] = lruSlot{line: line, dirty: dirty}
	c.pushFront(s)
	c.index[i] = s
	c.n++
	return true
}

// home is line's first index position: the top bits of a Fibonacci hash,
// so strided line numbers spread over the table.
func (c *LRU) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> (64 - c.bits)
}

// probe returns the index position holding line's slot, or the empty
// position where line would be entered.
func (c *LRU) probe(line uint64) uint64 {
	mask := uint64(len(c.index) - 1)
	for i := c.home(line); ; i = (i + 1) & mask {
		if s := c.index[i]; s == 0 || c.slots[s].line == line {
			return i
		}
	}
}

// rehash rebuilds the index at 1<<bits entries over the resident lines.
func (c *LRU) rehash(bits uint) {
	c.bits = bits
	c.index = make([]int32, 1<<bits)
	for s := c.slots[0].next; s != 0; s = c.slots[s].next {
		c.index[c.probe(c.slots[s].line)] = s
	}
}

// remove drops the resident line whose index entry is at i, counting a
// writeback if it is dirty, and frees its slot.
func (c *LRU) remove(i uint64) {
	s := c.index[i]
	if c.slots[s].dirty {
		c.stats.Writebacks++
	}
	c.unlink(s)
	c.free = append(c.free, s)
	c.n--
	// Backward shift: walk the cluster after i, moving back into the hole
	// every entry whose home does not lie cyclically in (hole, j], so
	// every remaining line stays reachable from its home.
	mask := uint64(len(c.index) - 1)
	for j := i; ; {
		j = (j + 1) & mask
		e := c.index[j]
		if e == 0 {
			break
		}
		if (j-c.home(c.slots[e].line))&mask >= (j-i)&mask {
			c.index[i] = e
			i = j
		}
	}
	c.index[i] = 0
}

func (c *LRU) pushFront(s int32) {
	head := c.slots[0].next
	c.slots[s].prev, c.slots[s].next = 0, head
	c.slots[head].prev = s
	c.slots[0].next = s
}

func (c *LRU) unlink(s int32) {
	prev, next := c.slots[s].prev, c.slots[s].next
	c.slots[prev].next = next
	c.slots[next].prev = prev
}

// Invalidate removes the line containing addr if it is resident,
// counting a writeback if it is dirty.
func (c *LRU) Invalidate(addr uint64) {
	if i := c.probe(addr >> c.shift); c.index[i] != 0 {
		c.remove(i)
	}
}

// Contains reports whether the line holding addr is resident.
func (c *LRU) Contains(addr uint64) bool {
	return c.index[c.probe(addr>>c.shift)] != 0
}

// Stats returns the accumulated statistics.
func (c *LRU) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents, implementing
// the paper's cold-start exclusion.
func (c *LRU) ResetStats() { c.stats = Stats{} }

var _ Cache = (*LRU)(nil)
