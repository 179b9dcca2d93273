// Package cache provides the cache simulators used to measure working sets.
//
// The paper measures working sets with fully associative LRU caches, sweeping
// capacity and looking for knees in the miss-rate-versus-size curve. Running
// one simulation per candidate size is wasteful: LRU obeys Mattson's
// inclusion property, so a single pass that records the reuse (stack)
// distance of every reference yields the exact miss count for every capacity
// at once. StackProfiler implements that; LRU and SetAssoc provide concrete
// per-size simulators (SetAssoc with Assoc=1 is a direct-mapped cache, used
// for the paper's Section 6.4 comparison).
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrInvalidConfig is wrapped by every input-validation error this package
// returns, so callers can classify bad-configuration failures with
// errors.Is regardless of which constructor rejected the input.
var ErrInvalidConfig = errors.New("cache: invalid configuration")

// validateLineSize rejects line sizes that are zero or not a power of two.
// Constructors call it so that the internal lineShift panic stays an
// invariant rather than a reachable input-validation failure.
func validateLineSize(lineSize uint32) error {
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		return fmt.Errorf("%w: line size %d is not a power of two", ErrInvalidConfig, lineSize)
	}
	return nil
}

// Line computes the cache line index of a byte address for a given line size.
// lineSize must be a power of two.
func Line(addr uint64, lineSize uint32) uint64 {
	return addr >> lineShift(lineSize)
}

// lineShift returns log2(lineSize). It panics on an invalid line size;
// constructors validate with validateLineSize first and store the shift,
// so reaching the panic means an internal invariant broke, not bad user
// input.
func lineShift(lineSize uint32) uint {
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", lineSize))
	}
	return uint(bits.TrailingZeros32(lineSize))
}

// LinesSpanned reports how many lines the byte range [addr, addr+size)
// touches.
func LinesSpanned(addr uint64, size, lineSize uint32) int {
	if size == 0 {
		return 0
	}
	first := Line(addr, lineSize)
	last := Line(addr+uint64(size)-1, lineSize)
	return int(last - first + 1)
}

// Stats accumulates access counts split by read/write.
type Stats struct {
	Accesses    uint64
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	// Writebacks counts dirty lines written back to memory on eviction
	// or invalidation — the write-traffic side of the paper's Section 1
	// bus-pressure argument (misses are the read side).
	Writebacks uint64
}

// Record folds one access outcome into the stats.
func (s *Stats) Record(read, miss bool) {
	s.Accesses++
	if read {
		s.Reads++
		if miss {
			s.ReadMisses++
		}
	} else {
		s.Writes++
		if miss {
			s.WriteMisses++
		}
	}
}

// Misses reports the total miss count.
func (s *Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// ReadMissRate reports read misses over read accesses (the metric the paper
// uses for Barnes-Hut and volume rendering). Zero reads yields zero.
func (s *Stats) ReadMissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(s.Reads)
}

// MissRate reports total misses over total accesses. Zero accesses yields
// zero.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadMisses += other.ReadMisses
	s.WriteMisses += other.WriteMisses
	s.Writebacks += other.Writebacks
}

// Cache is the interface shared by the concrete simulators.
type Cache interface {
	// Access touches one line-aligned address and reports whether it
	// missed. read distinguishes loads from stores for the statistics.
	Access(addr uint64, read bool) (miss bool)
	// Invalidate removes the line containing addr, if present.
	Invalidate(addr uint64)
	// Stats returns the accumulated statistics.
	Stats() Stats
	// ResetStats clears counters but keeps cache contents, which is how
	// cold-start exclusion works: warm up, reset, then measure.
	ResetStats()
}

// New builds a concrete cache of capacityLines lines: fully associative
// LRU when assoc is 0, otherwise assoc-way set associative (1 is
// direct-mapped). Invalid geometries return an error wrapping
// ErrInvalidConfig.
func New(capacityLines, assoc int, lineSize uint32) (Cache, error) {
	if assoc == 0 {
		c, err := NewLRU(capacityLines, lineSize)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	c, err := NewSetAssoc(capacityLines, assoc, lineSize)
	if err != nil {
		return nil, err
	}
	return c, nil
}
