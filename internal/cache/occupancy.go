package cache

import "math/bits"

// Occupancy index geometry: one bit per position, a count per block of
// 512 positions (8 words) and a count per superblock of 32,768
// positions (64 blocks).
const (
	blockBits = 512
	superBits = 1 << 15
)

// occupancy records which of positions 1..size are occupied, one bit
// each, and counts the occupied positions in a range from its top down.
// The stack profiler asks for the positions above a line's previous
// access, and most reuse is recent, so most counts read one or two words.
// At the profiler's 2^16-position minimum the index takes about 9 KB.
//
// Position p is bit p-1. blocks[b] and supers[s] hold the set bits of
// block b and superblock s; set and clear keep them in step.
type occupancy struct {
	size   int
	words  []uint64
	blocks []int32
	supers []int32
}

// fill re-dimensions the index to n positions, with positions 1..k
// occupied and the rest free, one word at a time on the existing storage
// when it is large enough. The profiler compacts every ~size references
// at steady state, so reuse keeps compaction from allocating.
func (x *occupancy) fill(n, k int) {
	x.size = n
	x.words = resize(x.words, (n+63)/64)
	x.blocks = resize(x.blocks, (n+blockBits-1)/blockBits)
	x.supers = resize(x.supers, (n+superBits-1)/superBits)
	for i := range x.words {
		switch ones := k - 64*i; {
		case ones >= 64:
			x.words[i] = ^uint64(0)
		case ones > 0:
			x.words[i] = 1<<ones - 1
		default:
			x.words[i] = 0
		}
	}
	for i := range x.blocks {
		x.blocks[i] = int32(min(max(k-blockBits*i, 0), blockBits))
	}
	for i := range x.supers {
		x.supers[i] = int32(min(max(k-superBits*i, 0), superBits))
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough; the caller overwrites every element.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// set marks free position p occupied. Positions are converted to
// unsigned bit numbers so that dividing by a block size is a plain shift.
func (x *occupancy) set(p int) {
	i := uint(p - 1)
	x.words[i>>6] |= 1 << (i & 63)
	x.blocks[i/blockBits]++
	x.supers[i/superBits]++
}

// clear marks occupied position p free.
func (x *occupancy) clear(p int) {
	i := uint(p - 1)
	x.words[i>>6] &^= 1 << (i & 63)
	x.blocks[i/blockBits]--
	x.supers[i/superBits]--
}

// count returns the number of occupied positions in (lo, hi], for
// 0 <= lo <= hi <= size. It counts from hi down: the partial word under
// hi, whole words to the block edge, blocks to the superblock edge,
// whole superblocks, and then blocks, words and the partial word above
// lo.
func (x *occupancy) count(lo, hi int) int {
	// Positions (lo, hi] are bits [l, h).
	l, h := uint(lo), uint(hi)
	c := 0
	if r := h & 63; r != 0 {
		w := x.words[h>>6] & (1<<r - 1)
		if h-r <= l {
			return bits.OnesCount64(w >> (l & 63))
		}
		c = bits.OnesCount64(w)
		h -= r
	}
	for h >= l+64 && h%blockBits != 0 {
		h -= 64
		c += bits.OnesCount64(x.words[h>>6])
	}
	for h >= l+blockBits && h%superBits != 0 {
		h -= blockBits
		c += int(x.blocks[h/blockBits])
	}
	for h >= l+superBits {
		h -= superBits
		c += int(x.supers[h/superBits])
	}
	for h >= l+blockBits {
		h -= blockBits
		c += int(x.blocks[h/blockBits])
	}
	for h >= l+64 {
		h -= 64
		c += bits.OnesCount64(x.words[h>>6])
	}
	if h > l {
		c += bits.OnesCount64(x.words[l>>6] >> (l & 63))
	}
	return c
}
