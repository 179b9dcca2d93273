package cache

import (
	"sort"

	"wsstudy/internal/linetab"
	"wsstudy/internal/obs"
)

// StackProfiler computes, in a single pass over a reference stream, the
// exact miss counts a fully associative LRU cache of *every* capacity would
// incur (Mattson's stack algorithm). The paper sweeps cache sizes to find
// working-set knees; with the profiler, one kernel run yields the entire
// miss-rate-versus-cache-size curve.
//
// For each access, the profiler computes the reuse (stack) distance: the
// number of stack positions above and including the line's previous access.
// An LRU cache of capacity C lines hits exactly when the distance is at most
// C. Every access takes the next trace position, and an occupancy index
// (one bit per position, see occupancy) counts the occupied positions
// above the line's previous one, from the top of the stack down.
//
// Coherence: Invalidate turns the line's stack position into a *hole*. The
// hole still occupies a position, and the next miss-insertion consumes the
// shallowest hole, mirroring the freed slot being filled without an
// eviction. The invalidated line's next access is a miss at every capacity
// (the paper's inherent communication misses) and is recorded separately
// from the distance histogram.
//
// Exactness: without invalidations the profiler matches per-size LRU
// simulation exactly between compactions (Mattson's theorem; the tests
// assert it). A compaction that lands on a hit leaves one phantom slot
// behind (see compact), which can add 1 to later stack distances until
// the next compaction. With invalidations, caches of different sizes
// fill freed slots at different times, so no single-pass stack algorithm
// can be exact; the hole model above can overstate the stack depth of
// lines that sit below a hole a small cache has already refilled. The
// error is bounded by the number of invalidations and is negligible at
// the communication rates of the paper's applications (0.1%-2%).
// Experiments needing exactness under heavy coherence traffic use Bank,
// the per-size simulation.
//
// Cold-start exclusion: references made before StartMeasuring update the
// LRU state but are not counted, mirroring the paper's practice of omitting
// the first iterations of iterative applications.
type StackProfiler struct {
	lineSize uint32
	shift    uint // log2(lineSize)

	// slots holds one entry per line: > 0 is the trace position of the
	// line's latest access (the line is resident), slotInvalidated marks a
	// line whose copy was invalidated, and 0 a line never seen. The index
	// never holds more than 2·(lines + holes) + 2 positions, so int32
	// positions cover 2^30 resident lines.
	slots    linetab.Table[int32]
	owner    []uint64 // owner[pos] is the line last given position pos; len clock+1
	resident int      // lines with a position
	holes    []int    // positions of invalidation holes, sorted ascending
	occ      occupancy
	clock    int // last used position

	measuring bool

	histRead            []uint64 // histRead[d] = read accesses at stack distance d
	histWrite           []uint64
	coldRead, coldWrite uint64
	cohRead, cohWrite   uint64
	reads, writes       uint64

	// accesses counts Access and AccessLine calls over the run, warm-up
	// included; published is the part already added to mAccesses. The
	// run-scope counters are live only after Instrument (see
	// instrument.go).
	accesses, published uint64
	mAccesses           *obs.Counter
	mQueries            *obs.Counter
}

const (
	initialPositions = 1 << 16
	slotInvalidated  = -1
)

// NewStackProfiler builds a profiler for the given line size (which must be
// a power of two; violations return an error wrapping ErrInvalidConfig).
// Measurement starts enabled; call SetMeasuring(false) first to warm up.
func NewStackProfiler(lineSize uint32) (*StackProfiler, error) {
	if err := validateLineSize(lineSize); err != nil {
		return nil, err
	}
	p := &StackProfiler{
		lineSize:  lineSize,
		shift:     lineShift(lineSize),
		owner:     make([]uint64, 1),
		measuring: true,
		histRead:  make([]uint64, 1),
		histWrite: make([]uint64, 1),
	}
	p.occ.fill(initialPositions, 0)
	return p, nil
}

// MustStackProfiler is NewStackProfiler for statically-valid line sizes; it
// panics on error.
func MustStackProfiler(lineSize uint32) *StackProfiler {
	p, err := NewStackProfiler(lineSize)
	if err != nil {
		panic(err)
	}
	return p
}

// LineSize reports the configured line size in bytes.
func (p *StackProfiler) LineSize() uint32 { return p.lineSize }

// SetMeasuring toggles statistics collection. State updates always happen.
func (p *StackProfiler) SetMeasuring(on bool) { p.measuring = on }

// Measuring reports whether statistics are being collected.
func (p *StackProfiler) Measuring() bool { return p.measuring }

// Access processes a reference to the byte range [addr, addr+size) and
// updates the distance histograms. Multi-line references touch each line.
func (p *StackProfiler) Access(addr uint64, size uint32, read bool) {
	if size == 0 {
		return
	}
	p.accesses++
	first := addr >> p.shift
	last := (addr + uint64(size) - 1) >> p.shift
	for line := first; ; line++ {
		p.touch(line, read)
		if line == last {
			break
		}
	}
}

// AccessLine processes a one-line reference to the line containing addr
// and reports whether it missed at every capacity (a cold or coherence
// miss), whether or not measurement is on.
func (p *StackProfiler) AccessLine(addr uint64, read bool) bool {
	p.accesses++
	return p.touch(addr>>p.shift, read)
}

// touch moves line to the top of the stack and reports whether it missed
// at every capacity.
func (p *StackProfiler) touch(line uint64, read bool) bool {
	if p.measuring {
		if read {
			p.reads++
		} else {
			p.writes++
		}
	}
	slot := p.slots.Ptr(line)
	miss := *slot <= 0
	if !miss {
		// Distance counts every occupied position (lines and holes) from
		// the line's slot to the top of the stack, inclusive.
		pos := int(*slot)
		d := p.occ.count(pos, p.clock) + 1
		if p.measuring {
			p.recordDistance(d, read)
		}
		p.occ.clear(pos)
	} else {
		// Miss at every capacity: classify, then fill the shallowest hole
		// (the free slot every affected cache has).
		if p.measuring {
			switch {
			case *slot == slotInvalidated && read:
				p.cohRead++
			case *slot == slotInvalidated:
				p.cohWrite++
			case read:
				p.coldRead++
			default:
				p.coldWrite++
			}
		}
		p.resident++
		p.consumeHole()
	}
	*slot = int32(p.advance(line))
	return miss
}

// consumeHole removes the most recent (highest-position, shallowest) hole.
func (p *StackProfiler) consumeHole() {
	n := len(p.holes)
	if n == 0 {
		return
	}
	pos := p.holes[n-1]
	p.holes = p.holes[:n-1]
	p.occ.clear(pos)
}

// advance gives line the next trace position, compacting when the index
// is full, and returns it.
func (p *StackProfiler) advance(line uint64) int {
	if p.clock >= p.occ.size {
		p.compact()
	}
	p.clock++
	p.owner = append(p.owner, line)
	p.occ.set(p.clock)
	return p.clock
}

// compact renumbers the occupied positions 1..n (lines and holes),
// preserving order, and resizes the index to the next power of two of at
// least 2n+2 positions (2^16 at least), so position space never exhausts.
// A position is occupied when it is a hole or its owner's slot still
// points at it, so one walk over owner renumbers the stack in place
// without a sort; the index and owner are reused across compactions (an
// AllocsPerRun test pins the reuse down).
//
// Phantom slot: a hit frees the line's old position in the index before
// advance gives it a new one, and advance may compact in between. The
// line's slot still names the old position then, so the walk renumbers
// it as occupied; advance then moves the line on, and the renumbered
// position stays occupied with no owner until the next compaction,
// adding 1 to the stack distance of every older line meanwhile. The
// reported figures depend on it, so it stays until they are re-recorded
// (TestCompactionPhantomSlot pins the counts).
func (p *StackProfiler) compact() {
	n, h := 0, 0
	for pos := 1; pos <= p.clock; pos++ {
		if h < len(p.holes) && p.holes[h] == pos {
			n++
			p.holes[h] = n
			h++
			continue
		}
		line := p.owner[pos]
		if slot := p.slots.Ptr(line); int(*slot) == pos {
			n++
			*slot = int32(n)
			p.owner[n] = line
		}
	}
	size := initialPositions
	for size < 2*n+2 {
		size *= 2
	}
	p.occ.fill(size, n)
	p.owner = p.owner[:n+1]
	p.clock = n
}

func (p *StackProfiler) recordDistance(d int, read bool) {
	h := &p.histRead
	if !read {
		h = &p.histWrite
	}
	for d >= len(*h) {
		*h = append(*h, make([]uint64, len(*h)+1)...)
	}
	(*h)[d]++
}

// Invalidate turns the line's stack position into a hole; its next access
// is a coherence miss at every capacity.
func (p *StackProfiler) Invalidate(addr uint64) {
	line := addr >> p.shift
	pos := int(p.slots.Get(line))
	if pos <= 0 {
		return
	}
	*p.slots.Ptr(line) = slotInvalidated
	p.resident--
	// Record the hole, keeping the slice sorted (holes are usually few).
	i := sort.SearchInts(p.holes, pos)
	p.holes = append(p.holes, 0)
	copy(p.holes[i+1:], p.holes[i:])
	p.holes[i] = pos
}

// DistinctLines reports how many distinct lines are currently on the stack.
func (p *StackProfiler) DistinctLines() int { return p.resident }

// Reads reports measured read accesses.
func (p *StackProfiler) Reads() uint64 { return p.reads }

// Writes reports measured write accesses.
func (p *StackProfiler) Writes() uint64 { return p.writes }

// Accesses reports measured reads plus writes.
func (p *StackProfiler) Accesses() uint64 { return p.reads + p.writes }

// ColdMisses reports measured cold misses (read, write).
func (p *StackProfiler) ColdMisses() (read, write uint64) {
	return p.coldRead, p.coldWrite
}

// CoherenceMisses reports measured coherence misses (read, write).
func (p *StackProfiler) CoherenceMisses() (read, write uint64) {
	return p.cohRead, p.cohWrite
}

// MissCount holds the misses a given capacity would incur.
type MissCount struct {
	CapacityLines int
	ReadMisses    uint64
	WriteMisses   uint64
}

// Misses reports total misses.
func (m MissCount) Misses() uint64 { return m.ReadMisses + m.WriteMisses }

// MissesAt returns the exact miss counts for a fully associative LRU cache
// of the given capacity in lines. Capacity 0 means every access misses.
func (p *StackProfiler) MissesAt(capacityLines int) MissCount {
	p.mQueries.Inc()
	mc := MissCount{CapacityLines: capacityLines}
	mc.ReadMisses = p.coldRead + p.cohRead + tailSum(p.histRead, capacityLines+1)
	mc.WriteMisses = p.coldWrite + p.cohWrite + tailSum(p.histWrite, capacityLines+1)
	return mc
}

func tailSum(h []uint64, from int) uint64 {
	var s uint64
	if from < 1 {
		from = 1
	}
	for d := from; d < len(h); d++ {
		s += h[d]
	}
	return s
}

// Curve returns miss counts for each capacity, computed in one sweep over
// the histograms. Unsorted capacities are sorted into a copy first, so the
// result is always ascending by capacity.
func (p *StackProfiler) Curve(capacitiesLines []int) []MissCount {
	p.mQueries.Add(uint64(len(capacitiesLines)))
	if !sort.IntsAreSorted(capacitiesLines) {
		sorted := make([]int, len(capacitiesLines))
		copy(sorted, capacitiesLines)
		sort.Ints(sorted)
		capacitiesLines = sorted
	}
	out := make([]MissCount, len(capacitiesLines))
	maxD := len(p.histRead)
	if len(p.histWrite) > maxD {
		maxD = len(p.histWrite)
	}
	// Suffix sums make each capacity O(1).
	sufR := suffixSums(p.histRead, maxD)
	sufW := suffixSums(p.histWrite, maxD)
	for i, c := range capacitiesLines {
		mc := MissCount{CapacityLines: c}
		mc.ReadMisses = p.coldRead + p.cohRead + at(sufR, c+1)
		mc.WriteMisses = p.coldWrite + p.cohWrite + at(sufW, c+1)
		out[i] = mc
	}
	return out
}

// suffixSums returns s where s[d] = sum of h[d:], sized maxD+1.
func suffixSums(h []uint64, maxD int) []uint64 {
	s := make([]uint64, maxD+1)
	for d := maxD - 1; d >= 1; d-- {
		v := uint64(0)
		if d < len(h) {
			v = h[d]
		}
		s[d] = s[d+1] + v
	}
	return s
}

func at(suf []uint64, d int) uint64 {
	if d >= len(suf) {
		return 0
	}
	if d < 1 {
		d = 1
	}
	return suf[d]
}
