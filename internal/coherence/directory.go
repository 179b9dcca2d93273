// Package coherence implements the write-invalidate directory protocol that
// makes the simulated machine a cache-coherent shared-address-space
// multiprocessor (the architecture of the paper's Section 2.2).
//
// The directory tracks, per cache line, which processors hold a copy and
// whether one holds it dirty. A write by one processor invalidates every
// other copy; the invalidations are what turn true sharing in the
// applications into the coherence (communication) misses the working-set
// curves flatten out at.
package coherence

import (
	"errors"
	"fmt"
	"math/bits"

	"wsstudy/internal/linetab"
	"wsstudy/internal/obs"
)

// ErrInvalidConfig is wrapped by every input-validation error this package
// returns, so callers can classify bad-configuration failures with
// errors.Is.
var ErrInvalidConfig = errors.New("coherence: invalid configuration")

// entry is one line's directory state in 16 pointer-free bytes, so a
// page of entries is never scanned by the garbage collector, and the zero
// entry (no sharers, clean) is the state of a line never touched. A line
// is Modified when owner is set; otherwise it is Shared by its sharers
// (possibly nobody).
//
// Most lines have one or two sharers at any instant (a producer and a
// consumer), so two sharers live inline. The third distinct sharer
// spills the set to a bit vector in the directory's side table, sized for
// the full processor count; at P=1024 an eager bit vector would cost
// 128 B per line before a single sharer existed.
type entry struct {
	s0, s1 uint32 // inline sharers as pe+1; 0 is an empty slot
	owner  uint32 // pe+1 of the processor holding the line modified; 0 is clean
	vec    uint32 // 1 + index of the spilled sharer vector; 0 while inline
}

// sharerVecs is the side table of spilled sharer bit vectors: vector id
// is words[(id-1)*stride : id*stride]. A write retakes its line's sharer
// set and releases the vector to free, which later spills reuse before
// the table grows.
type sharerVecs struct {
	stride int
	words  []uint64
	free   []uint32
}

func (v *sharerVecs) get(id uint32) []uint64 {
	i := int(id-1) * v.stride
	return v.words[i : i+v.stride : i+v.stride]
}

// alloc returns the id of a zeroed vector.
func (v *sharerVecs) alloc() uint32 {
	if n := len(v.free); n > 0 {
		id := v.free[n-1]
		v.free = v.free[:n-1]
		return id
	}
	v.words = append(v.words, make([]uint64, v.stride)...)
	return uint32(len(v.words) / v.stride)
}

func (v *sharerVecs) release(id uint32) {
	clear(v.get(id))
	v.free = append(v.free, id)
}

// Invalidator receives invalidation messages for a processor's cache.
// Both cache.LRU and cache.StackProfiler satisfy it.
type Invalidator interface {
	Invalidate(addr uint64)
}

// Stats counts protocol events.
type Stats struct {
	ReadRequests       uint64
	WriteRequests      uint64
	Invalidations      uint64 // individual cache copies invalidated
	InvalidatingWrites uint64 // writes that invalidated at least one copy
	Downgrades         uint64 // dirty copies demoted to shared by remote reads
}

// Directory is a full-map, write-invalidate directory over cache lines.
// It is deliberately protocol-level only: it tracks sharer sets and sends
// invalidations, leaving miss accounting to the per-processor caches and
// profilers.
// Its entries live in a paged line table (internal/linetab), so a
// transaction costs two slice indexes, not a hash probe and a heap
// object per line.
type Directory struct {
	lineSize uint32
	shift    uint // log2(lineSize), precomputed once
	lines    linetab.Table[entry]
	vecs     sharerVecs
	caches   []Invalidator
	stats    Stats

	// Run-scope transaction counters keyed by MSI state change, live only
	// after Instrument. The transactions are counted in stats alone;
	// Publish adds stats − pub to these counters, so the per-line path
	// makes no atomic add.
	pub          Stats
	mReads       *obs.Counter
	mWrites      *obs.Counter
	mInvals      *obs.Counter
	mInvalWrites *obs.Counter
	mDowngrades  *obs.Counter
}

// Metric names recorded by an instrumented Directory, one per MSI state
// change the protocol performs.
const (
	// MetricReads counts read transactions (requester joins the sharer
	// set: I->S, or S->S for additional sharers).
	MetricReads = "coherence.reads"
	// MetricWrites counts write transactions (requester takes the line
	// modified: I/S->M).
	MetricWrites = "coherence.writes"
	// MetricInvalidations counts individual remote copies invalidated
	// (S->I per copy).
	MetricInvalidations = "coherence.invalidations"
	// MetricInvalidatingWrites counts writes that invalidated at least
	// one remote copy.
	MetricInvalidatingWrites = "coherence.invalidating_writes"
	// MetricDowngrades counts dirty copies demoted by remote reads
	// (M->S).
	MetricDowngrades = "coherence.downgrades"
)

// Instrument attaches run-scope transaction counters from rec. A nil rec
// leaves the directory uninstrumented (the default, zero-cost mode). Only
// transactions after Instrument are published.
func (d *Directory) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	d.mReads = rec.Counter(MetricReads)
	d.mWrites = rec.Counter(MetricWrites)
	d.mInvals = rec.Counter(MetricInvalidations)
	d.mInvalWrites = rec.Counter(MetricInvalidatingWrites)
	d.mDowngrades = rec.Counter(MetricDowngrades)
	d.pub = d.stats
}

// Publish adds the protocol events counted since the last Publish to the
// run-scope counters. The owner of the directory calls it once per block
// of transactions and at its barriers (memsys does), so a live read of
// the counters lags the directory by at most one block; ResetStats
// publishes before it zeroes, so the counters stay run totals.
func (d *Directory) Publish() {
	publish(d.mReads, d.stats.ReadRequests, &d.pub.ReadRequests)
	publish(d.mWrites, d.stats.WriteRequests, &d.pub.WriteRequests)
	publish(d.mInvals, d.stats.Invalidations, &d.pub.Invalidations)
	publish(d.mInvalWrites, d.stats.InvalidatingWrites, &d.pub.InvalidatingWrites)
	publish(d.mDowngrades, d.stats.Downgrades, &d.pub.Downgrades)
}

// publish adds total's growth since *published to ctr.
func publish(ctr *obs.Counter, total uint64, published *uint64) {
	if n := total - *published; n != 0 {
		ctr.Add(n)
		*published = total
	}
}

// NewDirectory builds a directory for numPEs processors whose caches use
// the given line size (a power of two). caches[i] receives invalidations
// for processor i; entries may be nil (no cache attached, e.g. processors
// outside the measured set). Invalid configurations return an error
// wrapping ErrInvalidConfig.
func NewDirectory(numPEs int, lineSize uint32, caches []Invalidator) (*Directory, error) {
	if numPEs <= 0 {
		return nil, fmt.Errorf("%w: need at least one processor (got %d)", ErrInvalidConfig, numPEs)
	}
	if len(caches) != numPEs {
		return nil, fmt.Errorf("%w: caches slice has %d entries for %d processors",
			ErrInvalidConfig, len(caches), numPEs)
	}
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("%w: line size %d is not a power of two", ErrInvalidConfig, lineSize)
	}
	return &Directory{
		lineSize: lineSize,
		shift:    uint(bits.TrailingZeros32(lineSize)),
		vecs:     sharerVecs{stride: (numPEs + 63) / 64},
		caches:   caches,
	}, nil
}

// MustDirectory is NewDirectory for statically-valid configurations; it
// panics on error.
func MustDirectory(numPEs int, lineSize uint32, caches []Invalidator) *Directory {
	d, err := NewDirectory(numPEs, lineSize, caches)
	if err != nil {
		panic(err)
	}
	return d
}

// addSharer inserts pe into e's sharer set, spilling the set to a bit
// vector at its third distinct member.
func (d *Directory) addSharer(e *entry, pe int) {
	if e.vec != 0 {
		d.vecs.get(e.vec)[pe>>6] |= 1 << (uint(pe) & 63)
		return
	}
	v := uint32(pe) + 1
	switch {
	case e.s0 == v || e.s1 == v:
	case e.s0 == 0:
		e.s0 = v
	case e.s1 == 0:
		e.s1 = v
	default:
		e.vec = d.vecs.alloc()
		vec := d.vecs.get(e.vec)
		for _, s := range [3]uint32{e.s0, e.s1, v} {
			vec[(s-1)>>6] |= 1 << ((s - 1) & 63)
		}
		e.s0, e.s1 = 0, 0
	}
}

// sharerCount counts e's sharers.
func (d *Directory) sharerCount(e entry) int {
	n := 0
	if e.vec != 0 {
		for _, w := range d.vecs.get(e.vec) {
			n += bits.OnesCount64(w)
		}
		return n
	}
	if e.s0 != 0 {
		n++
	}
	if e.s1 != 0 {
		n++
	}
	return n
}

// retake makes pe the line's only sharer and its modified owner. Every
// other copy is invalidated, in ascending PE order, with the line's base
// address addr; retake reports how many copies that was.
func (d *Directory) retake(e *entry, pe int, addr uint64) int {
	n := 0
	if e.vec != 0 {
		for i, w := range d.vecs.get(e.vec) {
			for ; w != 0; w &= w - 1 {
				if other := i*64 + bits.TrailingZeros64(w); other != pe {
					d.invalidate(other, addr)
					n++
				}
			}
		}
		d.vecs.release(e.vec)
	} else {
		a, b := e.s0, e.s1
		if a > b {
			a, b = b, a
		}
		if a != 0 && int(a-1) != pe {
			d.invalidate(int(a-1), addr)
			n++
		}
		if b != 0 && int(b-1) != pe {
			d.invalidate(int(b-1), addr)
			n++
		}
	}
	me := uint32(pe) + 1
	*e = entry{s0: me, owner: me}
	return n
}

// invalidate removes pe's copy of the line at addr.
func (d *Directory) invalidate(pe int, addr uint64) {
	d.stats.Invalidations++
	if c := d.caches[pe]; c != nil {
		c.Invalidate(addr)
	}
}

// Read registers a read of the line containing addr by pe. A dirty copy
// held elsewhere is downgraded to shared (the data flows through the
// directory; the reader's own cache counts the miss).
func (d *Directory) Read(pe int, addr uint64) {
	d.ReadLine(pe, addr>>d.shift)
}

// ReadLine is Read addressed by line index instead of byte address, for
// callers (memsys block delivery) that have already split references into
// lines and want to skip the shift.
func (d *Directory) ReadLine(pe int, line uint64) {
	d.stats.ReadRequests++
	e := d.lines.Ptr(line)
	if e.owner != 0 && e.owner != uint32(pe)+1 {
		e.owner = 0
		d.stats.Downgrades++
	}
	d.addSharer(e, pe)
}

// Write registers a write of the line containing addr by pe, invalidating
// every other copy.
func (d *Directory) Write(pe int, addr uint64) {
	d.WriteLine(pe, addr>>d.shift)
}

// WriteLine is Write addressed by line index. Invalidations are delivered
// with the line's base address, which lands in the same line of every
// attached cache (caches and directory share one line size by
// construction).
func (d *Directory) WriteLine(pe int, line uint64) {
	d.stats.WriteRequests++
	if d.retake(d.lines.Ptr(line), pe, line<<d.shift) > 0 {
		d.stats.InvalidatingWrites++
	}
}

// Sharers reports how many processors hold the line containing addr.
func (d *Directory) Sharers(addr uint64) int {
	return d.sharerCount(d.lines.Get(addr >> d.shift))
}

// IsDirty reports whether the line containing addr is held modified.
func (d *Directory) IsDirty(addr uint64) bool {
	return d.lines.Get(addr>>d.shift).owner != 0
}

// Stats returns the accumulated protocol statistics.
func (d *Directory) Stats() Stats { return d.stats }

// ResetStats clears protocol counters, keeping directory state. It
// publishes first, so the run-scope counters keep every event.
func (d *Directory) ResetStats() {
	d.Publish()
	d.stats, d.pub = Stats{}, Stats{}
}
