package coherence

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"wsstudy/internal/cache"
	"wsstudy/internal/linetab"
	"wsstudy/internal/obs"
)

// inval is one invalidation message: the PE whose copy was removed and
// the line address it was sent.
type inval struct {
	pe   int
	addr uint64
}

// invalLog records every invalidation a directory sends, in order.
type invalLog struct{ got []inval }

type peInval struct {
	log *invalLog
	pe  int
}

func (c peInval) Invalidate(addr uint64) { c.log.got = append(c.log.got, inval{c.pe, addr}) }

// caches returns one recording invalidator per processor.
func (l *invalLog) caches(p int) []Invalidator {
	inv := make([]Invalidator, p)
	for pe := range inv {
		inv[pe] = peInval{l, pe}
	}
	return inv
}

// take returns the PEs invalidated since the last take.
func (l *invalLog) take() []int {
	pes := make([]int, len(l.got))
	for i, v := range l.got {
		pes[i] = v.pe
	}
	l.got = l.got[:0]
	return pes
}

// members lists a reference set in ascending order, leaving out skip.
func members(ref map[int]bool, skip int) []int {
	var out []int
	for pe := range ref {
		if pe != skip {
			out = append(out, pe)
		}
	}
	sort.Ints(out)
	return out
}

// TestPESetBasics drives one directory entry's PE set (its sharers)
// through the inline slots, the spill at the third distinct member and a
// retake: the count follows the adds, and a write invalidates every
// other member once, in ascending PE order, and frees the spilled vector.
func TestPESetBasics(t *testing.T) {
	var log invalLog
	d := MustDirectory(130, 8, log.caches(130))
	var e entry
	for _, pe := range []int{129, 0, 64, 63, 64} {
		d.addSharer(&e, pe)
	}
	if n := d.sharerCount(e); n != 4 {
		t.Fatalf("sharerCount = %d, want 4", n)
	}
	if e.vec == 0 || e.s0 != 0 || e.s1 != 0 {
		t.Fatalf("entry %+v did not spill at its third member", e)
	}
	if n := d.retake(&e, 63, 0x40); n != 3 {
		t.Fatalf("retake invalidated %d copies, want 3", n)
	}
	if got, want := log.got, []inval{{0, 0x40}, {64, 0x40}, {129, 0x40}}; !slices.Equal(got, want) {
		t.Fatalf("invalidations = %v, want %v", got, want)
	}
	if e != (entry{s0: 64, owner: 64}) || d.sharerCount(e) != 1 {
		t.Fatalf("after retake entry = %+v, want writer 63 alone and modified", e)
	}
	if len(d.vecs.free) != 1 {
		t.Fatalf("free list holds %d vectors after retake, want 1", len(d.vecs.free))
	}
	var zero entry
	if d.sharerCount(zero) != 0 || unsafe.Sizeof(zero) > 16 {
		t.Fatalf("zero entry: %d sharers, %d bytes; want 0 sharers in at most 16 bytes",
			d.sharerCount(zero), unsafe.Sizeof(zero))
	}
}

// TestPESetMatchesMap is the property form: under random adds (reads)
// and retakes (writes) an entry's sharers behave like a map[int]bool, and
// each retake invalidates exactly the other members, ascending.
func TestPESetMatchesMap(t *testing.T) {
	check := func(ops []uint8) bool {
		var log invalLog
		d := MustDirectory(64, 8, log.caches(64))
		var e entry
		ref := map[int]bool{}
		for _, op := range ops {
			pe := int(op % 64)
			if op&0x80 != 0 {
				d.addSharer(&e, pe)
				ref[pe] = true
			} else {
				d.retake(&e, pe, 0)
				if !slices.Equal(log.take(), members(ref, pe)) {
					return false
				}
				ref = map[int]bool{pe: true}
			}
			if d.sharerCount(e) != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPESetInlineAllocation pins the entry's memory behaviour at large P:
// the one- and two-sharer states live inline and allocate nothing, and a
// spill reuses the vector the last retake freed instead of growing the
// side table. The directory's own read and write paths on a touched page
// allocate nothing either.
func TestPESetInlineAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const p = 1024
	d := MustDirectory(p, 8, make([]Invalidator, p))
	var e entry

	oneOrTwo := testing.AllocsPerRun(100, func() {
		d.retake(&e, 7, 0)
		d.addSharer(&e, 901)
		if d.sharerCount(e) != 2 {
			t.Fatal("wrong sharer count")
		}
	})
	if oneOrTwo != 0 {
		t.Fatalf("one/two-sharer path allocates %.0f objects per entry, want 0", oneOrTwo)
	}

	// The first spill grows the side table by one vector; the retake
	// puts it on the free list.
	d.addSharer(&e, 333)
	d.retake(&e, 4, 0)
	spilled := testing.AllocsPerRun(100, func() {
		for _, pe := range []int{7, 901, 333, 12} {
			d.addSharer(&e, pe)
		}
		if d.sharerCount(e) != 5 {
			t.Fatal("wrong sharer count after spill")
		}
		d.retake(&e, 4, 0)
	})
	if spilled != 0 {
		t.Fatalf("spill after a retake allocates %.0f objects, want 0 (free-list reuse)", spilled)
	}
	if vecs := len(d.vecs.words) / d.vecs.stride; vecs != 1 {
		t.Fatalf("side table holds %d vectors, want 1", vecs)
	}

	d.ReadLine(3, 100)
	paths := testing.AllocsPerRun(100, func() {
		d.ReadLine(5, 100)
		d.WriteLine(6, 101)
		d.ReadLine(7, 101)
	})
	if paths != 0 {
		t.Fatalf("ReadLine/WriteLine on a touched page allocate %.0f objects, want 0", paths)
	}
}

// TestPESetSpilledMatchesMap drives one entry far past its inline
// capacity at an odd P (the last word partial) so the map-equivalence
// property also covers the spilled form and the inline -> spill -> retake
// -> inline round trip.
func TestPESetSpilledMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const p = 257
	var log invalLog
	d := MustDirectory(p, 8, log.caches(p))
	var e entry
	ref := map[int]bool{}
	for i := 0; i < 20000; i++ {
		pe := rng.Intn(p)
		if rng.Intn(60) == 0 {
			d.retake(&e, pe, 0)
			if got, want := log.take(), members(ref, pe); !slices.Equal(got, want) {
				t.Fatalf("step %d: retake by %d invalidated %v, want %v", i, pe, got, want)
			}
			ref = map[int]bool{pe: true}
		} else {
			d.addSharer(&e, pe)
			ref[pe] = true
		}
		if d.sharerCount(e) != len(ref) {
			t.Fatalf("step %d: sharerCount = %d, want %d", i, d.sharerCount(e), len(ref))
		}
	}
	d.retake(&e, p-1, 0)
	if got, want := log.take(), members(ref, p-1); !slices.Equal(got, want) {
		t.Fatalf("final retake invalidated %v, want %v", got, want)
	}
}

// refDirectory is the naive model TestDirectoryMatchesReference holds the
// directory to: a map of sharer sets, a map of modified owners, and every
// invalidation each PE receives, in order.
type refDirectory struct {
	sharers map[uint64]map[int]bool
	owner   map[uint64]int
	stats   Stats
	invals  [][]uint64
	spills  int // times a line's sharer set reached three members
}

func (r *refDirectory) read(pe int, line uint64) {
	r.stats.ReadRequests++
	if o, ok := r.owner[line]; ok && o != pe {
		delete(r.owner, line)
		r.stats.Downgrades++
	}
	set := r.sharers[line]
	if set == nil {
		set = map[int]bool{}
		r.sharers[line] = set
	}
	if !set[pe] && len(set) == 2 {
		r.spills++
	}
	set[pe] = true
}

func (r *refDirectory) write(pe int, line uint64) {
	r.stats.WriteRequests++
	others := members(r.sharers[line], pe)
	for _, o := range others {
		r.stats.Invalidations++
		r.invals[o] = append(r.invals[o], line<<3)
	}
	if len(others) > 0 {
		r.stats.InvalidatingWrites++
	}
	r.sharers[line] = map[int]bool{pe: true}
	r.owner[line] = pe
}

// TestDirectoryMatchesReference holds the paged directory to the naive
// map-of-sets model on random reads and writes at P = 4, 64 and 1024, so
// the inline slots, the spill path and the free list all run, over lines
// below the dense bound, around it and far above it (the far-line map).
// Stats, Sharers, IsDirty and the exact (pe, addr) invalidation sequence
// each PE receives must all agree.
func TestDirectoryMatchesReference(t *testing.T) {
	var lines []uint64
	for i := uint64(0); i < 160; i++ {
		lines = append(lines, i, 3*linetab.PageLines+i)
	}
	for i := uint64(0); i < 8; i++ {
		lines = append(lines, linetab.Dense-4+i, 1<<40+i, (1<<61-1)-i)
	}
	for _, p := range []int{4, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(p)))
		got := make([][]uint64, p)
		inv := make([]Invalidator, p)
		for pe := range inv {
			inv[pe] = addrLog{got, pe}
		}
		d := MustDirectory(p, 8, inv)
		ref := &refDirectory{sharers: map[uint64]map[int]bool{}, owner: map[uint64]int{}, invals: make([][]uint64, p)}
		for i := 0; i < 60000; i++ {
			pe := rng.Intn(p)
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(8) {
			case 0:
				d.Write(pe, line<<3)
				ref.write(pe, line)
			case 1:
				d.WriteLine(pe, line)
				ref.write(pe, line)
			case 2:
				d.Read(pe, line<<3)
				ref.read(pe, line)
			default:
				d.ReadLine(pe, line)
				ref.read(pe, line)
			}
		}
		if d.Stats() != ref.stats {
			t.Fatalf("P=%d: stats = %+v, want %+v", p, d.Stats(), ref.stats)
		}
		for _, line := range lines {
			_, dirty := ref.owner[line]
			if d.Sharers(line<<3) != len(ref.sharers[line]) || d.IsDirty(line<<3) != dirty {
				t.Fatalf("P=%d line %#x: sharers %d dirty %v, want %d %v", p, line,
					d.Sharers(line<<3), d.IsDirty(line<<3), len(ref.sharers[line]), dirty)
			}
		}
		for pe := range got {
			if !slices.Equal(got[pe], ref.invals[pe]) {
				t.Fatalf("P=%d: PE %d received %d invalidations, want %d (sequences differ)",
					p, pe, len(got[pe]), len(ref.invals[pe]))
			}
		}
		if vecs := len(d.vecs.words) / d.vecs.stride; ref.spills == 0 || vecs >= ref.spills {
			t.Fatalf("P=%d: %d spills used %d vectors; want spills reusing freed vectors", p, ref.spills, vecs)
		}
	}
}

// addrLog appends the addresses one PE is sent to that PE's list.
type addrLog struct {
	got [][]uint64
	pe  int
}

func (a addrLog) Invalidate(addr uint64) { a.got[a.pe] = append(a.got[a.pe], addr) }

func TestDirectoryInvalidatesOtherCopies(t *testing.T) {
	c0 := cache.MustLRU(16, 8)
	c1 := cache.MustLRU(16, 8)
	d := MustDirectory(2, 8, []Invalidator{c0, c1})

	// Both processors read line 0.
	c0.Access(0, true)
	d.Read(0, 0)
	c1.Access(0, true)
	d.Read(1, 0)
	if d.Sharers(0) != 2 {
		t.Fatalf("sharers = %d, want 2", d.Sharers(0))
	}

	// PE1 writes: PE0's copy must be invalidated.
	c1.Access(0, false)
	d.Write(1, 0)
	if !d.IsDirty(0) {
		t.Fatal("line should be dirty after write")
	}
	if d.Sharers(0) != 1 {
		t.Fatalf("sharers after write = %d, want 1", d.Sharers(0))
	}
	if c0.Contains(0) {
		t.Fatal("PE0 still holds line 0 after PE1's write")
	}
	if !c0.Access(0, true) {
		t.Fatal("PE0 re-read hit, want a miss")
	}

	s := d.Stats()
	if s.Invalidations != 1 || s.InvalidatingWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirectoryDowngrade(t *testing.T) {
	d := MustDirectory(2, 8, []Invalidator{nil, nil})
	d.Write(0, 0)
	if !d.IsDirty(0) {
		t.Fatal("expected dirty")
	}
	d.Read(1, 0)
	if d.IsDirty(0) {
		t.Fatal("remote read should downgrade dirty line")
	}
	if d.Stats().Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", d.Stats().Downgrades)
	}
}

func TestDirectoryWriterKeepsOwnCopy(t *testing.T) {
	c0 := cache.MustLRU(16, 8)
	d := MustDirectory(2, 8, []Invalidator{c0, nil})
	c0.Access(0, true)
	d.Read(0, 0)
	c0.Access(0, false)
	d.Write(0, 0) // own write must not invalidate own copy
	if c0.Access(0, true) {
		t.Fatal("own copy after own write missed, want a hit")
	}
	if d.Stats().Invalidations != 0 {
		t.Fatal("no invalidations expected for private data")
	}
}

func TestDirectoryLineGranularity(t *testing.T) {
	// With 64-byte lines, addresses 0 and 32 share a line: false sharing
	// must invalidate.
	c0 := cache.MustLRU(16, 64)
	d := MustDirectory(2, 64, []Invalidator{c0, nil})
	c0.Access(0, true)
	d.Read(0, 0)
	d.Write(1, 32)
	if c0.Contains(0) {
		t.Fatal("false sharing: PE0 still holds the line after PE1's write")
	}
	if !c0.Access(0, true) {
		t.Fatal("false sharing: PE0 re-read hit, want a miss")
	}
}

func TestDirectoryValidation(t *testing.T) {
	cases := []struct {
		name   string
		pes    int
		line   uint32
		caches []Invalidator
	}{
		{"zero PEs", 0, 8, nil},
		{"negative PEs", -1, 8, nil},
		{"cache count mismatch", 2, 8, []Invalidator{nil}},
		{"zero line", 2, 0, []Invalidator{nil, nil}},
		{"non-pow2 line", 2, 24, []Invalidator{nil, nil}},
	}
	for _, c := range cases {
		if _, err := NewDirectory(c.pes, c.line, c.caches); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", c.name, err)
		}
	}
	// Must variant panics on the same inputs.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustDirectory should panic on invalid input")
			}
		}()
		MustDirectory(0, 8, nil)
	}()
}

func TestDirectoryResetStats(t *testing.T) {
	d := MustDirectory(2, 8, []Invalidator{nil, nil})
	d.Read(0, 0)
	d.Write(1, 0)
	d.ResetStats()
	if s := d.Stats(); s.ReadRequests != 0 || s.WriteRequests != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	// Directory state must survive the reset.
	if d.Sharers(0) != 1 {
		t.Fatal("directory state lost on ResetStats")
	}
}

// TestDirectoryPublish pins how an instrumented directory reaches its
// run-scope counters: transactions touch only the plain statistics, so the
// counters stay at zero until Publish; Publish adds the growth since the
// last one; and ResetStats publishes before it zeroes, so the counters
// remain run totals across a warm-up reset.
func TestDirectoryPublish(t *testing.T) {
	rec := obs.New()
	d := MustDirectory(3, 8, make([]Invalidator, 3))
	d.Read(0, 0) // before Instrument: never published
	d.Instrument(rec)
	counters := func() Stats {
		m := rec.Snapshot()
		return Stats{
			ReadRequests:       m.Counter(MetricReads),
			WriteRequests:      m.Counter(MetricWrites),
			Invalidations:      m.Counter(MetricInvalidations),
			InvalidatingWrites: m.Counter(MetricInvalidatingWrites),
			Downgrades:         m.Counter(MetricDowngrades),
		}
	}
	d.Read(1, 0)
	d.Read(2, 0)
	d.Write(1, 0) // invalidates PEs 0 and 2
	if got := counters(); got != (Stats{}) {
		t.Fatalf("counters moved before Publish: %+v", got)
	}
	d.Publish()
	want := Stats{ReadRequests: 2, WriteRequests: 1, Invalidations: 2, InvalidatingWrites: 1}
	if got := counters(); got != want {
		t.Fatalf("after Publish: %+v, want %+v", got, want)
	}
	d.Read(0, 8)
	d.ResetStats()
	d.Read(2, 0) // downgrades PE 1's modified copy
	d.Publish()
	d.Publish() // nothing new: no change
	want = Stats{ReadRequests: 4, WriteRequests: 1, Invalidations: 2, InvalidatingWrites: 1, Downgrades: 1}
	if got := counters(); got != want {
		t.Fatalf("across ResetStats: %+v, want %+v", got, want)
	}
}

// TestProducerConsumerCommunication models the paper's inherent
// communication: a producer writes a boundary region each iteration, a
// consumer reads it. Every consumer read of a freshly written line must be
// a coherence miss, at any cache size.
func TestProducerConsumerCommunication(t *testing.T) {
	const boundary = 32 // double words
	prof := cache.MustStackProfiler(8)
	d := MustDirectory(2, 8, []Invalidator{nil, prof})

	for iter := 0; iter < 10; iter++ {
		if iter == 2 {
			prof.SetMeasuring(true)
		} else if iter < 2 {
			prof.SetMeasuring(false)
		}
		for i := 0; i < boundary; i++ {
			addr := uint64(i) * 8
			d.Write(0, addr) // producer
		}
		for i := 0; i < boundary; i++ {
			addr := uint64(i) * 8
			prof.Access(addr, 8, true) // consumer
			d.Read(1, addr)
		}
	}
	// 8 measured iterations, all boundary reads are coherence misses.
	cohR, _ := prof.CoherenceMisses()
	if cohR != 8*boundary {
		t.Fatalf("coherence read misses = %d, want %d", cohR, 8*boundary)
	}
	// Even an enormous cache cannot remove them.
	if got := prof.MissesAt(1 << 20).ReadMisses; got != 8*boundary {
		t.Fatalf("misses at 1M lines = %d, want %d", got, 8*boundary)
	}
}

func TestDirectoryManyPEsRandomized(t *testing.T) {
	const pes = 64
	caches := make([]Invalidator, pes)
	lrus := make([]*cache.LRU, pes)
	for i := range caches {
		lrus[i] = cache.MustLRU(64, 8)
		caches[i] = lrus[i]
	}
	d := MustDirectory(pes, 8, caches)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		pe := rng.Intn(pes)
		addr := uint64(rng.Intn(256)) * 8
		if rng.Intn(4) == 0 {
			lrus[pe].Access(addr, false)
			d.Write(pe, addr)
		} else {
			lrus[pe].Access(addr, true)
			d.Read(pe, addr)
		}
	}
	// Invariant: a dirty line has exactly one sharer.
	for line := uint64(0); line < 256; line++ {
		if d.IsDirty(line*8) && d.Sharers(line*8) != 1 {
			t.Fatalf("dirty line %d has %d sharers", line, d.Sharers(line*8))
		}
	}
}
