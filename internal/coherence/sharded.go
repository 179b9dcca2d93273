package coherence

import (
	"context"
	"fmt"

	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
)

// fpShardApply sits at the head of every per-shard block application in
// the sharded machine's directory phase. Error mode poisons the run (the
// engine records the failure and surfaces it through its Stopper and
// Close); delay mode stretches one shard's wall clock, which is how the
// chaos suite manufactures skewed shard progress without touching any
// statistic.
var fpShardApply = fault.New("coherence.shard.apply")

// ShardedDirectory partitions a full-map directory into W address-region
// shards. Every cache line is owned by exactly one shard — ShardOf is a
// pure line-hash — and each shard is a complete, unmodified Directory over
// its region, with its own line table, spilled-sharer table and
// statistics. Shards share no state, so W workers can apply disjoint
// regions' transactions concurrently; the protocol semantics per line are
// exactly the serial Directory's because each line's transactions all
// land on one shard in stream order.
//
// Thread safety follows the shard partition: concurrent ReadLine/WriteLine
// calls are safe if and only if they target different shards (the sharded
// machine routes by ShardOf to guarantee this). Stats and ResetStats
// aggregate across all shards and are only well-defined at a quiescent
// point — the memsys engine drains its pipeline to a barrier before
// calling either, so a mid-run read observes a consistent post-barrier
// snapshot, never a torn one.
type ShardedDirectory struct {
	shards   []*Directory
	numPEs   int
	lineSize uint32
	shift    uint
}

// NewShardedDirectory builds W shards for numPEs processors at the given
// line size. invalidators(s) supplies shard s's per-processor Invalidator
// slice; giving each shard its own receivers is what lets shard workers
// deliver invalidation messages without cross-shard synchronization (the
// memsys engine passes per-shard capture mailboxes). A nil invalidators
// attaches no caches to any shard.
func NewShardedDirectory(numPEs int, lineSize uint32, shards int, invalidators func(shard int) []Invalidator) (*ShardedDirectory, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrInvalidConfig, shards)
	}
	sd := &ShardedDirectory{
		shards:   make([]*Directory, shards),
		numPEs:   numPEs,
		lineSize: lineSize,
	}
	for i := range sd.shards {
		var inv []Invalidator
		if invalidators != nil {
			inv = invalidators(i)
		} else {
			inv = make([]Invalidator, numPEs)
		}
		d, err := NewDirectory(numPEs, lineSize, inv)
		if err != nil {
			return nil, err
		}
		sd.shards[i] = d
	}
	sd.shift = sd.shards[0].shift
	return sd, nil
}

// Shards reports the shard count W.
func (sd *ShardedDirectory) Shards() int { return len(sd.shards) }

// Shard returns shard i, for workers that own it.
func (sd *ShardedDirectory) Shard(i int) *Directory { return sd.shards[i] }

// ShardOf maps a line index to its owning shard. The hash is a 64-bit
// multiplicative mix (Fibonacci hashing) folded over itself, so adjacent
// lines — the common case in a blocked traversal — scatter across shards
// instead of serializing on one.
func (sd *ShardedDirectory) ShardOf(line uint64) int {
	h := line * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(len(sd.shards)))
}

// ReadLine routes a read transaction to the owning shard. Safe for
// concurrent use only across distinct shards.
func (sd *ShardedDirectory) ReadLine(pe int, line uint64) {
	sd.shards[sd.ShardOf(line)].ReadLine(pe, line)
}

// WriteLine routes a write transaction to the owning shard. Safe for
// concurrent use only across distinct shards.
func (sd *ShardedDirectory) WriteLine(pe int, line uint64) {
	sd.shards[sd.ShardOf(line)].WriteLine(pe, line)
}

// Sharers reports how many processors hold the line containing addr.
func (sd *ShardedDirectory) Sharers(addr uint64) int {
	line := addr >> sd.shift
	return sd.shards[sd.ShardOf(line)].Sharers(addr)
}

// IsDirty reports whether the line containing addr is held modified.
func (sd *ShardedDirectory) IsDirty(addr uint64) bool {
	line := addr >> sd.shift
	return sd.shards[sd.ShardOf(line)].IsDirty(addr)
}

// Stats aggregates the protocol statistics across every shard
// (aggregate-on-read: the shards keep counting independently; this sums a
// snapshot). Counters are exact at any quiescent point; callers that read
// mid-run must drain in-flight work first — the sharded machine's
// accessors do — so the snapshot is always post-barrier consistent.
func (sd *ShardedDirectory) Stats() Stats {
	var total Stats
	for _, d := range sd.shards {
		s := d.Stats()
		total.ReadRequests += s.ReadRequests
		total.WriteRequests += s.WriteRequests
		total.Invalidations += s.Invalidations
		total.InvalidatingWrites += s.InvalidatingWrites
		total.Downgrades += s.Downgrades
	}
	return total
}

// ResetStats clears every shard's protocol counters, keeping directory
// state; each shard publishes first. Like Stats, it must only run at a
// quiescent (post-barrier) point.
func (sd *ShardedDirectory) ResetStats() {
	for _, d := range sd.shards {
		d.ResetStats()
	}
}

// Instrument attaches run-scope transaction counters from rec to every
// shard. The shards share the recorder's atomic counter handles, so once
// every shard has published (Directory.Publish, called by the worker that
// owns the shard), the per-name totals equal the serial directory's
// exactly.
func (sd *ShardedDirectory) Instrument(rec *obs.Recorder) {
	for _, d := range sd.shards {
		d.Instrument(rec)
	}
}

// NumPEs reports the processor count the shards were built for.
func (sd *ShardedDirectory) NumPEs() int { return sd.numPEs }

// LineSize reports the configured line size.
func (sd *ShardedDirectory) LineSize() uint32 { return sd.lineSize }

// CheckApply is the coherence.shard.apply failpoint seam, evaluated by a
// shard worker before applying a block of transactions. Disarmed it is a
// single atomic load.
func (sd *ShardedDirectory) CheckApply(ctx context.Context) error {
	return fpShardApply.Inject(ctx)
}
