package memsys

import (
	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// Machine is the engine-neutral face of the simulated multiprocessor.
// System (serial) and Sharded (region-partitioned, W directory shards)
// both satisfy it and are bit-identical in every statistic; Open picks
// between them by Config.Shards, so experiments are written once against
// Machine and run on whichever engine is faster for their P and host.
//
// Engine-specific caveats live behind the accessors: on the sharded
// engine, every statistics read (Stats, CacheStats, DirectoryStats,
// Profiler, Cache) drains the pipeline to a barrier first, so results are
// always a consistent post-barrier snapshot. Close releases engine
// resources (worker goroutines on the sharded engine) and reports any
// failure-injection error the run recorded; it is idempotent, and the
// sharded engine must be closed before its results are discarded.
type Machine interface {
	trace.EpochConsumer // Ref + BeginEpoch
	trace.BlockConsumer // Ref + Refs

	// Instrument attaches run-scope counters from rec to the engine and
	// every component it owns. Nil leaves the machine uninstrumented.
	Instrument(rec *obs.Recorder)
	// Home reports the processor whose local memory holds addr.
	Home(addr uint64) int
	// Measuring reports whether statistics are currently collected.
	Measuring() bool
	// Profiler returns pe's working-set profiler — exact or sampled per
	// Config.SampleRate — or nil.
	Profiler(pe int) cache.Profiler
	// Cache returns pe's concrete cache (nil in profile mode).
	Cache(pe int) cache.Cache
	// CacheStats aggregates the stats of all concrete caches.
	CacheStats() cache.Stats
	// DirectoryStats returns the coherence protocol statistics.
	DirectoryStats() coherence.Stats
	// Stats returns the local/remote miss classification.
	Stats() Stats
	// PEs reports the processor count.
	PEs() int
	// LineSize reports the configured line size.
	LineSize() uint32
	// Close releases engine resources and reports any recorded error.
	Close() error
}

// Open builds the machine cfg selects: the serial System when cfg.Shards
// is zero, the region-sharded engine when it is positive. Negative shard
// counts are rejected with ErrInvalidConfig.
func Open(cfg Config) (Machine, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		return New(cfg)
	}
	return newSharded(cfg)
}

// MustOpen is Open for configurations known statically valid.
func MustOpen(cfg Config) Machine {
	m, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

var _ Machine = (*System)(nil)
