package memsys

import (
	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// Machine is the face of the simulated multiprocessor that experiments
// and the benchmark ledger are written against; *System is its only
// implementation, and Open returns one.
//
// Close is the end-of-run barrier: it publishes every run-scope counter
// (see System.Instrument), never fails, and may be called more than once.
type Machine interface {
	trace.EpochConsumer // Ref + BeginEpoch
	trace.BlockConsumer // Ref + Refs

	// Instrument attaches run-scope counters from rec to the machine and
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
	// Close publishes every run-scope counter and reports any error.
	Close() error
}

// Open builds the System cfg describes, as a Machine. It accepts exactly
// the configurations New accepts.
func Open(cfg Config) (Machine, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err // not a typed nil *System inside the interface
	}
	return s, nil
}

// DefaultShards returns 0, the only Shards value a Config may carry.
//
// Deprecated: the region-sharded engine it sized is gone; every machine
// is a serial System. It remains only for callers written against that
// engine, and goes with Config.Shards.
func DefaultShards() int { return 0 }

var _ Machine = (*System)(nil)
