package cache

import "wsstudy/internal/obs"

// Metric names recorded by instrumented caches and profilers.
const (
	// MetricProfilerAccesses counts references processed by stack-distance
	// profilers (one per Access or AccessLine call).
	MetricProfilerAccesses = "cache.profiler.accesses"
	// MetricProfilerQueries counts curve/point queries answered from the
	// profiler's histograms (Curve and MissesAt).
	MetricProfilerQueries = "cache.profiler.queries"
	// MetricEvictions counts capacity-driven line replacements in the
	// concrete simulators (LRU and SetAssoc); coherence removals are
	// counted by the directory, not here.
	MetricEvictions = "cache.evictions"
)

// The per-line counts behind cache.profiler.accesses and cache.evictions
// are plain run totals, not atomic adds: Publish adds whatever was counted
// since the last Publish to the run-scope counter. memsys publishes each
// profiler once per block and each cache at the warm-up flip and at
// Close, so a live read of those counters lags the simulation by at most
// that much.

// Instrument attaches run-scope counters from rec: accesses processed and
// histogram queries answered. A nil rec leaves the profiler uninstrumented
// (the default, zero-cost mode; the handles are nil-safe). Only accesses
// made after Instrument are published.
func (p *StackProfiler) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	p.mAccesses = rec.Counter(MetricProfilerAccesses)
	p.mQueries = rec.Counter(MetricProfilerQueries)
	p.published = p.accesses
}

// Publish adds the accesses processed since the last Publish to the
// run-scope counter.
func (p *StackProfiler) Publish() { publish(p.mAccesses, p.accesses, &p.published) }

// Instrument attaches a run-scope eviction counter from rec. Only
// evictions after Instrument are published.
func (c *LRU) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Counter(MetricEvictions)
	c.published = c.evictions
}

// Publish adds the evictions since the last Publish to the run-scope
// counter.
func (c *LRU) Publish() { publish(c.mEvictions, c.evictions, &c.published) }

// Instrument attaches a run-scope eviction counter from rec. Only
// evictions after Instrument are published.
func (c *SetAssoc) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	c.mEvictions = rec.Counter(MetricEvictions)
	c.published = c.evictions
}

// Publish adds the evictions since the last Publish to the run-scope
// counter.
func (c *SetAssoc) Publish() { publish(c.mEvictions, c.evictions, &c.published) }

// publish adds total's growth since *published to ctr.
func publish(ctr *obs.Counter, total uint64, published *uint64) {
	if d := total - *published; d != 0 {
		ctr.Add(d)
		*published = total
	}
}

// instrumentable is satisfied by every simulator with run-scope counters;
// memsys uses it to wire and publish whatever Cache implementation it
// holds.
type instrumentable interface {
	Instrument(rec *obs.Recorder)
	Publish()
}

// InstrumentCache attaches run-scope counters to c when its concrete type
// supports them; unknown implementations are left untouched.
func InstrumentCache(c Cache, rec *obs.Recorder) {
	if i, ok := c.(instrumentable); ok {
		i.Instrument(rec)
	}
}

// PublishCache publishes c's run totals when its concrete type keeps
// them; unknown implementations are left untouched.
func PublishCache(c Cache) {
	if i, ok := c.(instrumentable); ok {
		i.Publish()
	}
}
