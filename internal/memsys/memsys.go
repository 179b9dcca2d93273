// Package memsys assembles the simulated multiprocessor: one cache (or
// working-set profiler) per processor, a write-invalidate directory tying
// them together, and a home-node map classifying misses as local or remote.
// It consumes a trace.Consumer stream, so any application kernel plugs in
// unchanged.
package memsys

import (
	"errors"
	"fmt"
	"math/bits"

	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// Metric names recorded by an instrumented System.
const (
	// MetricLocalMisses counts measured misses homed at the issuing
	// processor.
	MetricLocalMisses = "memsys.local_misses"
	// MetricRemoteMisses counts measured misses homed elsewhere — the
	// communication the paper's node-granularity analysis prices.
	MetricRemoteMisses = "memsys.remote_misses"
)

// ErrInvalidConfig is wrapped by every configuration error New returns, so
// callers can classify bad-configuration failures with errors.Is.
var ErrInvalidConfig = errors.New("memsys: invalid configuration")

// Distribution says how the shared address space maps to home nodes.
type Distribution uint8

const (
	// Interleaved assigns consecutive lines to consecutive processors
	// round-robin, the paper's choice for volume rendering (minimizes
	// hot-spotting when access patterns shift between frames).
	Interleaved Distribution = iota
	// Blocked splits the address space into one contiguous chunk per
	// processor, modelling "each processor's partition lives in its own
	// local memory" for the regular applications.
	Blocked
)

// Config parameterizes a System.
type Config struct {
	PEs      int          // number of processors (must be positive)
	LineSize uint32       // cache line size in bytes (power of two)
	Dist     Distribution // home-node mapping
	// Extent is the size in bytes of the address space for Blocked
	// distribution (ignored for Interleaved). Zero defaults to 1 GiB.
	Extent uint64
	// WarmupEpochs is how many leading epochs update state without being
	// measured (the paper's cold-start exclusion). Epoch boundaries come
	// from the kernel via BeginEpoch.
	WarmupEpochs int
	// Profile selects working-set profiling (a StackProfiler per PE)
	// instead of concrete caches. At most one of Profile or
	// CacheCapacity may be set; a machine with neither must carry
	// Probes.
	Profile bool
	// CacheCapacity is the per-PE cache capacity in lines when Profile is
	// false.
	CacheCapacity int
	// Assoc is the cache associativity when Profile is false; 0 means
	// fully associative.
	Assoc int
	// ProfilePE, when >= 0 with Profile set, attaches a profiler to that
	// single processor only (the paper measures per-processor working
	// sets; profiling one PE of a symmetric computation is cheaper and
	// equivalent). -1 profiles every PE.
	ProfilePE int
	// Shards must be 0; New rejects any other value.
	//
	// Deprecated: it selected the region-sharded engine, which is gone.
	// It remains only for callers written against that engine, and goes
	// with DefaultShards.
	Shards int
	// SampleRate selects profiler fidelity when Profile is set: 0 or 1
	// attaches exact stack-distance profilers, a power of two ≥ 2
	// attaches spatially-sampled ones (cache.SampledStackProfiler) that
	// profile a hashed 1/R subset of the line space. It changes reported
	// statistics, so core includes it in the canonical option encoding.
	SampleRate int
	// Probes attaches caller-built caches to processors: Probes[pe]
	// lists the caches observing pe. A probe sees exactly the line
	// accesses pe issues and the invalidations the directory sends pe,
	// in order, and its statistics reset when warm-up ends. The
	// directory never consults cache contents, so a probe's statistics
	// equal those of pe's cache in a dedicated machine of the probe's
	// geometry — one machine can stand in for one per cache
	// configuration. Probes take no part in the local/remote miss
	// classification, must use LineSize, and are read after Close.
	Probes map[int][]cache.Cache
}

// Stats aggregates the system-level classification of misses.
type Stats struct {
	LocalMisses  uint64 // misses homed at the issuing processor
	RemoteMisses uint64 // misses homed elsewhere
}

// System is the simulated cache-coherent multiprocessor.
type System struct {
	cfg       Config
	shift     uint // log2(LineSize), precomputed once
	units     units
	dir       *coherence.Directory
	stats     Stats
	epoch     int
	measuring bool

	// Run-scope miss-classification counters, live only after Instrument;
	// pub is the part of stats already added to them.
	pub     Stats
	mLocal  *obs.Counter
	mRemote *obs.Counter
}

// Instrument attaches run-scope counters from rec to the system and every
// component it owns: local/remote miss classification here, transaction
// counters on the directory, access/query counters on the profilers, and
// eviction counters on the concrete caches. A nil rec leaves everything
// uninstrumented; experiments call it unconditionally with obs.From(ctx).
//
// Nothing on the per-line path touches a counter. Each component counts
// in plain fields, and the system publishes the growth: the directory,
// the miss classification and the profilers at the end of every Refs
// block, and everything, caches and probes included, at the warm-up flip
// (before its reset) and at Close. A live read lags by at most one block,
// or, for evictions and for a stream fed per Ref, back to the last flip;
// after Close the counters are exact.
func (s *System) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	s.mLocal = rec.Counter(MetricLocalMisses)
	s.mRemote = rec.Counter(MetricRemoteMisses)
	s.pub = s.stats
	s.dir.Instrument(rec)
	s.units.instrument(rec)
}

// publish adds the growth of the counts published once per block — the
// directory's transactions, the miss classification and the profilers'
// accesses — to the run-scope counters, and with all also the caches'
// and probes' evictions, which walks every unit.
func (s *System) publish(all bool) {
	s.dir.Publish()
	s.stats.publish(&s.pub, s.mLocal, s.mRemote)
	if all {
		s.units.publish()
		return
	}
	for _, p := range s.units.profiled {
		p.Publish()
	}
}

// publish adds the miss counts grown since *pub to the local and remote
// counters.
func (st *Stats) publish(pub *Stats, local, remote *obs.Counter) {
	if n := st.LocalMisses - pub.LocalMisses; n != 0 {
		local.Add(n)
	}
	if n := st.RemoteMisses - pub.RemoteMisses; n != 0 {
		remote.Add(n)
	}
	*pub = *st
}

// normalize validates cfg and fills defaults.
func normalize(cfg Config) (Config, error) {
	if cfg.PEs <= 0 {
		return cfg, fmt.Errorf("%w: PEs must be positive, got %d", ErrInvalidConfig, cfg.PEs)
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = 8
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		return cfg, fmt.Errorf("%w: line size %d is not a power of two", ErrInvalidConfig, cfg.LineSize)
	}
	if cfg.Extent == 0 {
		cfg.Extent = 1 << 30
	}
	probes := 0
	for pe, list := range cfg.Probes {
		if pe < 0 || pe >= cfg.PEs {
			return cfg, fmt.Errorf("%w: probe PE %d out of range [0, %d)", ErrInvalidConfig, pe, cfg.PEs)
		}
		probes += len(list)
	}
	if cfg.Profile && cfg.CacheCapacity > 0 {
		return cfg, fmt.Errorf("%w: Profile and CacheCapacity are mutually exclusive", ErrInvalidConfig)
	}
	if !cfg.Profile && cfg.CacheCapacity == 0 && probes == 0 {
		return cfg, fmt.Errorf("%w: one of Profile, CacheCapacity or Probes must be set", ErrInvalidConfig)
	}
	if cfg.CacheCapacity < 0 {
		return cfg, fmt.Errorf("%w: CacheCapacity must not be negative, got %d", ErrInvalidConfig, cfg.CacheCapacity)
	}
	if cfg.Assoc < 0 {
		return cfg, fmt.Errorf("%w: Assoc must not be negative, got %d", ErrInvalidConfig, cfg.Assoc)
	}
	if cfg.Profile && (cfg.ProfilePE < -1 || cfg.ProfilePE >= cfg.PEs) {
		return cfg, fmt.Errorf("%w: ProfilePE %d out of range [-1, %d)", ErrInvalidConfig, cfg.ProfilePE, cfg.PEs)
	}
	if cfg.Shards != 0 {
		return cfg, fmt.Errorf("%w: Shards must be 0 (the sharded engine is gone), got %d", ErrInvalidConfig, cfg.Shards)
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 1
	}
	if cfg.SampleRate < 1 || cfg.SampleRate&(cfg.SampleRate-1) != 0 {
		return cfg, fmt.Errorf("%w: SampleRate %d is not a power of two ≥ 1", ErrInvalidConfig, cfg.SampleRate)
	}
	return cfg, nil
}

// units is the per-processor machinery a System drives: each PE's
// concrete cache or working-set profiler (by mode), the probes observing
// it, and the invalidator the directory reaches them all through.
// buildPEs constructs it.
type units struct {
	caches    []cache.Cache           // per PE in cache mode, else nil
	profilers []cache.Profiler        // per PE in profile mode (nil when unprofiled), else nil
	profiled  []cache.Profiler        // the non-nil profilers, in PE order
	probes    [][]cache.Cache         // per PE when Config.Probes is set, else nil
	inv       []coherence.Invalidator // per PE; nil where nothing is attached
}

// fanInval delivers a directory invalidation to every cache of a PE that
// carries probes.
type fanInval []coherence.Invalidator

func (f fanInval) Invalidate(addr uint64) {
	for _, c := range f {
		c.Invalidate(addr)
	}
}

// buildPEs constructs the per-processor units for cfg, which must already
// be normalized; measuring is the profilers' initial measurement state.
func buildPEs(cfg Config, measuring bool) (units, error) {
	u := units{inv: make([]coherence.Invalidator, cfg.PEs)}
	switch {
	case cfg.Profile:
		u.profilers = make([]cache.Profiler, cfg.PEs)
		for pe := 0; pe < cfg.PEs; pe++ {
			if cfg.ProfilePE >= 0 && pe != cfg.ProfilePE {
				continue
			}
			p, err := cache.NewProfiler(cfg.LineSize, cfg.SampleRate)
			if err != nil {
				return units{}, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
			}
			p.SetMeasuring(measuring)
			u.profilers[pe] = p
			u.profiled = append(u.profiled, p)
			u.inv[pe] = p
		}
	case cfg.CacheCapacity > 0:
		u.caches = make([]cache.Cache, cfg.PEs)
		for pe := 0; pe < cfg.PEs; pe++ {
			c, err := cache.New(cfg.CacheCapacity, cfg.Assoc, cfg.LineSize)
			if err != nil {
				return units{}, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
			}
			u.caches[pe] = c
			u.inv[pe] = c
		}
	}
	for pe, list := range cfg.Probes {
		if len(list) == 0 {
			continue
		}
		if u.probes == nil {
			u.probes = make([][]cache.Cache, cfg.PEs)
		}
		u.probes[pe] = list
		var fan fanInval
		if u.inv[pe] != nil {
			fan = append(fan, u.inv[pe])
		}
		for _, c := range list {
			fan = append(fan, c)
		}
		u.inv[pe] = fan
	}
	return u, nil
}

// access touches one line in pe's probes and its cache or profiler, and
// reports whether the cache or profiler (certainly) missed; the System
// classifies misses through it, counting them only while measuring.
// Profiled PEs report misses only in the infinite-cache sense (cold or
// coherence), since per-size misses are resolved after the fact. A PE
// with no cache or profiler never misses.
func (u *units) access(pe int, addr uint64, read bool) bool {
	if u.probes != nil {
		for _, c := range u.probes[pe] {
			c.Access(addr, read)
		}
	}
	if u.caches != nil {
		return u.caches[pe].Access(addr, read)
	}
	if u.profilers == nil {
		return false
	}
	p := u.profilers[pe]
	return p != nil && p.AccessLine(addr, read)
}

// setMeasuring applies a measurement flip to every unit: profilers start
// or stop counting, and when measurement starts, caches and probes drop
// their warm-up statistics.
func (u *units) setMeasuring(on bool) {
	for _, p := range u.profilers {
		if p != nil {
			p.SetMeasuring(on)
		}
	}
	if !on {
		return
	}
	for _, c := range u.caches {
		c.ResetStats()
	}
	for _, list := range u.probes {
		for _, c := range list {
			c.ResetStats()
		}
	}
}

// instrument attaches access/query counters to the profilers and eviction
// counters to the caches and probes.
func (u *units) instrument(rec *obs.Recorder) {
	for _, p := range u.profiled {
		p.Instrument(rec)
	}
	for _, c := range u.caches {
		cache.InstrumentCache(c, rec)
	}
	for _, list := range u.probes {
		for _, c := range list {
			cache.InstrumentCache(c, rec)
		}
	}
}

// publish publishes every unit's run totals: the profilers' accesses and
// the caches' and probes' evictions. It walks all P units, so the System
// calls it at the warm-up flip and at Close only, never per block.
func (u *units) publish() {
	for _, p := range u.profiled {
		p.Publish()
	}
	for _, c := range u.caches {
		cache.PublishCache(c)
	}
	for _, list := range u.probes {
		for _, c := range list {
			cache.PublishCache(c)
		}
	}
}

// New builds a System from cfg. All configuration errors wrap
// ErrInvalidConfig (and, where a subsystem rejected the input, that
// subsystem's own invalid-configuration sentinel). Open is New behind
// the Machine interface.
func New(cfg Config) (*System, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, shift: uint(bits.TrailingZeros32(cfg.LineSize)), measuring: cfg.WarmupEpochs == 0}
	s.units, err = buildPEs(cfg, s.measuring)
	if err != nil {
		return nil, err
	}
	dir, err := coherence.NewDirectory(cfg.PEs, cfg.LineSize, s.units.inv)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	s.dir = dir
	return s, nil
}

// MustNew is New for configurations known statically valid.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Home reports the processor whose local memory holds addr under the
// configured distribution.
func (s *System) Home(addr uint64) int {
	switch s.cfg.Dist {
	case Interleaved:
		return int((addr >> s.shift) % uint64(s.cfg.PEs))
	default: // Blocked
		per := s.cfg.Extent / uint64(s.cfg.PEs)
		if per == 0 {
			per = 1
		}
		pe := addr / per
		if pe >= uint64(s.cfg.PEs) {
			pe = uint64(s.cfg.PEs) - 1
		}
		return int(pe)
	}
}

// Ref consumes one reference: the issuing PE's cache is accessed line by
// line, the directory sees the transaction, and misses are classified
// local or remote by home node.
func (s *System) Ref(r trace.Ref) {
	if r.Size == 0 {
		return
	}
	s.refOne(r)
}

// Refs consumes a block of references in emission order. Each reference is
// still processed to completion — cache access, directory transaction,
// invalidation delivery — before the next begins: deferring directory work
// to the end of a block would reorder invalidations relative to accesses
// and change every coherence statistic. The win is the hoisted dispatch
// and per-call prologue, not a changed algorithm. The end of a block is
// where run-scope counters are published (see Instrument).
func (s *System) Refs(block []trace.Ref) {
	for i := range block {
		if block[i].Size == 0 {
			continue
		}
		s.refOne(block[i])
	}
	s.publish(false)
}

func (s *System) refOne(r trace.Ref) {
	read := r.Kind == trace.Read
	first := r.Addr >> s.shift
	last := (r.Addr + uint64(r.Size) - 1) >> s.shift
	for line := first; ; line++ {
		addr := line << s.shift
		miss := s.units.access(r.PE, addr, read)
		if read {
			s.dir.ReadLine(r.PE, line)
		} else {
			s.dir.WriteLine(r.PE, line)
		}
		if miss && s.measuring {
			if s.Home(addr) == r.PE {
				s.stats.LocalMisses++
			} else {
				s.stats.RemoteMisses++
			}
		}
		if line == last {
			break
		}
	}
}

// BeginEpoch advances the epoch counter and flips measurement on once the
// warm-up epochs have passed. The flip publishes every run-scope counter
// before it resets the statistics behind them.
func (s *System) BeginEpoch(n int) {
	s.epoch = n
	on := n >= s.cfg.WarmupEpochs
	if on == s.measuring {
		return
	}
	s.publish(true)
	s.measuring = on
	s.units.setMeasuring(on)
	if on {
		s.dir.ResetStats()
		s.stats, s.pub = Stats{}, Stats{}
	}
}

// Measuring reports whether statistics are currently collected.
func (s *System) Measuring() bool { return s.measuring }

// Profiler returns the profiler attached to pe, or nil.
func (s *System) Profiler(pe int) cache.Profiler {
	if s.units.profilers == nil {
		return nil
	}
	return s.units.profilers[pe]
}

// Cache returns the concrete cache of pe (nil in profile mode).
func (s *System) Cache(pe int) cache.Cache {
	if s.units.caches == nil {
		return nil
	}
	return s.units.caches[pe]
}

// CacheStats aggregates the stats of all concrete caches.
func (s *System) CacheStats() cache.Stats {
	var total cache.Stats
	for _, c := range s.units.caches {
		total.Add(c.Stats())
	}
	return total
}

// Directory exposes the coherence directory (for protocol statistics).
func (s *System) Directory() *coherence.Directory { return s.dir }

// DirectoryStats returns the coherence protocol statistics. It is the
// accessor Machine callers use instead of Directory().
func (s *System) DirectoryStats() coherence.Stats { return s.dir.Stats() }

// Stats returns the local/remote miss classification.
func (s *System) Stats() Stats { return s.stats }

// PEs reports the processor count.
func (s *System) PEs() int { return s.cfg.PEs }

// LineSize reports the configured line size.
func (s *System) LineSize() uint32 { return s.cfg.LineSize }

// Close is the end-of-run barrier that publishes every run-scope counter.
// It never fails and may be called more than once.
func (s *System) Close() error {
	s.publish(true)
	return nil
}

var _ trace.EpochConsumer = (*System)(nil)
var _ trace.BlockConsumer = (*System)(nil)
