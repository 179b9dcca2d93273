package cache

import (
	"fmt"
	"math"
	"sort"

	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// Profiler is the consumer contract shared by the exact StackProfiler and
// the spatially-sampled SampledStackProfiler. Everything downstream of a
// profiler — memsys machines, the figure experiments, ProfileCurve — works
// against this interface, so fidelity (exact vs sampled) is a construction
// choice selected by Options.SampleRate, not a separate code path.
type Profiler interface {
	trace.BlockConsumer

	// Access processes a reference to [addr, addr+size); Invalidate turns
	// the line into a coherence hole (see StackProfiler).
	Access(addr uint64, size uint32, read bool)
	Invalidate(addr uint64)
	// AccessLine processes a one-line reference to the line containing
	// addr and reports whether the profiled stack took a miss at every
	// capacity (cold or coherence), whether or not measurement is on.
	// Under sampling only sampled lines can report one.
	AccessLine(addr uint64, read bool) (miss bool)

	// Measurement window control (cold-start exclusion).
	SetMeasuring(on bool)
	Measuring() bool

	// Configuration and exact access totals. Reads/Writes/Accesses count
	// every measured reference even under sampling — only the stack
	// machinery is sampled, so miss *rates* keep exact denominators.
	LineSize() uint32
	Reads() uint64
	Writes() uint64
	Accesses() uint64
	ColdMisses() (read, write uint64)
	CoherenceMisses() (read, write uint64)
	DistinctLines() int

	// Curve queries (scaled estimates under sampling).
	MissesAt(capacityLines int) MissCount
	Curve(capacitiesLines []int) []MissCount

	// Sampling introspection: the exact profiler answers rate 1, zero
	// sampled lines, zero error bound.
	SampleRate() int
	SampledLines() int
	ErrorBound() float64

	// Observability (run-scope counters; nil Recorder is a no-op).
	// Accesses are counted in a plain run total, and Publish adds what
	// was counted since the last Publish to the run-scope counter.
	Instrument(rec *obs.Recorder)
	Publish()
}

var (
	_ Profiler = (*StackProfiler)(nil)
	_ Profiler = (*SampledStackProfiler)(nil)
)

// SampleRate reports the spatial sampling rate: 1, the exact profiler
// profiles every line.
func (p *StackProfiler) SampleRate() int { return 1 }

// SampledLines reports how many distinct sampled lines back the estimate;
// zero for the exact profiler, whose counts are not estimates.
func (p *StackProfiler) SampledLines() int { return 0 }

// ErrorBound reports the estimated relative error of the miss counts:
// zero, the exact profiler is exact (modulo the documented hole-model
// approximation under invalidations).
func (p *StackProfiler) ErrorBound() float64 { return 0 }

// fpSampleSelect guards the sample-selection seam: profiler construction,
// where the hashed line filter is chosen. Armed with an error it fails the
// machine build (and therefore the experiment) before any reference is
// consumed — the chaos suite proves such failures surface cleanly and
// never cache a result.
var fpSampleSelect = fault.New("cache.sample.select")

// validateSampleRate rejects rates that are not powers of two: the hash
// filter masks low bits, so only power-of-two subsets of the line space
// are selectable, and the canonical `opt.sample` axis promises as much.
func validateSampleRate(rate int) error {
	if rate < 1 || rate&(rate-1) != 0 {
		return fmt.Errorf("%w: sample rate %d is not a power of two ≥ 1", ErrInvalidConfig, rate)
	}
	return nil
}

// NewProfiler builds the profiler Options.SampleRate asks for: the exact
// StackProfiler at rate 1, a SampledStackProfiler at power-of-two rates
// above it. Invalid line sizes or rates return an error wrapping
// ErrInvalidConfig.
func NewProfiler(lineSize uint32, sampleRate int) (Profiler, error) {
	if err := fpSampleSelect.Inject(nil); err != nil {
		return nil, err
	}
	if err := validateSampleRate(sampleRate); err != nil {
		return nil, err
	}
	if sampleRate == 1 {
		return NewStackProfiler(lineSize)
	}
	return NewSampledStackProfiler(lineSize, sampleRate)
}

// SampledStackProfiler estimates the miss-rate curve from a spatially
// hashed 1/R subset of the line space (SHARDS-style): a deterministic
// 64-bit mix of the line index selects lines with hash(line) ≡ 0 (mod R);
// selected lines run through an exact inner StackProfiler, and every
// distance observed on the subset statistically represents R lines, so a
// sampled stack distance d estimates a true distance of d·R and sampled
// miss counts scale by R. Access totals (Reads/Writes) are counted over
// the full stream, keeping miss-rate denominators exact.
//
// The estimator inherits the exact profiler's hole model for
// invalidations, restricted to sampled lines: invalidations of unsampled
// lines are invisible, so coherence-miss estimates carry the same ×R
// scaling variance as capacity misses (see DESIGN.md §12 for the measured
// bounds).
type SampledStackProfiler struct {
	inner *StackProfiler
	rate  uint64
	mask  uint64 // rate-1; line sampled iff sampleHash(line)&mask == 0

	reads, writes uint64 // full-stream measured totals
}

// NewSampledStackProfiler builds a sampled profiler for the given line
// size and sampling rate R (a power of two ≥ 2; rate 1 callers want the
// exact profiler — use NewProfiler to dispatch). Violations return an
// error wrapping ErrInvalidConfig.
func NewSampledStackProfiler(lineSize uint32, sampleRate int) (*SampledStackProfiler, error) {
	if err := validateSampleRate(sampleRate); err != nil {
		return nil, err
	}
	if sampleRate < 2 {
		return nil, fmt.Errorf("%w: sampled profiler needs rate ≥ 2 (rate 1 is the exact profiler)", ErrInvalidConfig)
	}
	inner, err := NewStackProfiler(lineSize)
	if err != nil {
		return nil, err
	}
	return &SampledStackProfiler{
		inner: inner,
		rate:  uint64(sampleRate),
		mask:  uint64(sampleRate) - 1,
	}, nil
}

// sampleHash is the splitmix64 finalizer: a full-avalanche 64-bit mix, so
// the low bits of the hash select a pseudo-random, deterministic subset of
// the line space regardless of the kernel's address striding.
func sampleHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampled reports whether the line is in the profiled subset.
func (p *SampledStackProfiler) sampled(line uint64) bool {
	return sampleHash(line)&p.mask == 0
}

// LineSize reports the configured line size in bytes.
func (p *SampledStackProfiler) LineSize() uint32 { return p.inner.lineSize }

// SetMeasuring toggles statistics collection. State updates always happen.
func (p *SampledStackProfiler) SetMeasuring(on bool) { p.inner.SetMeasuring(on) }

// Measuring reports whether statistics are being collected.
func (p *SampledStackProfiler) Measuring() bool { return p.inner.Measuring() }

// Access processes a reference to [addr, addr+size): every touched line
// counts toward the exact access totals, and the sampled subset feeds the
// inner stack simulation.
func (p *SampledStackProfiler) Access(addr uint64, size uint32, read bool) {
	if size == 0 {
		return
	}
	p.inner.accesses++
	first := addr >> p.inner.shift
	last := (addr + uint64(size) - 1) >> p.inner.shift
	for line := first; ; line++ {
		p.count(line, read)
		if line == last {
			break
		}
	}
}

// AccessLine processes a one-line reference to the line containing addr
// and reports whether it was sampled and missed at every capacity.
func (p *SampledStackProfiler) AccessLine(addr uint64, read bool) bool {
	p.inner.accesses++
	return p.count(addr>>p.inner.shift, read)
}

// count adds one line access to the full-stream totals and feeds a
// sampled line to the inner stack, reporting whether it missed there.
func (p *SampledStackProfiler) count(line uint64, read bool) bool {
	if p.inner.measuring {
		if read {
			p.reads++
		} else {
			p.writes++
		}
	}
	return p.sampled(line) && p.inner.touch(line, read)
}

// Ref feeds one reference to the profiler (the issuing PE is ignored, as
// with StackProfiler).
func (p *SampledStackProfiler) Ref(r trace.Ref) {
	p.Access(r.Addr, r.Size, r.Kind == trace.Read)
}

// Refs feeds a block of references to the profiler in order.
func (p *SampledStackProfiler) Refs(block []trace.Ref) {
	for i := range block {
		p.Access(block[i].Addr, block[i].Size, block[i].Kind == trace.Read)
	}
}

// Invalidate forwards invalidations of sampled lines to the inner
// profiler; invalidations of unsampled lines cannot affect the sampled
// stack and are dropped.
func (p *SampledStackProfiler) Invalidate(addr uint64) {
	if p.sampled(addr >> p.inner.shift) {
		p.inner.Invalidate(addr)
	}
}

// DistinctLines estimates the distinct lines on the full stack: the
// sampled count scaled by R.
func (p *SampledStackProfiler) DistinctLines() int {
	return p.inner.DistinctLines() * int(p.rate)
}

// Reads reports measured read accesses over the full (unsampled) stream.
func (p *SampledStackProfiler) Reads() uint64 { return p.reads }

// Writes reports measured write accesses over the full (unsampled) stream.
func (p *SampledStackProfiler) Writes() uint64 { return p.writes }

// Accesses reports measured reads plus writes over the full stream.
func (p *SampledStackProfiler) Accesses() uint64 { return p.reads + p.writes }

// ColdMisses estimates measured cold misses (read, write): sampled counts
// scaled by R.
func (p *SampledStackProfiler) ColdMisses() (read, write uint64) {
	r, w := p.inner.ColdMisses()
	return r * p.rate, w * p.rate
}

// CoherenceMisses estimates measured coherence misses (read, write):
// sampled counts scaled by R.
func (p *SampledStackProfiler) CoherenceMisses() (read, write uint64) {
	r, w := p.inner.CoherenceMisses()
	return r * p.rate, w * p.rate
}

// MissesAt estimates the miss counts for a fully associative LRU cache of
// the given capacity: the sampled subset behaves like the full stream in a
// cache R times smaller, so capacity C is answered by the inner profiler
// at C/R with counts scaled by R.
func (p *SampledStackProfiler) MissesAt(capacityLines int) MissCount {
	mc := p.inner.MissesAt(capacityLines / int(p.rate))
	mc.CapacityLines = capacityLines
	mc.ReadMisses *= p.rate
	mc.WriteMisses *= p.rate
	return mc
}

// Curve estimates miss counts for each capacity, mapping each capacity to
// the inner profiler's scaled-down stack as MissesAt does. Like the exact
// profiler's Curve, the result is always ascending by capacity.
func (p *SampledStackProfiler) Curve(capacitiesLines []int) []MissCount {
	if !sort.IntsAreSorted(capacitiesLines) {
		sorted := make([]int, len(capacitiesLines))
		copy(sorted, capacitiesLines)
		sort.Ints(sorted)
		capacitiesLines = sorted
	}
	out := make([]MissCount, len(capacitiesLines))
	for i, c := range capacitiesLines {
		out[i] = p.MissesAt(c)
	}
	return out
}

// SampleRate reports the spatial sampling rate R.
func (p *SampledStackProfiler) SampleRate() int { return int(p.rate) }

// SampledLines reports how many distinct sampled lines back the estimate
// (the inner profiler's resident line count).
func (p *SampledStackProfiler) SampledLines() int { return p.inner.DistinctLines() }

// ErrorBound estimates the relative error of the scaled miss counts as
// 1/sqrt(sampled lines) — the usual estimator-variance bound for
// uniform spatial sampling. Zero sampled lines (nothing measured yet, or
// a stream too small for the rate) answers 1: no confidence.
func (p *SampledStackProfiler) ErrorBound() float64 {
	n := p.inner.DistinctLines()
	if n <= 0 {
		return 1
	}
	return 1 / math.Sqrt(float64(n))
}

// Instrument attaches run-scope counters from rec (accesses processed,
// histogram queries answered) to the inner profiler, which fronts both.
func (p *SampledStackProfiler) Instrument(rec *obs.Recorder) {
	p.inner.Instrument(rec)
}

// Publish publishes the inner profiler's access total, which counts every
// reference, sampled or not.
func (p *SampledStackProfiler) Publish() { p.inner.Publish() }

var _ trace.BlockConsumer = (*SampledStackProfiler)(nil)
