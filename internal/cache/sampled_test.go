package cache

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wsstudy/internal/fault"
)

// TestNewProfilerDispatch: rate 1 must yield the exact profiler (the
// equivalence gate depends on it — no sampled code on the rate-1 path),
// higher powers of two the sampled one, and anything else an error.
func TestNewProfilerDispatch(t *testing.T) {
	p, err := NewProfiler(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*StackProfiler); !ok {
		t.Fatalf("rate 1 built %T, want *StackProfiler", p)
	}
	if p.SampleRate() != 1 || p.SampledLines() != 0 || p.ErrorBound() != 0 {
		t.Errorf("exact profiler sampling introspection: rate=%d lines=%d bound=%g",
			p.SampleRate(), p.SampledLines(), p.ErrorBound())
	}
	p, err = NewProfiler(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*SampledStackProfiler); !ok {
		t.Fatalf("rate 16 built %T, want *SampledStackProfiler", p)
	}
	if p.SampleRate() != 16 {
		t.Errorf("SampleRate = %d, want 16", p.SampleRate())
	}
	for _, bad := range []int{0, -1, 3, 12, 1 << 20} {
		if _, err := NewProfiler(8, bad); bad != 1<<20 && !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("rate %d: err = %v, want ErrInvalidConfig", bad, err)
		}
	}
	if _, err := NewSampledStackProfiler(8, 1); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("sampled profiler accepted rate 1: %v", err)
	}
}

// TestSampleSelectFailpoint: arming "cache.sample.select" fails profiler
// construction with the injected error — the machine build surfaces it
// before any reference is consumed.
func TestSampleSelectFailpoint(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	if err := fault.Arm("cache.sample.select", fault.Trigger{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProfiler(8, 16); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("armed failpoint: err = %v, want ErrInjected", err)
	}
	// Disarmed after Count: the next construction succeeds.
	if _, err := NewProfiler(8, 16); err != nil {
		t.Fatalf("after failpoint drained: %v", err)
	}
}

// TestSampledExactDenominators: access totals under sampling count every
// measured reference, not just sampled lines, and respect the measuring
// window exactly like the exact profiler.
func TestSampledExactDenominators(t *testing.T) {
	exact, _ := NewStackProfiler(8)
	samp, _ := NewSampledStackProfiler(8, 8)
	feed := func(p Profiler, measuring bool) {
		p.SetMeasuring(measuring)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			p.Access(uint64(rng.Intn(1<<16))*8, 8, rng.Intn(4) != 0)
		}
	}
	feed(exact, false)
	feed(samp, false)
	if samp.Reads() != 0 || samp.Writes() != 0 {
		t.Fatalf("cold-start window counted: reads=%d writes=%d", samp.Reads(), samp.Writes())
	}
	feed(exact, true)
	feed(samp, true)
	if samp.Reads() != exact.Reads() || samp.Writes() != exact.Writes() {
		t.Errorf("sampled denominators reads=%d writes=%d, exact reads=%d writes=%d",
			samp.Reads(), samp.Writes(), exact.Reads(), exact.Writes())
	}
	if samp.Accesses() != exact.Accesses() {
		t.Errorf("Accesses %d != %d", samp.Accesses(), exact.Accesses())
	}
}

// TestSampledCurveTracksExact: on a two-working-set synthetic stream the
// sampled curve must land within a modest relative error of the exact
// one at every capacity that holds at least a few sampled lines. This is
// the unit-scale version of the kernel-level accuracy harness in
// internal/core.
func TestSampledCurveTracksExact(t *testing.T) {
	const rate = 16
	exact, _ := NewStackProfiler(8)
	samp, _ := NewSampledStackProfiler(8, rate)
	feed := func(p Profiler) {
		p.SetMeasuring(true)
		rng := rand.New(rand.NewSource(11))
		// Small hot set revisited constantly, large cold set streamed:
		// a knee near 4096 lines and a plateau past 65536.
		for i := 0; i < 400000; i++ {
			var line uint64
			if i%4 != 0 {
				line = uint64(rng.Intn(4096))
			} else {
				line = 4096 + uint64(rng.Intn(65536))
			}
			p.Access(line*8, 8, true)
		}
	}
	feed(exact)
	feed(samp)

	caps := []int{1024, 4096, 16384, 65536, 131072}
	ec := exact.Curve(caps)
	sc := samp.Curve(caps)
	for i, c := range caps {
		e := float64(ec[i].Misses())
		s := float64(sc[i].Misses())
		if e == 0 {
			continue
		}
		if rel := math.Abs(s-e) / e; rel > 0.15 {
			t.Errorf("capacity %d: sampled %g vs exact %g (rel err %.3f > 0.15)", c, s, e, rel)
		}
	}
	if got := samp.SampledLines(); got == 0 {
		t.Fatal("no lines sampled")
	}
	// The distinct-line estimate scales back to the true population
	// within the estimator's own error bound (with margin).
	trueLines := float64(exact.DistinctLines())
	estLines := float64(samp.DistinctLines())
	if rel := math.Abs(estLines-trueLines) / trueLines; rel > 3*samp.ErrorBound() {
		t.Errorf("DistinctLines estimate %g vs true %g (rel err %.3f, bound %.3f)",
			estLines, trueLines, rel, samp.ErrorBound())
	}
}

// TestSampledCurveUnsortedInput: like the exact profiler, Curve answers
// ascending capacities even for unsorted input, without mutating the
// caller's slice.
func TestSampledCurveUnsortedInput(t *testing.T) {
	samp, _ := NewSampledStackProfiler(8, 4)
	samp.SetMeasuring(true)
	for i := 0; i < 10000; i++ {
		samp.Access(uint64(i%3000)*8, 8, true)
	}
	in := []int{512, 64, 4096, 1024}
	out := samp.Curve(in)
	for i := 1; i < len(out); i++ {
		if out[i].CapacityLines <= out[i-1].CapacityLines {
			t.Fatalf("curve not ascending: %v then %v", out[i-1].CapacityLines, out[i].CapacityLines)
		}
		if out[i].Misses() > out[i-1].Misses() {
			t.Errorf("misses increased with capacity: %d -> %d", out[i-1].Misses(), out[i].Misses())
		}
	}
	if in[0] != 512 || in[2] != 4096 {
		t.Error("Curve mutated the caller's capacity slice")
	}
}

// TestSampledInvalidate: invalidations of sampled lines register as
// coherence misses on re-reference (scaled by R); unsampled lines are
// dropped without touching the inner stack.
func TestSampledInvalidate(t *testing.T) {
	const rate = 4
	samp, _ := NewSampledStackProfiler(8, rate)
	samp.SetMeasuring(true)
	// Find one sampled and one unsampled line.
	sampled, unsampled := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for l := uint64(0); l < 1000; l++ {
		if samp.sampled(l) {
			if sampled == math.MaxUint64 {
				sampled = l
			}
		} else if unsampled == math.MaxUint64 {
			unsampled = l
		}
	}
	if sampled == math.MaxUint64 || unsampled == math.MaxUint64 {
		t.Fatal("could not find both a sampled and an unsampled line")
	}
	samp.Access(sampled*8, 8, true)
	samp.Access(unsampled*8, 8, true)
	samp.Invalidate(sampled * 8)
	samp.Invalidate(unsampled * 8) // must be a no-op, not a panic
	samp.Access(sampled*8, 8, true)
	samp.Access(unsampled*8, 8, true)
	r, _ := samp.CoherenceMisses()
	if r != rate {
		t.Errorf("coherence read misses = %d, want %d (1 sampled invalidation x rate)", r, rate)
	}
}

// TestAccessLineReportsMisses holds AccessLine to the contract memsys
// classifies misses by: it reports a miss exactly when the profiler's
// cold or coherence count grows (measurement on), it reports misses with
// measurement off too, and it leaves the profiler in the state Access
// with a one-byte reference would, for the exact and the sampled
// profiler alike.
func TestAccessLineReportsMisses(t *testing.T) {
	for _, rate := range []int{1, 4} {
		p, _ := NewProfiler(8, rate)
		twin, _ := NewProfiler(8, rate)
		rng := rand.New(rand.NewSource(5))
		misses := func() uint64 {
			cr, cw := p.ColdMisses()
			hr, hw := p.CoherenceMisses()
			return cr + cw + hr + hw
		}
		warmMisses := 0
		for i := 0; i < 30000; i++ {
			measuring := i >= 5000
			p.SetMeasuring(measuring)
			twin.SetMeasuring(measuring)
			addr := uint64(rng.Intn(400))*8 + uint64(rng.Intn(8))
			if rng.Intn(20) == 0 {
				p.Invalidate(addr)
				twin.Invalidate(addr)
				continue
			}
			read := rng.Intn(3) != 0
			before := misses()
			miss := p.AccessLine(addr, read)
			twin.Access(addr, 1, read)
			if !measuring {
				if miss {
					warmMisses++
				}
				continue
			}
			if grew := misses() > before; miss != grew {
				t.Fatalf("rate %d step %d: AccessLine = %v, miss counts grew %v", rate, i, miss, grew)
			}
		}
		if warmMisses == 0 {
			t.Errorf("rate %d: no miss reported while not measuring", rate)
		}
		caps := []int{1, 4, 16, 64, 256, 1024}
		if got, want := p.Curve(caps), twin.Curve(caps); !slices.Equal(got, want) {
			t.Errorf("rate %d: AccessLine curve %v, Access curve %v", rate, got, want)
		}
		if p.Reads() != twin.Reads() || p.Writes() != twin.Writes() || p.DistinctLines() != twin.DistinctLines() {
			t.Errorf("rate %d: AccessLine totals diverge from Access", rate)
		}
	}
}
