package wss

// Design-choice ablation studies (the DESIGN.md section 4 items) and the
// sampling error/throughput harness, run with `go test -bench`. They
// measure what the bench/ ledger does not: the cost of one design
// against another on a fixed input, and the sampled profiler's error.
// Every end-to-end and per-layer timing lives in the ledger
// (`bash bench/run.sh`).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wsstudy/internal/apps/barneshut"
	"wsstudy/internal/apps/cg"
	"wsstudy/internal/apps/fft"
	"wsstudy/internal/cache"
	"wsstudy/internal/trace"
)

// Ablation: one stack-distance pass versus a bank of exact LRU caches at
// 16 sizes, over the same random trace. The profiler should win by an
// order of magnitude while producing identical counts (asserted in the
// cache package's tests).
func ablationTrace(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, n)
	for i := range addrs {
		// Mixture of a hot set and a cold stream, like a real kernel.
		if rng.Intn(4) == 0 {
			addrs[i] = uint64(rng.Intn(1<<16) * 8)
		} else {
			addrs[i] = uint64(rng.Intn(512) * 8)
		}
	}
	return addrs
}

func ablationSizes() []int {
	sizes := make([]int, 0, 16)
	for s := 4; s <= 1<<17; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

func BenchmarkAblationStackProfiler(b *testing.B) {
	addrs := ablationTrace(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := cache.MustStackProfiler(8)
		for _, a := range addrs {
			p.Access(a, 8, true)
		}
		p.Curve(ablationSizes())
	}
	b.ReportMetric(float64(len(addrs)), "refs/op")
}

func BenchmarkAblationLRUBank(b *testing.B) {
	addrs := ablationTrace(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := cache.MustBank(ablationSizes(), 8)
		for _, a := range addrs {
			bank.Access(a, 8, true)
		}
		bank.Curve()
	}
	b.ReportMetric(float64(len(addrs)), "refs/op")
}

// cgTrace1024 records one CG solve partitioned across 1024 processors,
// the paper-scale reference stream.
var cgTraceCache struct {
	once sync.Once
	refs []trace.Ref
	err  error
}

func cgTrace1024(b *testing.B) []trace.Ref {
	b.Helper()
	cgTraceCache.once.Do(func() {
		part, err := cg.NewPartition2D(64, 32, 32, nil)
		if err != nil {
			cgTraceCache.err = err
			return
		}
		rec := &trace.Recorder{}
		s := cg.NewSolver2D(part, rec)
		rhs := make([]float64, 64*64)
		for i := range rhs {
			rhs[i] = 1
		}
		s.SetB(rhs)
		_, cgTraceCache.err = s.Solve(cg.Config{MaxIters: 2})
		cgTraceCache.refs = rec.Refs
	})
	if cgTraceCache.err != nil {
		b.Fatal(cgTraceCache.err)
	}
	return cgTraceCache.refs
}

// BenchmarkSampledProfiler is the sampling error/throughput harness:
// the captured paper-scale CG stream (1024 PEs) pushed through the
// stack-distance profiler at spatial sampling rates 1 through 64. Each
// sampled row reports, besides wall-clock, the measured worst relative
// curve error against the exact run on the octave grid (restricted to
// capacities ≥ 32·R lines, the estimator's trusted region — see
// DESIGN.md §12) alongside the estimator's own 1/sqrt(n) population
// bound, so one run shows both the speedup and the fidelity price at
// every rate (BENCH_PR10.json archives such a run).
func BenchmarkSampledProfiler(b *testing.B) {
	refs := cgTrace1024(b)
	var grid []int
	for c := 8; c <= 1<<18; c *= 2 {
		grid = append(grid, c)
	}
	feed := func(p cache.Profiler) {
		p.SetMeasuring(true)
		for i := range refs {
			p.Access(refs[i].Addr, refs[i].Size, refs[i].Kind == trace.Read)
		}
	}
	exact := cache.MustStackProfiler(8)
	feed(exact)
	exactCurve := exact.Curve(grid)

	for _, rate := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			var p cache.Profiler
			for i := 0; i < b.N; i++ {
				var err error
				p, err = cache.NewProfiler(8, rate)
				if err != nil {
					b.Fatal(err)
				}
				feed(p)
			}
			b.ReportMetric(float64(len(refs)), "refs/op")
			if rate == 1 {
				return
			}
			curve := p.Curve(grid)
			worst := 0.0
			for i, c := range grid {
				if c < 32*rate {
					continue
				}
				e := float64(exactCurve[i].Misses())
				if e == 0 {
					continue
				}
				if rel := (float64(curve[i].Misses()) - e) / e; rel > worst {
					worst = rel
				} else if -rel > worst {
					worst = -rel
				}
			}
			b.ReportMetric(worst, "maxrelerr")
			b.ReportMetric(p.ErrorBound(), "errbound")
			b.ReportMetric(float64(p.SampledLines()), "sampledlines")
		})
	}
}

// Design-choice ablation sweeps (the DESIGN.md section 4 items): each
// reports the knob's effect as a custom metric.

func BenchmarkAblationThetaSweep(b *testing.B) {
	for _, theta := range []float64{0.5, 0.8, 1.2} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			bodies := barneshut.Plummer(512, 1)
			sim, err := barneshut.NewSimulation(bodies, barneshut.Config{
				Theta: theta, Quadrupole: true, Eps: 0.05, DT: 0.003, P: 4,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			var inter float64
			for i := 0; i < b.N; i++ {
				st, err := sim.Step()
				if err != nil {
					b.Fatal(err)
				}
				inter = st.InteractionsPerBody(512)
			}
			b.ReportMetric(inter, "interactions/body")
		})
	}
}

func BenchmarkAblationRadixSweep(b *testing.B) {
	for _, radix := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("radix=%d", radix), func(b *testing.B) {
			f, err := fft.New(fft.Config{LogN: 14, P: 4, InternalRadix: radix}, nil)
			if err != nil {
				b.Fatal(err)
			}
			x := make([]complex128, 1<<14)
			for i := range x {
				x[i] = complex(float64(i%31), 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.SetInput(x)
				f.Run()
			}
		})
	}
}

func BenchmarkAblationCGTileSweep(b *testing.B) {
	for _, tile := range []int{0, 8, 16} {
		b.Run(fmt.Sprintf("tile=%d", tile), func(b *testing.B) {
			part, err := cg.NewPartition2D(128, 2, 2, nil)
			if err != nil {
				b.Fatal(err)
			}
			s := cg.NewSolver2D(part, nil)
			if tile > 0 {
				s.SetTileSize(tile)
			}
			rhs := make([]float64, 128*128)
			for i := range rhs {
				rhs[i] = 1
			}
			s.SetB(rhs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(cg.Config{MaxIters: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
