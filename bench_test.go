package wss

// One benchmark per paper artifact (figure/table), plus ablation and
// kernel micro-benchmarks. Each figure/table benchmark regenerates its
// artifact end to end in quick mode; `go test -bench=. -benchmem` is the
// reproduction sweep, and `wsstudy all` prints the full-scale renderings.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wsstudy/internal/apps/barneshut"
	"wsstudy/internal/apps/cg"
	"wsstudy/internal/apps/fft"
	"wsstudy/internal/apps/lu"
	"wsstudy/internal/apps/volrend"
	"wsstudy/internal/cache"
	"wsstudy/internal/core"
	"wsstudy/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := core.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(context.Background(), core.Options{Scale: core.ScaleQuick})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Figures) == 0 && len(rep.Tables) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Figures.

func BenchmarkFig2LU(b *testing.B)                { benchExperiment(b, "fig2") }
func BenchmarkFig4CG(b *testing.B)                { benchExperiment(b, "fig4") }
func BenchmarkFig5FFT(b *testing.B)               { benchExperiment(b, "fig5") }
func BenchmarkFig6BarnesHut(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7Volrend(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkBarnesHutDirectMapped(b *testing.B) { benchExperiment(b, "fig6dm") }

// Tables and analyses.

func BenchmarkTable1Growth(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2Summary(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkMachines(b *testing.B)       { benchExperiment(b, "machines") }
func BenchmarkGrainScenarios(b *testing.B) { benchExperiment(b, "grain") }
func BenchmarkScalingBH(b *testing.B)      { benchExperiment(b, "scalingbh") }
func BenchmarkCostModel(b *testing.B)      { benchExperiment(b, "cost") }
func BenchmarkAssocSweep(b *testing.B)     { benchExperiment(b, "assoc") }
func BenchmarkLineSizeStudy(b *testing.B)  { benchExperiment(b, "linesize") }
func BenchmarkScalingAll(b *testing.B)     { benchExperiment(b, "scalingall") }
func BenchmarkPhases(b *testing.B)         { benchExperiment(b, "phases") }
func BenchmarkBusTraffic(b *testing.B)     { benchExperiment(b, "bus") }

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

// Reference-delivery benchmarks: the cost of moving the stream from the
// kernel to the simulator, isolated from both. The captured LU trace is
// recorded once and replayed through each delivery mechanism.

var luTraceCache struct {
	once sync.Once
	refs []trace.Ref
	err  error
}

// luTrace records one LU factorization's reference stream.
func luTrace(b *testing.B) []trace.Ref {
	b.Helper()
	luTraceCache.once.Do(func() {
		rec := &trace.Recorder{}
		m := lu.NewBlockMatrix(64, 8, nil)
		m.FillRandomDominant(1)
		_, luTraceCache.err = lu.FactorTraced(m, lu.Grid{PR: 2, PC: 2}, rec)
		luTraceCache.refs = rec.Refs
	})
	if luTraceCache.err != nil {
		b.Fatal(luTraceCache.err)
	}
	return luTraceCache.refs
}

// BenchmarkRefDelivery measures the delivery chain `wstrace analyze`
// runs — context guard → PEFilter → counting consumer — over the captured
// LU trace. perRef is the legacy pipeline: every reference crosses the
// chain as a cascade of virtual calls. block is the refactored pipeline:
// one dispatch per DefaultBlockSize block, with the filter slicing out
// contiguous same-PE runs instead of re-dispatching each reference.
// batched pushes every reference through the kernel-boundary Batcher
// (buffer append plus one block delivery per 512), so the three rows
// separate buffering cost from delivery cost under an identical producer
// loop. The refactor's headline requirement is block ≥ 2× perRef
// throughput.
func BenchmarkRefDelivery(b *testing.B) {
	refs := luTrace(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.Run("perRef", func(b *testing.B) {
		var c trace.Counter
		sink := trace.WithContext(ctx, trace.PEFilter{PE: 1, Next: &c})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range refs {
				sink.Ref(refs[j])
			}
		}
		b.ReportMetric(float64(len(refs)), "refs/op")
	})
	b.Run("block", func(b *testing.B) {
		var c trace.BlockCounter
		sink := trace.WithContext(ctx, trace.PEFilter{PE: 1, Next: &c})
		blocks := trace.Blocks(refs, trace.DefaultBlockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, blk := range blocks {
				trace.Deliver(sink, blk)
			}
		}
		b.ReportMetric(float64(len(refs)), "refs/op")
	})
	b.Run("batched", func(b *testing.B) {
		var c trace.BlockCounter
		batch := trace.NewBatcher(trace.WithContext(ctx, trace.PEFilter{PE: 1, Next: &c}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range refs {
				batch.Ref(refs[j])
			}
			batch.Flush()
		}
		b.ReportMetric(float64(len(refs)), "refs/op")
	})
}

// benchProfilers builds independent stack-distance profilers — the
// fig6dm shape: one kernel run fanned out to simulators whose
// per-reference work (Fenwick updates, hash lookups) dwarfs delivery
// cost, which is exactly when concurrent fan-out pays.
func benchProfilers(b *testing.B, n int) []trace.Consumer {
	b.Helper()
	cs := make([]trace.Consumer, n)
	for i := range cs {
		cs[i] = cache.MustStackProfiler(8)
	}
	return cs
}

// BenchmarkFanout compares serial Tee delivery against the sharded
// Fanout delivery of the captured LU trace into four independent
// profilers. Simulator construction happens with the timer stopped, so
// ns/op and B/op measure delivery plus simulation only (the PR2 numbers
// mixed in per-iteration profiler allocation; the steady-state alloc
// guarantee itself is pinned by AllocsPerRun guards in internal/trace).
func BenchmarkFanout(b *testing.B) {
	refs := luTrace(b)
	blocks := trace.Blocks(refs, trace.DefaultBlockSize)
	b.Run("tee", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tee := trace.Tee(benchProfilers(b, 4))
			b.StartTimer()
			for _, blk := range blocks {
				tee.Refs(blk)
			}
		}
		b.ReportMetric(float64(len(refs)), "refs/op")
	})
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cs := benchProfilers(b, 4)
			b.StartTimer()
			fan, err := trace.NewFanout(cs...)
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range blocks {
				fan.Refs(blk)
			}
			if err := fan.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(refs)), "refs/op")
	})
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
// bound, so the archived BENCH file records both the speedup and the
// fidelity price at every rate.
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

// Kernel micro-benchmarks: raw application throughput, untraced and
// traced, quantifying the cost of emitting the reference stream.

func BenchmarkLUFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := lu.NewBlockMatrix(128, 8, nil)
		m.FillRandomDominant(1)
		b.StartTimer()
		if err := lu.Factor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUFactorTraced(b *testing.B) {
	var sink trace.Counter
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := lu.NewBlockMatrix(128, 8, nil)
		m.FillRandomDominant(1)
		b.StartTimer()
		if _, err := lu.FactorTraced(m, lu.Grid{PR: 2, PC: 2}, &sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGIteration(b *testing.B) {
	part, err := cg.NewPartition2D(128, 2, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := cg.NewSolver2D(part, nil)
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
}

func BenchmarkFFT64K(b *testing.B) {
	f, err := fft.New(fft.Config{LogN: 16, P: 4, InternalRadix: 8}, nil)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 1<<16)
	for i := range x {
		x[i] = complex(float64(i%31), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SetInput(x)
		f.Run()
	}
}

func BenchmarkBarnesHutStep(b *testing.B) {
	bodies := barneshut.Plummer(1024, 1)
	sim, err := barneshut.NewSimulation(bodies, barneshut.Config{
		Theta: 1.0, Quadrupole: true, Eps: 0.05, DT: 0.003, P: 4,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var inter int
	for i := 0; i < b.N; i++ {
		st, err := sim.Step()
		if err != nil {
			b.Fatal(err)
		}
		inter = st.Interactions
	}
	b.ReportMetric(float64(inter), "interactions/step")
}

func BenchmarkVolrendFrame(b *testing.B) {
	vol := volrend.SyntheticHead(64, 64, 56)
	ren, err := volrend.NewRenderer(vol, volrend.Config{ImageW: 96, ImageH: 96, P: 4}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var samples int
	for i := 0; i < b.N; i++ {
		st, _ := ren.RenderFrame(0.03 * float64(i))
		samples = st.Samples
	}
	b.ReportMetric(float64(samples), "samples/frame")
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
