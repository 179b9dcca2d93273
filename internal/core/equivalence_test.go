package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wsstudy/internal/apps/barneshut"
	"wsstudy/internal/apps/cg"
	"wsstudy/internal/apps/fft"
	"wsstudy/internal/apps/lu"
	"wsstudy/internal/apps/volrend"
	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// The block-delivery refactor promises bit-identical simulation results:
// batching changes only the granularity of delivery, never the order, so
// every kernel must produce the same miss curves, knees and directory
// statistics whether its references arrive one at a time (the legacy
// per-Ref path), in blocks (the native path), or through a concurrent
// Fanout. This suite runs all five kernels at small sizes through all
// three paths and compares every statistic the experiments read.

// refOnly hides a memory system's block and stopper methods so the Batcher
// falls back to ref-by-ref delivery — reproducing the pre-block legacy
// path exactly, including where epoch boundaries land in the stream.
type refOnly struct{ sys *memsys.System }

func (r refOnly) Ref(t trace.Ref)  { r.sys.Ref(t) }
func (r refOnly) BeginEpoch(n int) { r.sys.BeginEpoch(n) }

// kernelCase runs one application kernel deterministically into sink.
// Every case uses 4 processors so one memsys.Config fits all.
type kernelCase struct {
	name string
	warm int // warmup epochs, to exercise mid-stream BeginEpoch placement
	run  func(t *testing.T, sink trace.Consumer)
}

func equivalenceKernels() []kernelCase {
	return []kernelCase{
		{name: "lu", warm: 0, run: func(t *testing.T, sink trace.Consumer) {
			m := lu.NewBlockMatrix(32, 8, nil)
			m.FillRandomDominant(1)
			if _, err := lu.FactorTraced(m, lu.Grid{PR: 2, PC: 2}, sink); err != nil {
				t.Fatalf("lu: %v", err)
			}
		}},
		{name: "cg", warm: 1, run: func(t *testing.T, sink trace.Consumer) {
			part, err := cg.NewPartition2D(16, 2, 2, nil)
			if err != nil {
				t.Fatalf("cg: %v", err)
			}
			solver := cg.NewSolver2D(part, sink)
			b := make([]float64, 16*16)
			for i := range b {
				b[i] = 1
			}
			solver.SetB(b)
			if _, err := solver.Solve(cg.Config{MaxIters: 4}); err != nil {
				t.Fatalf("cg: %v", err)
			}
		}},
		{name: "fft", warm: 0, run: func(t *testing.T, sink trace.Consumer) {
			f, err := fft.New(fft.Config{LogN: 8, P: 4, InternalRadix: 4}, sink)
			if err != nil {
				t.Fatalf("fft: %v", err)
			}
			x := make([]complex128, 1<<8)
			for i := range x {
				x[i] = complex(float64(i%17)-8, float64(i%13)-6)
			}
			f.SetInput(x)
			if err := f.Run(); err != nil {
				t.Fatalf("fft: %v", err)
			}
		}},
		{name: "barneshut", warm: 1, run: func(t *testing.T, sink trace.Consumer) {
			bodies := barneshut.Plummer(64, 42)
			sim, err := barneshut.NewSimulation(bodies, barneshut.Config{
				Theta: 1.0, Quadrupole: true, Eps: 0.05, DT: 0.003, P: 4,
			}, sink)
			if err != nil {
				t.Fatalf("barneshut: %v", err)
			}
			for s := 0; s < 3; s++ {
				if _, err := sim.Step(); err != nil {
					t.Fatalf("barneshut: %v", err)
				}
			}
		}},
		{name: "volrend", warm: 1, run: func(t *testing.T, sink trace.Consumer) {
			vol := volrend.SyntheticHead(16, 16, 14)
			ren, err := volrend.NewRenderer(vol, volrend.Config{
				ImageW: 24, ImageH: 24, P: 4,
			}, sink)
			if err != nil {
				t.Fatalf("volrend: %v", err)
			}
			for f := 0; f < 2; f++ {
				if _, err := ren.RenderFrame(0.04 * float64(f)); err != nil {
					t.Fatalf("volrend: %v", err)
				}
			}
		}},
	}
}

// profSnapshot captures everything the experiments read from a profiling
// memory system. All fields are comparable with reflect.DeepEqual.
type profSnapshot struct {
	Curve        []cache.MissCount
	ColdR, ColdW uint64
	CohR, CohW   uint64
	Reads        uint64
	Writes       uint64
	Dir          coherence.Stats
	Sys          memsys.Stats
}

func profSnap(sys memsys.Machine, pe int, caps []int) profSnapshot {
	p := sys.Profiler(pe)
	return profSnapshot{
		Curve: p.Curve(caps),
		ColdR: func() uint64 { r, _ := p.ColdMisses(); return r }(),
		ColdW: func() uint64 { _, w := p.ColdMisses(); return w }(),
		CohR:  func() uint64 { r, _ := p.CoherenceMisses(); return r }(),
		CohW:  func() uint64 { _, w := p.CoherenceMisses(); return w }(),
		Reads: p.Reads(), Writes: p.Writes(),
		Dir: sys.DirectoryStats(),
		Sys: sys.Stats(),
	}
}

// cacheSnapshot captures the per-PE stats of a concrete-cache system.
type cacheSnapshot struct {
	Caches []cache.Stats
	Dir    coherence.Stats
	Sys    memsys.Stats
}

func cacheSnap(sys memsys.Machine) cacheSnapshot {
	s := cacheSnapshot{Dir: sys.DirectoryStats(), Sys: sys.Stats()}
	for pe := 0; pe < sys.PEs(); pe++ {
		s.Caches = append(s.Caches, sys.Cache(pe).Stats())
	}
	return s
}

// runPath runs a kernel into a fresh system wrapped by mk, closing any
// Fanout before snapshots are taken.
func runPath(t *testing.T, k kernelCase, cfg memsys.Config, mk func(*memsys.System) trace.Consumer) *memsys.System {
	t.Helper()
	sys := memsys.MustNew(cfg)
	sink := mk(sys)
	k.run(t, sink)
	if fan, ok := sink.(*trace.Fanout); ok {
		if err := fan.Close(); err != nil {
			t.Fatalf("fanout close: %v", err)
		}
	}
	return sys
}

func mkNative(s *memsys.System) trace.Consumer { return s }
func mkLegacy(s *memsys.System) trace.Consumer { return refOnly{s} }
func mkFanout(t *testing.T) func(*memsys.System) trace.Consumer {
	return func(s *memsys.System) trace.Consumer {
		fan, err := trace.NewFanout(s)
		if err != nil {
			t.Fatalf("fanout: %v", err)
		}
		return fan
	}
}

// TestBlockEquivalence proves the tentpole invariant: for every kernel,
// the native block path and the concurrent Fanout path produce statistics
// bit-identical to the legacy per-Ref path, under both a fully associative
// stack profiler and a concrete direct-mapped cache.
func TestBlockEquivalence(t *testing.T) {
	caps := []int{8, 64, 512, 4096} // lines; spans the kernels' knees
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			profCfg := memsys.Config{
				PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
			}
			legacy := profSnap(runPath(t, k, profCfg, mkLegacy), 1, caps)
			native := profSnap(runPath(t, k, profCfg, mkNative), 1, caps)
			fanned := profSnap(runPath(t, k, profCfg, mkFanout(t)), 1, caps)
			if !reflect.DeepEqual(native, legacy) {
				t.Errorf("profiler: block path diverged from per-Ref path\nblock:  %+v\nlegacy: %+v", native, legacy)
			}
			if !reflect.DeepEqual(fanned, legacy) {
				t.Errorf("profiler: fanout path diverged from per-Ref path\nfanout: %+v\nlegacy: %+v", fanned, legacy)
			}

			dmCfg := memsys.Config{
				PEs: 4, LineSize: 8, CacheCapacity: 256, Assoc: 1, WarmupEpochs: k.warm,
			}
			legacyDM := cacheSnap(runPath(t, k, dmCfg, mkLegacy))
			nativeDM := cacheSnap(runPath(t, k, dmCfg, mkNative))
			fannedDM := cacheSnap(runPath(t, k, dmCfg, mkFanout(t)))
			if !reflect.DeepEqual(nativeDM, legacyDM) {
				t.Errorf("direct-mapped: block path diverged from per-Ref path\nblock:  %+v\nlegacy: %+v", nativeDM, legacyDM)
			}
			if !reflect.DeepEqual(fannedDM, legacyDM) {
				t.Errorf("direct-mapped: fanout path diverged from per-Ref path\nfanout: %+v\nlegacy: %+v", fannedDM, legacyDM)
			}
		})
	}
}

// fanoutVsTee runs one kernel into a profiler system and a direct-mapped
// system attached first via the serial Tee and then via a sharded Fanout,
// and demands identical results from both — the guarantee that lets
// fig6dm replace its per-size reruns with one fanned run.
func fanoutVsTee(t *testing.T, k kernelCase) {
	t.Helper()
	build := func() (*memsys.System, *memsys.System) {
		prof := memsys.MustNew(memsys.Config{
			PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
		})
		dm := memsys.MustNew(memsys.Config{
			PEs: 4, LineSize: 8, CacheCapacity: 128, Assoc: 1, WarmupEpochs: k.warm,
		})
		return prof, dm
	}
	caps := []int{16, 128, 1024}

	profT, dmT := build()
	k.run(t, trace.Tee{profT, dmT})

	profF, dmF := build()
	fan, err := trace.NewFanout(profF, dmF)
	if err != nil {
		t.Fatal(err)
	}
	k.run(t, fan)
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := profSnap(profF, 1, caps), profSnap(profT, 1, caps); !reflect.DeepEqual(got, want) {
		t.Errorf("fanout profiler diverged from tee\nfanout: %+v\ntee:    %+v", got, want)
	}
	if got, want := cacheSnap(dmF), cacheSnap(dmT); !reflect.DeepEqual(got, want) {
		t.Errorf("fanout direct-mapped stats diverged from tee\nfanout: %+v\ntee:    %+v", got, want)
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS set to n and restores it after.
// Only sequential tests and subtests may call it: the setting is global.
func withGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestFanoutMatchesTee proves the Fanout's worker pool equivalent to the
// serial Tee for every kernel: at the host's GOMAXPROCS, at GOMAXPROCS=2
// (so the two consumers land on two shard workers even on a 1-core
// host), and — because the rings must block rather than spin — at
// GOMAXPROCS=1.
func TestFanoutMatchesTee(t *testing.T) {
	// Sequential subtests first: they pin GOMAXPROCS, and parallel
	// subtests only start after the sequential ones (and the restore)
	// finish.
	t.Run("gomaxprocs=1", func(t *testing.T) {
		withGOMAXPROCS(1, func() {
			fanoutVsTee(t, equivalenceKernels()[3]) // barneshut: multi-epoch, order-sensitive
		})
	})
	t.Run("gomaxprocs=2", func(t *testing.T) {
		withGOMAXPROCS(2, func() {
			for _, k := range equivalenceKernels() {
				fanoutVsTee(t, k)
			}
		})
	})
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			fanoutVsTee(t, k)
		})
	}
}

// TestShardedDeterminism runs the quick sharing1024 experiment, the
// largest machine in the registry (P=1024), end to end twice through
// Execute — once with one Go processor, once with two — and demands
// byte-identical JSON reports: the host's parallelism must never leak
// into a report or a result key. (The name dates from when GOMAXPROCS=2
// also switched sharing1024 to the since-deleted sharded engine.)
func TestShardedDeterminism(t *testing.T) {
	t.Run("sharing1024", func(t *testing.T) {
		e, ok := Find("sharing1024")
		if !ok {
			t.Fatal("sharing1024 not registered")
		}
		render := func(procs int) []byte {
			var buf bytes.Buffer
			withGOMAXPROCS(procs, func() {
				rep, err := Execute(context.Background(), e, Options{Scale: ScaleQuick})
				if err != nil {
					t.Fatalf("sharing1024 at GOMAXPROCS=%d: %v", procs, err)
				}
				if err := rep.Render(&buf, FormatJSON); err != nil {
					t.Fatalf("render: %v", err)
				}
			})
			return buf.Bytes()
		}
		one, two := render(1), render(2)
		if !bytes.Equal(one, two) {
			t.Errorf("sharing1024 reports differ between runs\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=2:\n%s", one, two)
		}
	})
}

// runPathMetrics is runPath with a fresh obs.Recorder attached: the system
// is instrumented and the kernel's sink is a metrics-counting context
// guard, so the snapshot holds the full per-stage counter set (trace
// delivery, batcher, directory, profiler/caches, miss classification).
// The system is closed before the snapshot: Close is the end-of-run
// barrier that publishes every run-scope counter.
func runPathMetrics(t *testing.T, k kernelCase, cfg memsys.Config, mk func(*memsys.System) trace.Consumer) obs.Metrics {
	t.Helper()
	rec := obs.New()
	sys := memsys.MustNew(cfg)
	sys.Instrument(rec)
	inner := mk(sys)
	k.run(t, trace.WithContext(obs.With(context.Background(), rec), inner))
	if fan, ok := inner.(*trace.Fanout); ok {
		if err := fan.Close(); err != nil {
			t.Fatalf("fanout close: %v", err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return rec.Snapshot()
}

// metricsLegs are the machines TestMetricsEquivalence compares paths on:
// a profiled PE, LRU caches and 4-way caches. want lists the counters
// that must be nonzero on every kernel's leg, somewhere those that must
// be nonzero on the leg of at least one kernel, so a publish that never
// fires cannot pass as equal zeros on any leg.
var metricsLegs = []struct {
	name            string
	cfg             memsys.Config // WarmupEpochs comes from the kernel
	want, somewhere []string
}{
	{"profiler", memsys.Config{PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1},
		[]string{cache.MetricProfilerAccesses},
		[]string{coherence.MetricInvalidations, memsys.MetricRemoteMisses}},
	{"lru", memsys.Config{PEs: 4, LineSize: 8, CacheCapacity: 64}, nil,
		[]string{cache.MetricEvictions, coherence.MetricInvalidations, memsys.MetricRemoteMisses}},
	{"4-way", memsys.Config{PEs: 4, LineSize: 8, CacheCapacity: 64, Assoc: 4}, nil,
		[]string{cache.MetricEvictions, coherence.MetricInvalidations, memsys.MetricRemoteMisses}},
}

// TestMetricsEquivalence is the observability face of the block-delivery
// invariant: with a Recorder attached, every per-stage counter — references
// and blocks through the guard, batcher deliveries, directory transactions
// by MSI state change, profiler accesses and queries, cache evictions,
// local/remote miss classification — must be bit-identical whether the
// stream reaches the system per-Ref (legacy), in blocks (native), or
// through a Fanout. The counting point for delivery metrics is the
// guard, upstream of where the paths diverge; everything else is
// deterministic simulation state, which the machine counts in plain
// fields and publishes at block ends, the warm-up flip and Close. Every kernel runs every leg of metricsLegs.
func TestMetricsEquivalence(t *testing.T) {
	var mu sync.Mutex
	nonzero := map[string]bool{} // leg name + "/" + counter name
	// Cleanup runs once the parallel subtests have finished.
	t.Cleanup(func() {
		for _, leg := range metricsLegs {
			for _, name := range leg.somewhere {
				if !nonzero[leg.name+"/"+name] {
					t.Errorf("%s: counter %q is zero on every kernel", leg.name, name)
				}
			}
		}
	})
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			for _, leg := range metricsLegs {
				cfg := leg.cfg
				cfg.WarmupEpochs = k.warm
				legacy := runPathMetrics(t, k, cfg, mkLegacy)
				native := runPathMetrics(t, k, cfg, mkNative)
				fanned := runPathMetrics(t, k, cfg, mkFanout(t))
				if len(legacy.Counters) == 0 {
					t.Fatalf("%s: legacy path recorded no counters; instrumentation is dead", leg.name)
				}
				for _, name := range append([]string{
					obs.RefsDelivered, obs.BlocksDelivered,
					coherence.MetricReads, coherence.MetricWrites,
				}, leg.want...) {
					if legacy.Counters[name] == 0 {
						t.Errorf("%s: counter %q is zero on the legacy path", leg.name, name)
					}
				}
				mu.Lock()
				for name, v := range legacy.Counters {
					if v != 0 {
						nonzero[leg.name+"/"+name] = true
					}
				}
				mu.Unlock()
				for _, p := range []struct {
					name string
					m    obs.Metrics
				}{{"block", native}, {"fanout", fanned}} {
					if !reflect.DeepEqual(p.m.Counters, legacy.Counters) {
						t.Errorf("%s: %s path counters diverged from per-Ref path\n%s: %v\nlegacy: %v",
							leg.name, p.name, p.name, p.m.Counters, legacy.Counters)
					}
				}
			}
		})
	}
}

// probeWays are the cache geometries the probe gate attaches to PE 1,
// all probeLines lines: direct-mapped, 4-way set associative, and fully
// associative LRU (0).
var probeWays = []int{1, 4, 0}

const probeLines = 256

// probeReference is what the probe gate compares against: a dedicated
// serial machine per probe geometry, and a profile-only serial machine.
type probeReference struct {
	dedicated []cacheSnapshot // indexed like probeWays
	prof      profSnapshot
}

var probeCaps = []int{8, 64, 512, 4096}

func newProbeReference(t *testing.T, k kernelCase) probeReference {
	t.Helper()
	var ref probeReference
	for _, ways := range probeWays {
		ref.dedicated = append(ref.dedicated, cacheSnap(runPath(t, k, memsys.Config{
			PEs: 4, LineSize: 8, CacheCapacity: probeLines, Assoc: ways, WarmupEpochs: k.warm,
		}, mkNative)))
	}
	ref.prof = profSnap(runPath(t, k, memsys.Config{
		PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1, WarmupEpochs: k.warm,
	}, mkNative), 1, probeCaps)
	return ref
}

// probesVsDedicated runs one kernel into a single machine carrying one
// probe per probeWays geometry on PE 1, plus PE 1's profiler unless
// probeOnly. Each probe must match PE 1's cache in the dedicated machine
// of its geometry, the directory must match every dedicated machine's,
// and the profiler must match the profile-only machine's.
func probesVsDedicated(t *testing.T, k kernelCase, ref probeReference, probeOnly bool) {
	t.Helper()
	probes := make([]cache.Cache, len(probeWays))
	for i, ways := range probeWays {
		var err error
		if probes[i], err = cache.New(probeLines, ways, 8); err != nil {
			t.Fatal(err)
		}
	}
	cfg := memsys.Config{
		PEs: 4, LineSize: 8, WarmupEpochs: k.warm,
		Probes: map[int][]cache.Cache{1: probes},
	}
	if !probeOnly {
		cfg.Profile, cfg.ProfilePE = true, 1
	}
	m := runPath(t, k, cfg, mkNative)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ways := range probeWays {
		want := ref.dedicated[i]
		if got := probes[i].Stats(); got != want.Caches[1] {
			t.Errorf("probeOnly=%v: %d-way probe diverged from a dedicated machine\nprobe:     %+v\ndedicated: %+v",
				probeOnly, ways, got, want.Caches[1])
		}
		if got := m.DirectoryStats(); got != want.Dir {
			t.Errorf("probeOnly=%v: directory diverged from the %d-way dedicated machine\nprobed:    %+v\ndedicated: %+v",
				probeOnly, ways, got, want.Dir)
		}
	}
	if probeOnly {
		return
	}
	if got := profSnap(m, 1, probeCaps); !reflect.DeepEqual(got, ref.prof) {
		t.Errorf("profiler beside probes diverged from a profile-only machine\nprobed:       %+v\nprofile-only: %+v",
			got, ref.prof)
	}
}

// TestProbesMatchDedicatedMachines proves the probe invariant the
// cache-comparison experiments rest on: caches attached as probes to one
// machine see exactly what the same caches see as PE 1's cache in a
// dedicated machine per configuration — the same accesses, the same
// invalidations, the same warm-up reset — beside a profiler or alone,
// and with the host held to one processor.
func TestProbesMatchDedicatedMachines(t *testing.T) {
	// Sequential subtest first: it pins GOMAXPROCS, and parallel subtests
	// only start after the sequential ones (and the restore) finish.
	t.Run("gomaxprocs=1", func(t *testing.T) {
		withGOMAXPROCS(1, func() {
			k := equivalenceKernels()[3] // barneshut: multi-epoch, order-sensitive
			ref := newProbeReference(t, k)
			probesVsDedicated(t, k, ref, false)
			probesVsDedicated(t, k, ref, true)
		})
	})
	for _, k := range equivalenceKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			ref := newProbeReference(t, k)
			probesVsDedicated(t, k, ref, false)
			probesVsDedicated(t, k, ref, true)
		})
	}
}
