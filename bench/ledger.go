package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"wsstudy/internal/apps/barneshut"
	"wsstudy/internal/apps/cg"
	"wsstudy/internal/cache"
	"wsstudy/internal/capture"
	"wsstudy/internal/core"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
	"wsstudy/internal/workingset"
)

// The traced run is one ledger of per-layer metrics, the same whichever
// workload is named: it rebuilds each compute workload's path from the
// modules' public functions with a span around every call, and times
// each layer's public functions on that workload's inputs. Metrics of
// one module share a name prefix.

// layerMetric is one per-layer metric and the end-to-end metric and
// workload it should move.
type layerMetric struct {
	name, unit, better string
	moves              string
}

// rebuilt are the compute workloads the ledger rebuilds span by span.
var rebuilt = []string{"fig6-full", "fig6-full-s16", "suite-quick", "sweep-gridbh"}

// perLayerMetrics lists every metric the traced run reports, in
// BENCHMARK.json order.
func perLayerMetrics() []layerMetric {
	ms := []layerMetric{
		{"apps.kernel_s", "s", "lower", "p50_ms on fig6-full and fig6-full-s16 (Barnes-Hut n=1024, no sink)"},
		{"apps.emit_s", "s", "lower", "p50_ms on fig6-full-s16 (kernel into a counting sink)"},
		{"trace.deliver_s", "s", "lower", "p50_ms on fig6-* (emit minus kernel)"},
		{"trace.refs", "count", "lower", "pinned: references the fig6 kernel emits"},
		{"trace.blocks", "count", "lower", "pinned: blocks those references arrive in"},
		{"trace.tee_s", "s", "lower", "p50_ms on suite-quick (fig6dm stream into its 12 machines, serially)"},
		{"trace.fanout_s", "s", "lower", "p50_ms on suite-quick (the same through trace.Fanout)"},
		{"capture.record_s", "s", "lower", "p50_ms on suite-quick and sweep-gridbh"},
		{"capture.replay_s", "s", "lower", "p50_ms on suite-quick and sweep-gridbh"},
		{"capture.bytes", "B", "lower", "peak_rss_mb on suite-quick"},
		{"cache.profile_s", "s", "lower", "p50_ms on fig6-full (exact profiler on PE 1, net of replay)"},
		{"cache.profile_ns_per_ref", "ns", "lower", "p50_ms on fig6-full"},
		{"cache.profile_s16_s", "s", "lower", "p50_ms on fig6-full-s16 (sampled profiler, net of replay)"},
		{"cache.sampled_lines", "count", "higher", "pinned: lines behind the 1/16 estimate"},
		{"cache.lru_s", "s", "lower", "p50_ms on suite-quick (16 KB LRU, PE 1 of the quick stream)"},
		{"cache.setassoc_s", "s", "lower", "p50_ms on suite-quick (16 KB 4-way, PE 1 of the quick stream)"},
		{"memsys.profiled_s", "s", "lower", "p50_ms on fig6-full (time inside the machine)"},
		{"memsys.directory_s", "s", "lower", "p50_ms on fig6-full (profiled minus profile)"},
		{"memsys.profiled_s16_s", "s", "lower", "p50_ms on fig6-full-s16"},
		{"memsys.directory_s16_s", "s", "lower", "p50_ms on fig6-full-s16 (profiled minus profile)"},
		{"memsys.concrete_s", "s", "lower", "p50_ms on suite-quick and sweep-gridbh (16 KB LRU caches)"},
		{"memsys.serial_s", "s", "lower", "p50_ms on suite-quick (sharing1024 shape, serial engine)"},
		{"memsys.sharded_s", "s", "lower", "p50_ms on suite-quick (sharing1024 shape, sharded engine)"},
		{"coherence.reads", "count", "lower", "pinned: directory read requests in fig6-full"},
		{"coherence.writes", "count", "lower", "pinned: directory write requests in fig6-full"},
		{"coherence.invalidations", "count", "lower", "pinned: invalidations in fig6-full"},
		{"memsys.remote_misses", "count", "lower", "pinned: measured remote misses in fig6-full"},
		{"workingset.curve_s", "s", "lower", "nothing: curve extraction costs microseconds"},
		{"workingset.knees_s", "s", "lower", "nothing: knee extraction costs microseconds"},
		{"core.render_text_s", "s", "lower", "p50_ms on suite-quick (all 20 reports)"},
		{"core.render_json_s", "s", "lower", "p50_ms on serve-cold (all 20 reports)"},
	}
	for _, e := range core.Registry() {
		ms = append(ms, layerMetric{"core.exp." + e.ID + "_s", "s", "lower", "p50_ms on suite-quick"})
	}
	ms = append(ms,
		layerMetric{"core.suite.critical_s", "s", "lower", "p50_ms on suite-quick (longest experiment)"},
		layerMetric{"core.suite.sum_s", "s", "lower", "p50_ms on suite-quick (all experiments; two workers take about max(critical, sum/2))"},
	)
	for _, w := range rebuilt {
		ms = append(ms, layerMetric{"core.unattributed." + w + "_s", "s", "lower", "p50_ms on " + w + " (rebuild time in no layer span)"})
	}
	for _, w := range rebuilt {
		ms = append(ms, layerMetric{"bench.trace_overhead." + w + "_pct", "%", "lower", "nothing: clock reads the rebuild of " + w + " added"})
	}
	return append(ms,
		layerMetric{"sweep.cell_ms", "ms", "lower", "p50_ms on sweep-gridbh (median cell)"},
		layerMetric{"store.persist_ms", "ms", "lower", "p50_ms on sweep-gridbh and serve-cold (Get with a directory minus without)"},
		layerMetric{"store.disk_revive_ms", "ms", "lower", "p50_ms on sweep-gridbh revival"},
		layerMetric{"sweep.journal_revive_s", "s", "lower", "sweep-gridbh revival"},
		layerMetric{"sweep.revived", "count", "higher", "pinned: cells revived (all of them)"},
		layerMetric{"sweep.recomputed", "count", "lower", "pinned: cells computed again on revival (none)"},
		layerMetric{"store.get_miss_ms", "ms", "lower", "p50_ms on serve-cold (compute and render one gridlu key)"},
		layerMetric{"store.get_hit_us", "us", "lower", "p50_ms on serve-cached"},
		layerMetric{"serve.handler_us", "us", "lower", "p50_ms on serve-cached (ServeHTTP on a hit, no TCP)"},
		layerMetric{"serve.net_us", "us", "lower", "p50_ms on serve-cached (request over TCP minus handler)"},
		layerMetric{"cluster.owner_ns", "ns", "lower", "p50_ms on serve-cold"},
		layerMetric{"cluster.fill_warm_ms", "ms", "lower", "p50_ms on serve-cold (owner already holds the key)"},
		layerMetric{"cluster.fill_cold_ms", "ms", "lower", "p50_ms on serve-cold (owner computes, follower polls)"},
		layerMetric{"load.late_ms", "ms", "lower", "nothing: generator lateness (median), checks the generator"},
		layerMetric{"load.backlog_max", "count", "lower", "nothing: deepest client-side queue at 1000 rps"},
		layerMetric{"load.sent", "count", "higher", "nothing: requests sent in the 1000 rps probe"},
		layerMetric{"load.max_rps", "1/s", "higher", "tail_ms on serve-cached (highest rate with p99 under 5 ms)"},
	)
}

// ledger accumulates the traced run's metrics and failures.
type ledger struct {
	e      *env
	tr     *tracer
	clock  time.Duration // cost of one clock read
	m      map[string]metric
	probs  []string
	tried  int
	failed int
}

func (l *ledger) set(name, unit string, v float64) { l.m[name] = metric{Value: v, Unit: unit} }

func (l *ledger) secs(name string, d time.Duration) { l.set(name, "s", d.Seconds()) }

// step runs one part of the ledger; a failure is recorded and the rest
// of the ledger still runs.
func (l *ledger) step(name string, f func() error) {
	l.tried++
	if err := f(); err != nil {
		l.failed++
		l.probs = append(l.probs, fmt.Sprintf("%s: %v", name, err))
	}
}

// overhead reports the clock reads a rebuild added as a share of its wall.
func (l *ledger) overhead(w string, reads int, wall time.Duration) {
	l.set("bench.trace_overhead."+w+"_pct", "%", 100*float64(time.Duration(reads)*l.clock)/float64(wall))
}

// runTraced runs the whole ledger and writes spans.jsonl.
func runTraced(e *env, w workload, seed int64) (record, error) {
	l := &ledger{
		e:     e,
		tr:    newTracer(fmt.Sprintf("%s-%d-%d", w.name, seed, time.Now().UnixNano())),
		clock: clockCost(),
		m:     map[string]metric{},
	}
	root := l.tr.begin(0, "ledger")
	l.step("fig6", func() error { return l.fig6(root.id) })
	l.step("suite", func() error { return l.suite(root.id) })
	l.step("sweep", func() error { return l.sweep(root.id) })
	l.step("serve", func() error { return l.serve(root.id, seed) })
	root.end()
	if err := l.tr.write(filepath.Join(e.work, "spans.jsonl")); err != nil {
		return record{}, err
	}
	for _, lm := range perLayerMetrics() {
		if _, ok := l.m[lm.name]; !ok && !e.toy {
			l.probs = append(l.probs, "metric not measured: "+lm.name)
		}
	}
	return record{
		Workload: w.name, Seed: seed,
		result: result{
			Correct: len(l.probs) == 0, Attempted: l.tried, Failed: l.failed, Metrics: l.m,
		},
		Problems: l.probs,
	}, nil
}

// bhConfig is the experiments' shared Barnes-Hut configuration.
var bhConfig = barneshut.Config{Theta: 1.0, Quadrupole: true, Eps: 0.05, DT: 0.003}

// bhKernel runs Barnes-Hut on n Plummer bodies (seed 42) over p
// processors for steps steps, emitting into sink (nil: untraced).
func bhKernel(n, p, steps int, sink trace.Consumer) error {
	cfg := bhConfig
	cfg.P = p
	sim, err := barneshut.NewSimulation(barneshut.Plummer(n, 42), cfg, sink)
	if err != nil {
		return err
	}
	for s := 0; s < steps; s++ {
		if _, err := sim.Step(); err != nil {
			return err
		}
	}
	return nil
}

// countSink tallies references and blocks without simulating anything.
type countSink struct{ refs, blocks uint64 }

func (c *countSink) Ref(trace.Ref)          { c.refs++ }
func (c *countSink) Refs(block []trace.Ref) { c.refs += uint64(len(block)); c.blocks++ }
func (c *countSink) BeginEpoch(int)         {}

// epochGate turns a standalone profiler's measurement on after the
// warm-up epochs, as the machine does for the profilers it owns.
type epochGate struct {
	p    cache.Profiler
	warm int
}

func (g epochGate) Ref(r trace.Ref)        { g.p.Ref(r) }
func (g epochGate) Refs(block []trace.Ref) { g.p.Refs(block) }
func (g epochGate) BeginEpoch(n int)       { g.p.SetMeasuring(n >= g.warm) }

func newGate(p cache.Profiler, warm int) epochGate {
	p.SetMeasuring(warm == 0)
	return epochGate{p, warm}
}

// stream is a kernel reference stream, recorded on first use and
// replayed to every later consumer.
type stream struct {
	store  *capture.Store
	key    string
	steps  int
	kernel func(trace.Consumer) error
}

func newStream(key string, steps int, kernel func(trace.Consumer) error) *stream {
	return &stream{store: capture.New(0), key: key, steps: steps, kernel: kernel}
}

// into replays the stream into sink (recording it on first use).
func (s *stream) into(sink trace.Consumer) error {
	return s.store.Run(context.Background(), s.key, s.steps, sink, s.kernel)
}

// fig6 rebuilds fig6-full and fig6-full-s16 and times the kernel, trace
// delivery, capture and the profilers on the Figure 6 stream.
func (l *ledger) fig6(root int) error {
	n, steps := 1024, 5
	if l.e.toy {
		n, steps = 256, 4
	}
	const p, pe, warm = 4, 1, 2
	kernel := func(sink trace.Consumer) error { return bhKernel(n, p, steps, sink) }

	var profiled [2]time.Duration
	for i, rate := range []int{1, 16} {
		w := rebuilt[i]
		id := l.tr.begin(root, "rebuild."+w)
		rec := obs.New()
		ctx := obs.With(context.Background(), rec)
		var sys memsys.Machine
		if _, err := l.tr.timed(id.id, "memsys.open", func() (err error) {
			sys, err = memsys.Open(memsys.Config{
				PEs: p, LineSize: 8, Profile: true, ProfilePE: pe, WarmupEpochs: warm, SampleRate: rate,
			})
			if err == nil {
				sys.Instrument(rec)
			}
			return err
		}); err != nil {
			return err
		}
		ts := &timedSink{next: sys}
		k := l.tr.begin(id.id, "apps.barneshut")
		kstart := time.Now()
		err := kernel(trace.WithContext(ctx, ts))
		l.tr.aggregate(k.id, "memsys.profiled", kstart, ts.inside)
		k.end()
		if err == nil {
			err = sys.Close()
		}
		if err != nil {
			return err
		}
		prof := sys.Profiler(pe)
		var pts []workingset.Point
		curveT, _ := l.tr.timed(id.id, "workingset.curve", func() error {
			pts = readCurve(prof, workingset.LogSizes(64, 4<<20, 2))
			return nil
		})
		var h workingset.Hierarchy
		kneesT, _ := l.tr.timed(id.id, "workingset.knees", func() error {
			c := workingset.Curve{Label: "measured", Points: pts}
			h = workingset.FromKnees("Barnes-Hut", workingset.FindKnees(&c, 1.6, 0.005))
			return nil
		})
		if _, err := l.tr.timed(id.id, "core.render", func() error {
			return fig6Report(n, pts, h).Render(io.Discard, core.FormatText)
		}); err != nil {
			return err
		}
		wall := id.end()
		profiled[i] = ts.inside
		l.secs("core.unattributed."+w+"_s", l.tr.self(id.id))
		l.overhead(w, 2*(ts.calls+l.tr.count(id.id)), wall)
		if rate == 1 {
			l.secs("workingset.curve_s", curveT)
			l.secs("workingset.knees_s", kneesT)
			ds, st := sys.DirectoryStats(), sys.Stats()
			l.set("coherence.reads", "count", float64(ds.ReadRequests))
			l.set("coherence.writes", "count", float64(ds.WriteRequests))
			l.set("coherence.invalidations", "count", float64(ds.Invalidations))
			l.set("memsys.remote_misses", "count", float64(st.RemoteMisses))
		}
	}
	l.secs("memsys.profiled_s", profiled[0])
	l.secs("memsys.profiled_s16_s", profiled[1])

	// The layers one at a time: the kernel alone, then into a counting
	// sink; the stream recorded and replayed; each profiler alone on
	// PE 1's share of the replay.
	kernelT, err := l.tr.timed(root, "apps.kernel", func() error { return kernel(nil) })
	if err != nil {
		return err
	}
	emitted := &countSink{}
	emitT, err := l.tr.timed(root, "apps.emit", func() error { return kernel(emitted) })
	if err != nil {
		return err
	}
	l.secs("apps.kernel_s", kernelT)
	l.secs("apps.emit_s", emitT)
	l.secs("trace.deliver_s", emitT-kernelT)
	l.set("trace.refs", "count", float64(emitted.refs))
	l.set("trace.blocks", "count", float64(emitted.blocks))

	s := newStream("fig6", steps, kernel)
	pe1 := &trace.BlockCounter{}
	recordT, err := l.tr.timed(root, "capture.record", func() error {
		return s.into(trace.Tee{&countSink{}, trace.PEFilter{PE: pe, Next: pe1}})
	})
	if err != nil {
		return err
	}
	replayT, err := l.tr.timed(root, "capture.replay", func() error { return s.into(&countSink{}) })
	if err != nil {
		return err
	}
	l.secs("capture.record_s", recordT)
	l.secs("capture.replay_s", replayT)
	l.set("capture.bytes", "B", float64(s.store.Bytes()))

	for i, pr := range []struct {
		rate      int
		name, dir string
	}{{1, "cache.profile", "memsys.directory_s"}, {16, "cache.profile_s16", "memsys.directory_s16_s"}} {
		prof, err := cache.NewProfiler(8, pr.rate)
		if err != nil {
			return err
		}
		d, err := l.tr.timed(root, pr.name, func() error {
			return s.into(trace.PEFilter{PE: pe, Next: newGate(prof, warm)})
		})
		if err != nil {
			return err
		}
		net := d - replayT
		l.secs(pr.name+"_s", net)
		l.secs(pr.dir, profiled[i]-net)
		if pr.rate == 1 {
			l.set("cache.profile_ns_per_ref", "ns", float64(net)/float64(pe1.Counter.Refs))
		} else {
			l.set("cache.sampled_lines", "count", float64(prof.SampledLines()))
		}
	}
	return nil
}

// readCurve is the experiments' miss-rate curve: read misses over reads
// at each size.
func readCurve(prof cache.Profiler, sizes []uint64) []workingset.Point {
	counts := prof.Curve(workingset.BytesToLines(sizes, prof.LineSize()))
	pts := make([]workingset.Point, len(counts))
	for i, mc := range counts {
		pts[i] = workingset.Point{
			CacheBytes: uint64(mc.CapacityLines) * uint64(prof.LineSize()),
			MissRate:   float64(mc.ReadMisses) / float64(prof.Reads()),
		}
	}
	return pts
}

// fig6Report assembles the report fig6 renders.
func fig6Report(n int, pts []workingset.Point, h workingset.Hierarchy) *core.Report {
	t := core.Table{Title: "measured hierarchy", Header: []string{"level", "size", "miss rate after", "what it is"}}
	for _, lv := range h.Levels {
		t.Rows = append(t.Rows, []string{lv.Name, workingset.FormatBytes(lv.SizeBytes), fmt.Sprintf("%.4g", lv.MissRate), lv.Note})
	}
	return &core.Report{
		Title: "Figure 6 (Barnes-Hut working sets)",
		Figures: []core.Figure{{
			Title:  fmt.Sprintf("Barnes-Hut simulated, n=%d theta=1.0 p=4", n),
			XLabel: "cache size", YLabel: "read miss rate",
			Series: []core.Series{{Label: "measured", Points: pts}},
		}},
		Tables: []core.Table{t},
	}
}

// suite rebuilds suite-quick as RunSuite runs it (two workers, one
// capture store, one span per experiment) and times the concrete-cache
// layers the suite exercises.
func (l *ledger) suite(root int) error {
	exps := suiteExperiments(l.e.toy)
	id := l.tr.begin(root, "rebuild.suite-quick")
	ctx := capture.With(obs.With(context.Background(), obs.New()), capture.New(0))
	reports := make([]*core.Report, len(exps))
	times := make([]time.Duration, len(exps))
	errs := make([]error, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				times[i], errs[i] = l.tr.timed(id.id, "core.exp."+exps[i].ID, func() (err error) {
					reports[i], err = core.Execute(ctx, exps[i], core.Options{Scale: core.ScaleQuick})
					return err
				})
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			id.end()
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	textT, err := l.tr.timed(id.id, "core.render_text", func() error { return renderAll(reports, core.FormatText) })
	if err != nil {
		return err
	}
	wall := id.end()
	l.secs("core.unattributed.suite-quick_s", l.tr.self(id.id))
	l.overhead("suite-quick", 2*l.tr.count(id.id), wall)
	l.secs("core.render_text_s", textT)
	var sum, longest time.Duration
	for i, e := range exps {
		l.secs("core.exp."+e.ID+"_s", times[i])
		sum += times[i]
		longest = max(longest, times[i])
	}
	l.secs("core.suite.critical_s", longest)
	l.secs("core.suite.sum_s", sum)
	jsonT, err := l.tr.timed(root, "core.render_json", func() error { return renderAll(reports, core.FormatJSON) })
	if err != nil {
		return err
	}
	l.secs("core.render_json_s", jsonT)

	// The fig6dm quick stream feeds the remaining probes.
	const p, pe, warm, steps = 4, 1, 1, 3
	s := newStream("fig6dm-quick", steps, func(sink trace.Consumer) error { return bhKernel(256, p, steps, sink) })
	if err := s.into(&countSink{}); err != nil {
		return err
	}
	replayT, err := l.tr.timed(root, "capture.replay_quick", func() error { return s.into(&countSink{}) })
	if err != nil {
		return err
	}

	machines := func() ([]trace.Consumer, []memsys.Machine, error) {
		cfgs := []memsys.Config{{PEs: p, LineSize: 8, Profile: true, ProfilePE: pe, WarmupEpochs: warm}}
		for _, b := range workingset.LogSizes(1024, 1<<20, 1) {
			cfgs = append(cfgs, memsys.Config{PEs: p, LineSize: 8, CacheCapacity: int(b / 8), Assoc: 1, ProfilePE: -1, WarmupEpochs: warm})
		}
		var cs []trace.Consumer
		var ms []memsys.Machine
		for _, cfg := range cfgs {
			m, err := memsys.Open(cfg)
			if err != nil {
				return nil, nil, err
			}
			cs, ms = append(cs, m), append(ms, m)
		}
		return cs, ms, nil
	}
	cs, _, err := machines()
	if err != nil {
		return err
	}
	teeT, err := l.tr.timed(root, "trace.tee", func() error { return s.into(trace.Tee(cs)) })
	if err != nil {
		return err
	}
	cs, _, err = machines()
	if err != nil {
		return err
	}
	fanT, err := l.tr.timed(root, "trace.fanout", func() error {
		f, err := trace.NewFanout(cs...)
		if err != nil {
			return err
		}
		if err := s.into(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	l.secs("trace.tee_s", teeT)
	l.secs("trace.fanout_s", fanT)

	const lines = (16 << 10) / 8
	lru, err := cache.NewLRU(lines, 8)
	if err != nil {
		return err
	}
	sa, err := cache.NewSetAssoc(lines, 4, 8)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		cache cache.Cache
	}{{"cache.lru", lru}, {"cache.setassoc", sa}} {
		sink, err := cache.NewSink(c.cache, 8)
		if err != nil {
			return err
		}
		d, err := l.tr.timed(root, c.name, func() error { return s.into(trace.PEFilter{PE: pe, Next: sink}) })
		if err != nil {
			return err
		}
		l.secs(c.name+"_s", d-replayT)
	}

	concrete, err := memsys.Open(memsys.Config{PEs: p, LineSize: 8, CacheCapacity: lines, ProfilePE: -1, WarmupEpochs: warm})
	if err != nil {
		return err
	}
	d, err := l.tr.timed(root, "memsys.concrete", func() error { return s.into(concrete) })
	if err != nil {
		return err
	}
	l.secs("memsys.concrete_s", d-replayT)

	for _, engine := range []struct {
		name   string
		shards int
	}{{"memsys.serial", 0}, {"memsys.sharded", memsys.DefaultShards()}} {
		d, err := l.tr.timed(root, engine.name, func() error { return sharing1024(engine.shards) })
		if err != nil {
			return err
		}
		l.secs(engine.name+"_s", d)
	}
	return nil
}

// renderAll renders every report into io.Discard.
func renderAll(reports []*core.Report, f core.Format) error {
	for _, r := range reports {
		if err := r.Render(io.Discard, f); err != nil {
			return err
		}
	}
	return nil
}

// sharing1024 runs the quick sharing1024 shape at 8-byte lines: a 64x64
// CG solve on 1024 processors with 4 KB concrete caches.
func sharing1024(shards int) error {
	const p, px, n, iters = 1024, 32, 64, 3
	sys, err := memsys.Open(memsys.Config{
		PEs: p, LineSize: 8, Dist: memsys.Interleaved, CacheCapacity: (4 << 10) / 8,
		ProfilePE: -1, WarmupEpochs: 1, Shards: shards,
	})
	if err != nil {
		return err
	}
	part, err := cg.NewPartition2D(n, px, p/px, nil)
	if err != nil {
		sys.Close()
		return err
	}
	solver := cg.NewSolver2D(part, sys)
	b := make([]float64, n*n)
	for i := range b {
		b[i] = 1
	}
	solver.SetB(b)
	if _, err := solver.Solve(cg.Config{MaxIters: iters}); err != nil {
		sys.Close()
		return err
	}
	return sys.Close()
}

// medianDuration is the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
