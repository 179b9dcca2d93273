// Package wss (working-set study) is the public face of this library: a
// full reproduction of Rothberg, Singh & Gupta, "Working Sets, Cache
// Sizes, and Node Granularity Issues for Large-Scale Multiprocessors"
// (ISCA 1993).
//
// The package re-exports four layers:
//
//   - Experiments: every figure and table of the paper as a runnable
//     artifact (Experiments, Run, RunAndRender).
//   - Serving: the content-addressed result store (NewStore) and the
//     stable v1 HTTP API over it (NewServer) — identical requests never
//     recompute, concurrent ones coalesce, overload answers 429.
//   - The measurement toolkit: memory-reference traces (delivered in
//     blocks, with optional parallel fan-out to independent simulators),
//     the single-pass stack-distance profiler, exact LRU / set-associative
//     caches, the write-invalidate multiprocessor simulator, and knee
//     detection.
//   - The application kernels and analytic models live under
//     internal/apps/...; examples in examples/ show how they compose.
package wss

import (
	"context"
	"fmt"
	"io"
	"time"

	"wsstudy/internal/cache"
	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/cost"
	"wsstudy/internal/load"
	"wsstudy/internal/machine"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
	"wsstudy/internal/serve"
	"wsstudy/internal/store"
	"wsstudy/internal/sweep"
	"wsstudy/internal/trace"
	"wsstudy/internal/workingset"
)

// Experiment layer.

type (
	// Experiment is one reproducible artifact (figure or table).
	Experiment = core.Experiment
	// Options tunes a run; set Scale to ScaleQuick for second-scale
	// problem sizes and Timeout for a per-run deadline. Cancellation and
	// observability ride the context passed to Run.
	Options = core.Options
	// Scale selects the simulated problem sizes of a run; the zero value
	// is the full, paper-scale configuration.
	Scale = core.Scale
	// Report is an experiment's structured output.
	Report = core.Report
	// Figure is a set of miss-rate curves.
	Figure = core.Figure
	// Table is a titled text grid.
	Table = core.Table

	// SuiteOptions tunes RunSuite (workers, retries, per-run options).
	SuiteOptions = core.SuiteOptions
	// SuiteResult is one experiment's outcome within a suite run.
	SuiteResult = core.SuiteResult
	// SuiteReport aggregates a suite run: successes plus typed failures.
	SuiteReport = core.SuiteReport
	// DeadlineError reports a timed-out experiment; its Partial field
	// carries any Report data assembled before the deadline.
	DeadlineError = core.DeadlineError
	// PanicError reports a panic recovered from an experiment, with the
	// captured stack.
	PanicError = core.PanicError
	// CorruptError reports a deterministic binary-trace integrity failure
	// with its byte offset and the records decoded before it.
	CorruptError = trace.CorruptError

	// Recorder collects run-scope metrics: attach one to a run's context
	// with WithRecorder and every instrumented pipeline stage (trace
	// delivery, caches, directory, memory system, suite scheduling) counts
	// into it. Safe for concurrent use; a nil Recorder disables all
	// instrumentation at negligible cost.
	Recorder = obs.Recorder
	// Metrics is an immutable snapshot of a Recorder: counters, gauges,
	// duration histograms and labels. Reports carry one per run.
	Metrics = obs.Metrics
	// Progress periodically renders a one-line live status (refs
	// processed, throughput, experiments done, ETA) from a Recorder.
	Progress = obs.Progress
)

// Scales.
const (
	// ScaleFull runs paper-scale or largest-feasible configurations.
	ScaleFull = core.ScaleFull
	// ScaleQuick shrinks simulated problems so a suite runs in seconds.
	ScaleQuick = core.ScaleQuick
)

// Typed failure sentinels, for errors.Is classification.
var (
	// ErrDeadline matches experiments that exceeded their deadline.
	ErrDeadline = core.ErrDeadline
	// ErrCorrupt matches corrupt or truncated binary traces.
	ErrCorrupt = trace.ErrCorrupt
)

// Experiments lists every artifact in paper order.
func Experiments() []Experiment { return core.Registry() }

// Run executes the experiment with the given id, one of the IDs
// Experiments lists (`wsstudy list` prints them). The run is hardened —
// panics are recovered, Options.Timeout maps to ErrDeadline — and stops
// cooperatively when ctx is cancelled. When ctx carries a Recorder
// (WithRecorder), the returned Report includes a Metrics snapshot of the
// run.
func Run(ctx context.Context, id string, opt Options) (*Report, error) {
	e, ok := core.Find(id)
	if !ok {
		return nil, fmt.Errorf("wss: unknown experiment %q", id)
	}
	return core.Execute(ctx, e, opt)
}

// RunSuite executes experiments in a bounded worker pool with panic
// isolation, per-experiment deadlines, and retry-with-backoff for failures
// marked transient — degrading gracefully: every successful Report is
// returned alongside typed errors for the failures.
func RunSuite(ctx context.Context, experiments []Experiment, opt SuiteOptions) *SuiteReport {
	return core.RunSuite(ctx, experiments, opt)
}

// RunAndRender executes an experiment and writes its text rendering to w.
// Use Report.Render with FormatCSV or FormatJSON for the other forms.
func RunAndRender(ctx context.Context, id string, opt Options, w io.Writer) error {
	rep, err := Run(ctx, id, opt)
	if err != nil {
		return err
	}
	return rep.Render(w, core.FormatText)
}

// Serving results.

type (
	// Format selects a Report rendering: FormatText, FormatCSV, or
	// FormatJSON (the frozen ReportV1 schema).
	Format = core.Format
	// ReportV1 is the frozen v1 JSON wire form of a Report
	// (schema_version, explicit field names), shared by the HTTP API,
	// the CLI and the result store's persistence.
	ReportV1 = core.ReportV1
	// ResultStore is the content-addressed experiment-result store:
	// singleflight computation dedup, bounded compute slots, LRU +
	// max-bytes eviction, optional disk persistence.
	ResultStore = store.Store
	// StoreConfig tunes a ResultStore.
	StoreConfig = store.Config
	// StoreKey is a result's content address: SHA-256 of the experiment
	// id, a frozen key-schema tag and the canonical Options encoding.
	// It is deliberately decoupled from ReportSchemaVersion so additive
	// wire-schema bumps do not orphan persisted results.
	StoreKey = store.Key
	// StoreResult is one stored outcome: the Report plus its rendered
	// v1 JSON.
	StoreResult = store.Result
	// Server is the stable v1 HTTP API over a ResultStore
	// (/v1/experiments, /v1/experiments/{id}/report, /v1/suite), with
	// ETag revalidation, 429 backpressure and graceful shutdown.
	Server = serve.Server
	// ServerConfig tunes a Server.
	ServerConfig = serve.Config
)

// Report format selectors.
const (
	FormatText = core.FormatText
	FormatCSV  = core.FormatCSV
	FormatJSON = core.FormatJSON
)

// ReportSchemaVersion is the current v1 wire schema version stamped
// into rendered JSON reports; MinReportSchemaVersion is the oldest
// persisted version the store will still revive (older versions lack
// the optional sampling block, which revives as null).
const (
	ReportSchemaVersion    = core.ReportSchemaVersion
	MinReportSchemaVersion = core.MinReportSchemaVersion
)

// Backpressure and lifecycle sentinels of the result store.
var (
	// ErrBusy reports saturated compute slots; shed load and retry.
	ErrBusy = store.ErrBusy
	// ErrStoreClosed reports a lookup against a closed store.
	ErrStoreClosed = store.ErrClosed
)

// NewStore builds a content-addressed result store.
func NewStore(cfg StoreConfig) (*ResultStore, error) { return store.New(cfg) }

// NewServer builds the v1 HTTP server over cfg.Store.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// ResultKey derives the content address the store, CLI and tests share
// for (experiment id, options).
func ResultKey(id string, opt Options) StoreKey { return store.KeyFor(id, opt) }

// Parameter-lattice sweeps.

type (
	// SweepSpec is a lattice request: one experiment evaluated at the
	// cartesian product of Options-axis values. Equivalent specs (any
	// axis/value order) canonicalize to the same sweep id.
	SweepSpec = sweep.Spec
	// SweepAxis is one swept dimension: a canonical Options field
	// ("scale", "cache", "line", "assoc", "pes", "problem") and its values.
	SweepAxis = sweep.Axis
	// SweepEngine enumerates a lattice's cells over a ResultStore and
	// checkpoints each landed cell; a re-submitted sweep revives cells
	// instead of recomputing them. Served as POST/GET /v1/sweeps.
	SweepEngine = sweep.Engine
	// SweepConfig tunes a SweepEngine.
	SweepConfig = sweep.Config
	// SweepStatus is a sweep's incremental aggregate.
	SweepStatus = sweep.Status
	// GrainAdvice is the §8 cost answer computed from a finished sweep:
	// best node granularity per dollar over the measured lattice.
	GrainAdvice = cost.GrainAdvice
)

// NewSweepEngine builds a lattice-sweep engine over an existing store.
func NewSweepEngine(cfg SweepConfig) (*SweepEngine, error) { return sweep.NewEngine(cfg) }

// Horizontal serving tier.

type (
	// Cluster is one node's view of the consistent-hash serving tier:
	// result keys map to ring owners, local misses peer-fill from the
	// owner before computing, and a background crawler precomputes the
	// cells this node owns. Wire it into a store via SetPeerFill, or let
	// StartNode do the full assembly.
	Cluster = cluster.Cluster
	// ClusterConfig assembles a Cluster from a static peer map.
	ClusterConfig = cluster.Config
	// ClusterRing is the immutable consistent-hash ring: ownership is a
	// pure function of the member set, so every node that is handed the
	// same peer list computes the same assignment.
	ClusterRing = cluster.Ring
	// ClusterHealth is the ring + per-peer status block embedded in
	// /healthz on cluster members.
	ClusterHealth = cluster.Health
	// CrawlSpec configures the background lattice-precompute crawler.
	CrawlSpec = cluster.CrawlSpec
	// Node is one fully assembled serving node: store, sweep engine,
	// optional cluster membership and crawler, HTTP server.
	Node = serve.Node
	// NodeConfig assembles a Node end to end (StartNode).
	NodeConfig = serve.NodeConfig
	// LoadConfig is one open-loop load run against a serving tier.
	LoadConfig = load.Config
	// LoadResult is a load run's verdict: sustained served RPS, clean
	// 429 shedding, latency quantiles, and a zero-wrong-responses gate.
	LoadResult = load.Result
)

// NewCluster builds a cluster member from a static peer map.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewRing builds a consistent-hash ring over member ids (vnodes <= 0
// uses the default of 128 points per member).
func NewRing(ids []string, vnodes int) (*ClusterRing, error) { return cluster.NewRing(ids, vnodes) }

// StartNode boots one serving node — standalone, or a cluster member
// when NodeID and PeerAddrs are set.
func StartNode(cfg NodeConfig) (*Node, error) { return serve.StartNode(cfg) }

// RunLoad executes one open-loop load run (the engine behind cmd/wsload).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) { return load.Run(ctx, cfg) }

// Observability.

// NewRecorder builds an empty metrics Recorder.
func NewRecorder() *Recorder { return obs.New() }

// WithRecorder attaches rec to ctx; every instrumented stage of a run
// under the returned context records into it.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return obs.With(ctx, rec)
}

// RecorderFrom returns the Recorder attached to ctx, or nil.
func RecorderFrom(ctx context.Context) *Recorder { return obs.From(ctx) }

// StartProgress begins rendering one-line live status updates from rec to
// w every interval (1s when zero) until Stop is called on the returned
// Progress. A nil rec returns a no-op Progress.
func StartProgress(rec *Recorder, w io.Writer, interval time.Duration) *Progress {
	return obs.StartProgress(rec, w, interval)
}

// Measurement toolkit.

type (
	// Ref is one memory reference in the simulated shared address space.
	Ref = trace.Ref
	// Consumer receives a reference stream.
	Consumer = trace.Consumer
	// BlockConsumer receives the stream a block at a time; consumers that
	// implement it skip per-reference dispatch. Any plain Consumer still
	// works behind a batched producer via the fallback in trace.Deliver.
	BlockConsumer = trace.BlockConsumer
	// Emitter issues references for one processor.
	Emitter = trace.Emitter
	// Batcher buffers any number of emitters into fixed-capacity blocks
	// while preserving the global emission order and epoch placement.
	Batcher = trace.Batcher
	// Fanout drives several independent consumers concurrently on a
	// sharded worker pool; Close is the barrier before reading their
	// results.
	Fanout = trace.Fanout
	// Tee drives several consumers serially; required when they share state.
	Tee = trace.Tee
	// Profiler is the miss-rate-curve profiler contract satisfied by
	// both the exact StackProfiler and the sampled variant; consumers
	// that only read curves should accept this interface.
	Profiler = cache.Profiler
	// StackProfiler yields exact LRU miss counts at every cache size in
	// one trace pass.
	StackProfiler = cache.StackProfiler
	// SampledStackProfiler estimates the same curves from a spatially
	// hashed 1/R subset of line addresses, trading bounded error for a
	// ~R-fold reduction in profiling work.
	SampledStackProfiler = cache.SampledStackProfiler
	// LRU is an exact fully associative LRU cache.
	LRU = cache.LRU
	// SetAssoc is a set-associative (or direct-mapped) cache.
	SetAssoc = cache.SetAssoc
	// Bank is a per-size bank of exact LRU caches.
	Bank = cache.Bank
	// System is the cache-coherent multiprocessor simulator.
	System = memsys.System
	// SystemConfig parameterizes a System.
	SystemConfig = memsys.Config
	// Curve is a miss-rate-versus-cache-size curve.
	Curve = workingset.Curve
	// Point is one curve sample.
	Point = workingset.Point
	// Knee is a sharp drop in a curve.
	Knee = workingset.Knee
	// Hierarchy is a labelled working-set hierarchy.
	Hierarchy = workingset.Hierarchy
	// Machine is a §2.3-style machine model.
	Machine = machine.Machine
)

// Trace kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// NewEmitter builds an emitter issuing as processor pe into sink.
func NewEmitter(pe int, sink Consumer) *Emitter { return trace.NewEmitter(pe, sink) }

// NewBatcher wraps sink with a block buffer; emitters created from the
// Batcher deliver in DefaultBlockSize blocks. A nil sink yields a nil
// Batcher whose emitters drop every reference.
func NewBatcher(sink Consumer) *Batcher { return trace.NewBatcher(sink) }

// NewFanout pins the consumers to min(GOMAXPROCS, len(consumers)) worker
// goroutines, each fed batches of blocks through its own bounded ring.
// The consumers must be independent (no shared state); use Tee otherwise.
// Call Close before reading results from the consumers.
func NewFanout(consumers ...Consumer) (*Fanout, error) { return trace.NewFanout(consumers...) }

// NewStackProfiler builds a profiler with the given line size in bytes
// (a power of two; invalid sizes return an error).
func NewStackProfiler(lineSize uint32) (*StackProfiler, error) {
	return cache.NewStackProfiler(lineSize)
}

// NewProfiler builds a stack-distance profiler at the given sampling
// rate: rate 1 returns the exact StackProfiler, a power-of-two rate
// R >= 2 returns a SampledStackProfiler tracking 1/R of line space.
func NewProfiler(lineSize uint32, sampleRate int) (Profiler, error) {
	return cache.NewProfiler(lineSize, sampleRate)
}

// NewLRU builds a fully associative LRU cache of capacityLines lines.
// Invalid configurations return an error.
func NewLRU(capacityLines int, lineSize uint32) (*LRU, error) {
	return cache.NewLRU(capacityLines, lineSize)
}

// NewDirectMapped builds a direct-mapped cache. Invalid configurations
// return an error.
func NewDirectMapped(capacityLines int, lineSize uint32) (*SetAssoc, error) {
	return cache.NewDirectMapped(capacityLines, lineSize)
}

// NewSystem builds the multiprocessor simulator.
func NewSystem(cfg SystemConfig) (*System, error) { return memsys.New(cfg) }

// LogSizes returns a log-spaced cache-size grid in bytes.
func LogSizes(lo, hi uint64, pointsPerOctave int) []uint64 {
	return workingset.LogSizes(lo, hi, pointsPerOctave)
}

// FindKnees locates the working-set knees of a curve.
func FindKnees(c *Curve, minDrop, minAbs float64) []Knee {
	return workingset.FindKnees(c, minDrop, minAbs)
}

// FormatBytes renders a size the way the paper writes them ("2.2 KB").
func FormatBytes(n uint64) string { return workingset.FormatBytes(n) }

// Paragon and CM5 return the Section 2.3 machine models.
func Paragon(nodes int) Machine { return machine.Paragon(nodes) }

// CM5 returns the Thinking Machines CM-5 model.
func CM5(nodes int) Machine { return machine.CM5(nodes) }

// ProfileCurve extracts a miss-rate curve from a profiler: misses at each
// size divided by denom (e.g. FLOPs or the profiler's read count); with
// readOnly set, only read misses are counted (the paper's metric for the
// irregular applications). Works with exact and sampled profilers alike.
func ProfileCurve(label string, p Profiler, sizes []uint64, denom float64, readOnly bool) *Curve {
	caps := workingset.BytesToLines(sizes, p.LineSize())
	counts := p.Curve(caps)
	c := &Curve{Label: label, Metric: "misses"}
	for _, mc := range counts {
		v := float64(mc.Misses())
		if readOnly {
			v = float64(mc.ReadMisses)
		}
		c.Points = append(c.Points, Point{
			CacheBytes: uint64(mc.CapacityLines) * uint64(p.LineSize()),
			MissRate:   v / denom,
		})
	}
	return c
}
