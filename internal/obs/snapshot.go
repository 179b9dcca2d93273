package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Shared metric names. Stages that are wired together across packages
// (the trace guard feeding the progress reporter, the suite feeding the
// ETA estimate) agree on these; stage-local metrics use their own
// package-prefixed names ("coherence.invalidations", "trace.fanout.stalls")
// declared where they are incremented.
const (
	// RefsDelivered counts references through the context trace guard —
	// the run's primary rate signal.
	RefsDelivered = "trace.refs"
	// BlocksDelivered counts blocks through the context trace guard.
	BlocksDelivered = "trace.blocks"
	// EpochsDelivered counts epoch boundaries through the guard.
	EpochsDelivered = "trace.epochs"

	// SuiteTotal / SuiteDone / SuiteFailed count experiments scheduled,
	// finished, and failed; SuiteRetries counts transient-failure retries.
	SuiteTotal   = "suite.experiments.total"
	SuiteDone    = "suite.experiments.done"
	SuiteFailed  = "suite.experiments.failed"
	SuiteRetries = "suite.retries"
	// WorkersBusy gauges instantaneous suite-worker occupancy (its Max is
	// the high-water mark).
	WorkersBusy = "suite.workers.busy"
	// ExperimentWall is the per-experiment wall-time histogram.
	ExperimentWall = "experiment.wall"
	// LabelExperiment labels the most recently started experiment id.
	LabelExperiment = "experiment.current"

	// StoreHits / StoreMisses count result-store lookups served from
	// memory vs. lookups that had to compute (or read from disk).
	StoreHits   = "store.hits"
	StoreMisses = "store.misses"
	// StoreCoalesced counts lookups that joined an in-flight computation
	// of the same key instead of starting their own (singleflight).
	StoreCoalesced = "store.singleflight.coalesced"
	// StoreEvictions counts entries dropped by the LRU / max-bytes policy.
	StoreEvictions = "store.evictions"
	// StoreDiskHits counts misses satisfied by the persisted rendering
	// on disk, skipping the compute entirely.
	StoreDiskHits = "store.disk.hits"
	// StoreQueueDepth gauges computations waiting for a compute slot
	// (its Max is the backlog high-water mark).
	StoreQueueDepth = "store.queue.depth"
	// StoreBytes gauges the store's resident rendered-report bytes.
	StoreBytes = "store.bytes"
	// StoreComputeWall is the per-computation wall-time histogram
	// (slot wait excluded).
	StoreComputeWall = "store.compute.wall"

	// CaptureHits / CaptureMisses count kernel-trace capture lookups
	// answered by replaying a recorded stream vs. lookups that had to run
	// the kernel (and record it). CaptureReplayedRefs counts references
	// delivered from recordings — kernel work the suite did not repeat —
	// and CaptureBytes counts encoded snapshot bytes committed.
	// CaptureRerecords counts replays that failed before delivering
	// anything and safely fell through to re-recording.
	CaptureHits         = "capture.hits"
	CaptureMisses       = "capture.misses"
	CaptureReplayedRefs = "capture.refs.replayed"
	CaptureBytes        = "capture.bytes"
	CaptureRerecords    = "capture.rerecords"

	// FaultTriggeredPrefix prefixes per-failpoint fire counters:
	// "fault.triggered.<failpoint>" counts how often that injection site
	// actually fired (internal/fault increments it on the run's Recorder
	// when the site has one, else on the process recorder).
	FaultTriggeredPrefix = "fault.triggered."
	// CoreRetryAttempts counts re-attempts made by core.RetryPolicy
	// across every caller (suite runner, store compute).
	CoreRetryAttempts = "core.retry.attempts"
	// SuiteRevived counts suite cells revived from a checkpoint journal
	// instead of recomputed on a resumed run.
	SuiteRevived = "suite.cells.revived"
	// SuiteJournalErrors counts checkpoint-journal append failures the
	// suite survived (the cell still completes; only its checkpoint is
	// lost).
	SuiteJournalErrors = "suite.journal.errors"
	// StoreDegraded counts subsystem degradations in the result store
	// (disk persistence or kernel-trace capture flipping to
	// compute-without-cache).
	StoreDegraded = "store.degraded"
	// StoreQuarantined counts corrupt or schema-invalid persisted
	// reports renamed to <name>.quarantine during disk revival.
	StoreQuarantined = "store.quarantined"

	// SweepSubmitted counts lattice sweeps accepted by the sweep engine
	// (idempotent re-submissions of a running or clean sweep do not
	// count). SweepCellsTotal counts cells scheduled across all sweeps;
	// SweepCellsRevived the cells answered from the sweep journal or a
	// persisted store result with zero recompute, SweepCellsComputed the
	// cells that actually ran an experiment, and SweepCellsFailed the
	// cells whose compute failed (a re-submission retries only those).
	SweepSubmitted     = "sweep.submitted"
	SweepCellsTotal    = "sweep.cells.total"
	SweepCellsRevived  = "sweep.cells.revived"
	SweepCellsComputed = "sweep.cells.computed"
	SweepCellsFailed   = "sweep.cells.failed"
	// SweepJournalErrors counts sweep-checkpoint append failures the
	// sweep survived (the cell still lands; only its checkpoint is
	// lost, so a future resume revives it from the store instead).
	SweepJournalErrors = "sweep.journal.errors"

	// ServeRequests counts v1 API requests; ServeBusy counts the subset
	// rejected with 429 under compute-slot saturation, ServeNotModified
	// the conditional requests answered 304, and ServeErrors the 5xx
	// responses. ServeRequestWall is the request-latency histogram.
	ServeRequests    = "serve.requests"
	ServeBusy        = "serve.busy"
	ServeNotModified = "serve.not_modified"
	ServeErrors      = "serve.errors"
	ServeRequestWall = "serve.request.wall"

	// ClusterPeerHits counts local store misses answered by fetching the
	// finished rendering from the key's ring owner — computations this
	// node did not run. ClusterPeerMisses counts peer-fill attempts that
	// came back empty (owner still computing past the wait budget, owner
	// shedding load) and fell through to local compute; ClusterPeerSkipped
	// counts fills skipped without any network traffic (peer degraded and
	// inside its cooldown); ClusterPeerDegraded counts peer degradation
	// incidents (transitions only, mirroring store.degraded); and
	// ClusterPeerCorrupt counts owner responses rejected by the digest or
	// schema check — never served, never cached.
	ClusterPeerHits     = "cluster.peer.hits"
	ClusterPeerMisses   = "cluster.peer.misses"
	ClusterPeerSkipped  = "cluster.peer.skipped"
	ClusterPeerDegraded = "cluster.peer.degraded"
	ClusterPeerCorrupt  = "cluster.peer.corrupt"
	// ClusterPeerFetchWall is the wall-time histogram of peer-fill
	// attempts, successful or not (the price of asking before computing).
	ClusterPeerFetchWall = "cluster.peer.fetch.wall"
	// ClusterInternalRequests counts /v1/internal/reports/{key} requests
	// served to peers; ClusterInternalComputing the subset answered 202
	// because the owner was still computing the key.
	ClusterInternalRequests  = "cluster.internal.requests"
	ClusterInternalComputing = "cluster.internal.computing"
	// ClusterCrawlSteps counts precompute-crawler steps taken (a step
	// considers one owned lattice cell); ClusterCrawlWarmed the steps
	// that actually computed-or-revived a cold cell into the local store;
	// ClusterCrawlErrors the steps that failed (injected faults included)
	// and were skipped without stopping the crawler.
	ClusterCrawlSteps  = "cluster.crawl.steps"
	ClusterCrawlWarmed = "cluster.crawl.warmed"
	ClusterCrawlErrors = "cluster.crawl.errors"
)

// GaugeValue is a gauge's level and high-water mark at snapshot time.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// DurationStats summarizes a duration histogram. Durations encode as
// integer nanoseconds in JSON. Buckets[0] counts sub-microsecond
// observations and Buckets[i] counts [2^(i-1), 2^i) microseconds; the
// slice is trimmed after the last non-empty bucket.
type DurationStats struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Min     time.Duration `json:"min_ns"`
	Max     time.Duration `json:"max_ns"`
	Buckets []uint64      `json:"buckets,omitempty"`
}

// Mean is the average observed duration (0 when empty).
func (d DurationStats) Mean() time.Duration {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / time.Duration(d.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) from the power-of-two
// bucket counts. The estimate is conservative: it returns the upper edge
// of the bucket holding the q-th observation, clamped to [Min, Max], so
// a reported p99 is never below the true one by more than the bucket
// resolution (a factor of two). With no observations it returns 0.
func (d DurationStats) Quantile(q float64) time.Duration {
	if d.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the observation we want.
	rank := uint64(q*float64(d.Count-1)) + 1
	var seen uint64
	for i, n := range d.Buckets {
		seen += n
		if seen >= rank {
			// Bucket 0 is sub-microsecond; bucket i covers
			// [2^(i-1), 2^i) microseconds — report the upper edge.
			upper := time.Microsecond
			if i > 0 {
				upper = time.Duration(1<<uint(i)) * time.Microsecond
			}
			if upper < d.Min {
				upper = d.Min
			}
			if upper > d.Max {
				upper = d.Max
			}
			return upper
		}
	}
	return d.Max
}

// Metrics is an immutable snapshot of a Recorder, the form metrics travel
// in: embedded in a core.Report, rendered by the text and CSV formatters,
// or dumped as JSON next to suite output.
type Metrics struct {
	Counters  map[string]uint64        `json:"counters,omitempty"`
	Gauges    map[string]GaugeValue    `json:"gauges,omitempty"`
	Durations map[string]DurationStats `json:"durations,omitempty"`
	Labels    map[string]string        `json:"labels,omitempty"`
}

// Empty reports whether the snapshot recorded nothing.
func (m Metrics) Empty() bool {
	return len(m.Counters) == 0 && len(m.Gauges) == 0 &&
		len(m.Durations) == 0 && len(m.Labels) == 0
}

// Counter reads a counter by name (0 when absent).
func (m Metrics) Counter(name string) uint64 { return m.Counters[name] }

// merge folds o into m in place, allocating maps as needed: counters add,
// gauge levels add with the high-water marks maxed, histograms combine,
// and o's labels win.
func (m *Metrics) merge(o Metrics) {
	for name, v := range o.Counters {
		if m.Counters == nil {
			m.Counters = make(map[string]uint64)
		}
		m.Counters[name] += v
	}
	for name, gv := range o.Gauges {
		if m.Gauges == nil {
			m.Gauges = make(map[string]GaugeValue)
		}
		cur := m.Gauges[name]
		cur.Value += gv.Value
		if gv.Max > cur.Max {
			cur.Max = gv.Max
		}
		m.Gauges[name] = cur
	}
	for name, ds := range o.Durations {
		if m.Durations == nil {
			m.Durations = make(map[string]DurationStats)
		}
		cur, ok := m.Durations[name]
		if !ok {
			cur = DurationStats{Min: ds.Min}
		}
		if ds.Count > 0 && (cur.Count == 0 || ds.Min < cur.Min) {
			cur.Min = ds.Min
		}
		if ds.Max > cur.Max {
			cur.Max = ds.Max
		}
		cur.Count += ds.Count
		cur.Sum += ds.Sum
		for i, n := range ds.Buckets {
			for len(cur.Buckets) <= i {
				cur.Buckets = append(cur.Buckets, 0)
			}
			cur.Buckets[i] += n
		}
		m.Durations[name] = cur
	}
	for k, v := range o.Labels {
		if m.Labels == nil {
			m.Labels = make(map[string]string)
		}
		m.Labels[k] = v
	}
}

// Render writes the snapshot as sorted, aligned text — the form the report
// formatter embeds under a "metrics" heading.
func (m Metrics) Render(w io.Writer) {
	for _, name := range sortedKeys(m.Counters) {
		fmt.Fprintf(w, "  %-36s %d\n", name, m.Counters[name])
	}
	for _, name := range sortedKeys(m.Gauges) {
		gv := m.Gauges[name]
		fmt.Fprintf(w, "  %-36s %d (max %d)\n", name, gv.Value, gv.Max)
	}
	for _, name := range sortedKeys(m.Durations) {
		ds := m.Durations[name]
		fmt.Fprintf(w, "  %-36s n=%d mean=%s min=%s max=%s\n",
			name, ds.Count, ds.Mean().Round(time.Microsecond),
			ds.Min.Round(time.Microsecond), ds.Max.Round(time.Microsecond))
	}
	for _, k := range sortedKeys(m.Labels) {
		fmt.Fprintf(w, "  %-36s %s\n", k, m.Labels[k])
	}
}

// WriteJSON writes the snapshot as indented JSON, the machine-readable
// dump emitted next to suite output.
func (m Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
