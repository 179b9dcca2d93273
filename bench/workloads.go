package main

import (
	"fmt"
	"strings"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string // one line: what it exercises that the others do not
	run  func(e *env, seed int64, seconds float64) (*outcome, error)
}

// workloads are the benchmark's six workloads, in the order `all` runs
// them. The whys are repeated in BENCHMARK.json and README.md.
var workloads = []workload{
	{"fig6-full", "paper-scale Barnes-Hut Figure 6 with the exact stack-distance profiler, which does most of the work", computeRunner("fig6-full")},
	{"fig6-full-s16", "the same run with 1/16 sampling, so the coherence directory dominates and a profiler-only change must not move it", computeRunner("fig6-full-s16")},
	{"suite-quick", "all 20 experiments at quick scale on 2 workers with capture: concrete caches, fanout, sharded engine, replay", computeRunner("suite-quick")},
	{"sweep-gridbh", "a cold 16-cell gridbh lattice through the sweep engine and store, then a journal revival that must compute nothing", computeRunner("sweep-gridbh")},
	{"serve-cached", "Zipf requests for 64 warm gridlu keys on a 2-node cluster: store hits and HTTP only, no simulator", runServeCached},
	{"serve-cold", "never-seen gridlu keys sent to both nodes, follower first: ring, peer-fill 202 and poll, one compute per key, persist", runServeCold},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// outcome is what a workload measured in one run, before it is reduced
// to metrics.
type outcome struct {
	attempted, failed int
	problems          []string

	setup []float64 // seconds per set-up
	ops   []float64 // milliseconds per operation from its scheduled instant, in schedule order
	rss   float64   // peak resident set of any process the workload ran, MB

	counts map[string][]float64 // workload-specific extras, archived only
}

func (o *outcome) addCounts(c map[string]float64) {
	for k, v := range c {
		if o.counts == nil {
			o.counts = make(map[string][]float64)
		}
		o.counts[k] = append(o.counts[k], v)
	}
}

// The end-to-end metrics every workload reports. An operation is one
// compute run (fig6, suite, sweep), one request (serve-cached) or one key
// until both nodes answered it (serve-cold).
const (
	mSetup = "setup_s"     // median set-up time
	mP50   = "p50_ms"      // median operation latency
	mTail  = "tail_ms"     // p95/p90 with ten samples above it, else the median; median over windows of 1000
	mRSS   = "peak_rss_mb" // peak resident set size
)

// e2eMetrics lists the end-to-end metrics with their units.
var e2eMetrics = []struct{ name, unit string }{
	{mSetup, "s"}, {mP50, "ms"}, {mTail, "ms"}, {mRSS, "MB"},
}

// runWorkload runs one untraced measurement and reduces it to the
// end-to-end metrics.
func runWorkload(e *env, w workload, seed int64, seconds float64) (record, error) {
	out, err := w.run(e, seed, seconds)
	if err != nil {
		return record{}, err
	}
	if len(out.ops) == 0 || len(out.setup) == 0 {
		return record{}, fmt.Errorf("no operation completed: %s", strings.Join(out.problems, "; "))
	}
	rec := record{
		Workload: w.name, Seed: seed,
		result: result{
			Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
			Metrics: map[string]metric{},
		},
		Spread:   map[string]spreadInfo{},
		Problems: out.problems,
	}
	put := func(name, unit string, value float64, samples []float64) {
		rec.Metrics[name] = metric{Value: value, Unit: unit}
		q1, _, q3 := quartiles(samples)
		rec.Spread[name] = spreadInfo{Q1: q1, Q3: q3, N: len(samples)}
	}
	put(mSetup, "s", median(out.setup), out.setup)
	put(mP50, "ms", median(out.ops), out.ops)
	put(mTail, "ms", windowedTail(out.ops), out.ops)
	rec.Metrics[mRSS] = metric{Value: out.rss, Unit: "MB"}
	for k, xs := range out.counts {
		if rec.Extra == nil {
			rec.Extra = map[string]float64{}
		}
		rec.Extra[k] = median(xs)
	}
	return rec, nil
}
