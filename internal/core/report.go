// Package core orchestrates the paper's experiments: each figure and table
// of the evaluation maps to a registered Experiment whose Run method drives
// the kernels, simulators and models and assembles a Report.
package core

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"wsstudy/internal/obs"
	"wsstudy/internal/workingset"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []workingset.Point
}

// Figure is a set of curves over cache size, plus any knees found.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Sampling describes the fidelity of a report computed with a sampled
// profiler: the spatial sampling rate, how many distinct sampled lines
// backed the estimate, and the estimated relative error bound
// (~1/sqrt(sampled lines)). Exact runs carry a nil Sampling.
type Sampling struct {
	Rate         int
	SampledLines int
	ErrorBound   float64
}

// Report is an experiment's full output.
type Report struct {
	Title   string
	Figures []Figure
	Tables  []Table
	Notes   []string
	// Sampling records the profiler fidelity when the run used spatial
	// sampling (Options.SampleRate > 1); nil for exact runs.
	Sampling *Sampling
	// Metrics is the run's observability snapshot — per-stage counters,
	// timings and labels — populated by Execute when the run's context
	// carries an obs.Recorder, nil otherwise.
	Metrics *obs.Metrics
}

// AddNote appends a free-text note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format selects a Report rendering. The zero value is the aligned-text
// form the CLI prints.
type Format uint8

const (
	// FormatText renders aligned tables, sparklines and knee summaries.
	FormatText Format = iota
	// FormatCSV renders (figure, series, cache_bytes, value) rows plus
	// metrics pseudo-rows — the machine-readable plotting output.
	FormatCSV
	// FormatJSON renders the frozen ReportV1 schema.
	FormatJSON
)

// String names the format ("text", "csv", "json").
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatJSON:
		return "json"
	}
	return "text"
}

// ContentType is the MIME type of the rendering, as the HTTP layer
// serves it.
func (f Format) ContentType() string {
	switch f {
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatJSON:
		return "application/json"
	}
	return "text/plain; charset=utf-8"
}

// ParseFormat parses a format name ("text", "csv", "json"),
// case-insensitively; "" means FormatText.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text":
		return FormatText, nil
	case "csv":
		return FormatCSV, nil
	case "json":
		return FormatJSON, nil
	}
	return 0, fmt.Errorf("core: unknown report format %q (valid: text, csv, json)", s)
}

// Render writes the report in the given format. Every consumer — the
// CLI, the HTTP API, and the result store's persistence — goes through
// this one method, so the three renderings can never drift apart.
func (r *Report) Render(w io.Writer, f Format) error {
	switch f {
	case FormatCSV:
		return r.renderCSV(w)
	case FormatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r.V1())
	default:
		r.renderText(w)
		return nil
	}
}

// renderText writes the report as aligned text.
func (r *Report) renderText(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Title)
	for fi := range r.Figures {
		renderFigure(w, &r.Figures[fi])
	}
	for ti := range r.Tables {
		renderTable(w, &r.Tables[ti])
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w, "\nNotes:")
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  - %s\n", n)
		}
	}
	if r.Sampling != nil {
		fmt.Fprintf(w, "\nsampling: rate=1/%d sampled_lines=%d est_error<=%.3g\n",
			r.Sampling.Rate, r.Sampling.SampledLines, r.Sampling.ErrorBound)
	}
	if r.Metrics != nil && !r.Metrics.Empty() {
		fmt.Fprintln(w, "\n-- metrics --")
		r.Metrics.Render(w)
	}
}

func renderFigure(w io.Writer, f *Figure) {
	fmt.Fprintf(w, "\n-- %s --\n", f.Title)
	fmt.Fprintf(w, "   (%s vs %s)\n", f.YLabel, f.XLabel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	// Header: union of sizes comes from the first series; the sweeps all
	// use the same grid.
	fmt.Fprintf(tw, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(tw, "\t%s", s.Label)
	}
	fmt.Fprintln(tw)
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			fmt.Fprintf(tw, "%s", workingset.FormatBytes(f.Series[0].Points[i].CacheBytes))
			for _, s := range f.Series {
				if i < len(s.Points) {
					fmt.Fprintf(tw, "\t%.4g", s.Points[i].MissRate)
				} else {
					fmt.Fprintf(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	renderSparklines(w, f)
	// Knee summary per series.
	for _, s := range f.Series {
		c := workingset.Curve{Label: s.Label, Points: s.Points}
		knees := workingset.FindKnees(&c, 1.5, 0.002)
		if len(knees) == 0 {
			continue
		}
		var parts []string
		for _, k := range knees {
			parts = append(parts, fmt.Sprintf("%s (%.3g->%.3g)",
				workingset.FormatBytes(k.CacheBytes), k.Before, k.After))
		}
		fmt.Fprintf(w, "   knees[%s]: %s\n", s.Label, strings.Join(parts, ", "))
	}
}

// renderSparklines draws each series as a log-scale bar strip so the knee
// structure is visible at a glance in a terminal.
func renderSparklines(w io.Writer, f *Figure) {
	marks := []rune(" .:-=+*#%@")
	for _, s := range f.Series {
		lo, hi := math.Inf(1), 0.0
		for _, p := range s.Points {
			if p.MissRate > 0 && p.MissRate < lo {
				lo = p.MissRate
			}
			if p.MissRate > hi {
				hi = p.MissRate
			}
		}
		if hi == 0 || math.IsInf(lo, 1) || hi <= lo {
			continue
		}
		var sb strings.Builder
		for _, p := range s.Points {
			if p.MissRate <= 0 {
				sb.WriteRune(marks[0])
				continue
			}
			frac := math.Log(p.MissRate/lo) / math.Log(hi/lo)
			idx := int(frac * float64(len(marks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(marks) {
				idx = len(marks) - 1
			}
			sb.WriteRune(marks[idx])
		}
		fmt.Fprintf(w, "   [%s] %s (log scale, %s..%s)\n",
			sb.String(), s.Label,
			strconv.FormatFloat(lo, 'g', 3, 64), strconv.FormatFloat(hi, 'g', 3, 64))
	}
}

// renderCSV writes every figure series as rows of
// (figure, series, cache_bytes, value). When the report carries Metrics,
// they follow as rows under the pseudo-figure "metrics" with an empty
// cache_bytes column.
func (r *Report) renderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "series", "cache_bytes", "value"}); err != nil {
		return err
	}
	for _, f := range r.Figures {
		for _, s := range f.Series {
			for _, p := range s.Points {
				if err := cw.Write([]string{
					f.Title, s.Label,
					strconv.FormatUint(p.CacheBytes, 10),
					strconv.FormatFloat(p.MissRate, 'g', -1, 64),
				}); err != nil {
					return err
				}
			}
		}
	}
	if r.Metrics != nil {
		if err := renderMetricsCSV(cw, r.Metrics); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// renderMetricsCSV emits a report's metrics snapshot as CSV rows: one per
// counter and gauge, and count/sum rows per duration histogram.
func renderMetricsCSV(cw *csv.Writer, m *obs.Metrics) error {
	row := func(name, value string) error {
		return cw.Write([]string{"metrics", name, "", value})
	}
	names := make([]string, 0, len(m.Counters))
	for name := range m.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := row(name, strconv.FormatUint(m.Counters[name], 10)); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range m.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := row(name+".max", strconv.FormatInt(m.Gauges[name].Max, 10)); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range m.Durations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds := m.Durations[name]
		if err := row(name+".count", strconv.FormatUint(ds.Count, 10)); err != nil {
			return err
		}
		if err := row(name+".sum_ns", strconv.FormatInt(int64(ds.Sum), 10)); err != nil {
			return err
		}
	}
	return nil
}

func renderTable(w io.Writer, t *Table) {
	fmt.Fprintf(w, "\n-- %s --\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

// Scale selects the simulated problem sizes of a run. The zero value is
// the full, paper-scale configuration, so a zero Options keeps meaning
// "run it for real"; intermediate scales can be added without another
// signature change.
type Scale uint8

const (
	// ScaleFull runs the paper-scale or largest-feasible configurations.
	ScaleFull Scale = iota
	// ScaleQuick shrinks simulated problem sizes so the whole suite runs
	// in seconds (used by tests and smoke runs).
	ScaleQuick
)

// String names the scale.
func (s Scale) String() string {
	if s == ScaleQuick {
		return "quick"
	}
	return "full"
}

// Options tunes an experiment run. Cancellation and observability do not
// live here: the run's context.Context — the first argument of every Run —
// carries both (deadline/cancel natively, the obs.Recorder via obs.With).
//
// Beyond Scale, Options carries the design-space axes of a parameter
// sweep: cache capacity, line size, associativity, processor count and
// problem size. Every axis is zero-defaulted — a zero means "the
// experiment's own default" — and every axis participates in the
// canonical encoding, so two cells of a lattice can never alias one
// result key. The paper-figure experiments pick their own parameters
// and ignore the axes; the grid cell experiments (gridlu, gridbh)
// consume all of them, which is what the sweep engine enumerates.
type Options struct {
	// Scale selects the simulated problem sizes (ScaleFull by default).
	Scale Scale
	// CacheBytes, when positive, is the per-PE cache capacity of a grid
	// cell. Zero keeps the experiment's default (typically a profiled
	// full curve rather than one concrete cache).
	CacheBytes uint64
	// LineBytes, when positive, is the cache line size in bytes of a
	// grid cell (zero = the experiment default, 8).
	LineBytes int
	// Assoc, when positive, is the cache associativity of a grid cell
	// (1 = direct-mapped); zero means fully associative.
	Assoc int
	// PEs, when positive, overrides the simulated (or modeled) processor
	// count of a grid cell.
	PEs int
	// Problem, when positive, overrides the application problem size of
	// a grid cell (n for LU and Barnes-Hut).
	Problem int
	// SampleRate selects profiler fidelity: 0 or 1 runs the exact
	// stack-distance profiler; a power of two ≥ 2 profiles a hashed 1/R
	// subset of the line space with counts scaled back up (see
	// cache.SampledStackProfiler). Sampling changes reported numbers, so
	// it is part of the canonical encoding and the result key.
	SampleRate int
	// Timeout, when positive, bounds the experiment's run time. Execute
	// derives a deadline-carrying context and maps expiry to ErrDeadline.
	Timeout time.Duration
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID          string // "fig2", "table1", ...
	Title       string
	Description string
	Run         func(ctx context.Context, opt Options) (*Report, error)
}

// registry builds the experiment list and its id index exactly once; the
// constructors are pure, so there is no reason to re-run all eighteen on
// every Find.
var registry = sync.OnceValue(func() *registryData {
	d := &registryData{
		list: []Experiment{
			expFig2(), expFig4(), expFig5(), expFig6(), expFig6DM(), expFig7(),
			expTable1(), expTable2(), expMachines(), expGrain(), expScalingBH(),
			expCost(), expAssoc(), expLineSize(), expScalingAll(), expPhases(),
			expBus(), expSharing1024(), expGridLU(), expGridBH(),
		},
	}
	d.byID = make(map[string]Experiment, len(d.list))
	for _, e := range d.list {
		d.byID[e.ID] = e
	}
	return d
})

type registryData struct {
	list []Experiment
	byID map[string]Experiment
}

// Registry lists every experiment in paper order. The returned slice is
// the caller's to reorder or filter.
func Registry() []Experiment {
	d := registry()
	out := make([]Experiment, len(d.list))
	copy(out, d.list)
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	e, ok := registry().byID[id]
	return e, ok
}
