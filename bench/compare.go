package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json, the benchmark's declaration at the
// repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmark loads path, or BENCHMARK.json from the current directory
// or its parent when path is empty (the repository root or bench/).
func readBenchmark(path string) (*benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, lastErr
}

// Verdicts of one comparison, B (the change) against A (the baseline).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges B's runs against A's for one metric. B is worse when
// its median is worse than A's by more than bound (a share of A's
// median), better when it is better by more than bound, and the same
// otherwise — unless either side's interquartile spread exceeds bound,
// which leaves the metric unresolved, except when every run of one side
// beats every run of the other.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	worseBy := (median(b) - median(a)) / math.Abs(median(a))
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	separated := beatsAll(a, b, lowerIsBetter) || beatsAll(b, a, lowerIsBetter)
	switch {
	case max(spread(a), spread(b)) > bound && !separated:
		return verdictUnresolved
	case worseBy > bound:
		return verdictWorse
	case worseBy < -bound:
		return verdictBetter
	}
	return verdictSame
}

// beatsAll reports whether every value of x is strictly better than
// every value of y.
func beatsAll(x, y []float64, lowerIsBetter bool) bool {
	xs, ys := sorted(x), sorted(y)
	if lowerIsBetter {
		return xs[len(xs)-1] < ys[0]
	}
	return xs[0] > ys[len(ys)-1]
}

// compareMain prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict, and fails on any worse verdict.
func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bpath := fs.String("benchmark", "", "BENCHMARK.json with the bounds (default: ./ or ../)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-benchmark BENCHMARK.json] A.json B.json")
	}
	bf, err := readBenchmark(*bpath)
	if err != nil {
		return err
	}
	var arcs [2]archive
	for i, p := range fs.Args() {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &arcs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	worse := 0
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tverdict")
	for _, w := range bf.Workloads {
		ra, rb := arcs[0].Runs[w.Name], arcs[1].Runs[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t%d runs\t%d runs\t\t%s\n", w.Name, len(ra), len(rb), verdictUnresolved)
			continue
		}
		for _, m := range bf.EndToEnd {
			a, b := metricValues(ra, m.Name), metricValues(rb, m.Name)
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\n", w.Name, m.Name, describeRuns(a, m.Unit), describeRuns(b, m.Unit),
				100*(median(b)-median(a))/math.Abs(median(a)), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) got worse by more than their bound", worse)
	}
	return nil
}

// metricValues collects one metric across the runs of a workload.
func metricValues(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describeRuns(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] %d", q2, unit, q1, q3, len(xs))
}
