// Command wsbench is the repository benchmark: six workloads, from a
// paper-scale Figure 6 profile to a cold-key storm against a two-node
// serving cluster, timed end to end and, in a separate traced run, layer
// by layer. See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
// Usage (from the repository root; bench/run.sh builds and supplies
// -wsstudy and -work):
//
//	bash bench/run.sh --workload fig6-full --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --workload all --trace 1
//	bash bench/run.sh record -runs 10 -out bench/results/seed-a.json
//	bash bench/run.sh compare bench/results/seed-a.json bench/results/seed-b.json
//	bash bench/run.sh golden -out bench/golden.json
//
// Each run prints one line per metric and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. It exits nonzero
// when an output check fails or an operation fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		os.Exit(1)
	}
}

// env is what every workload needs from the command line: where the
// wsstudy binary is, where scratch state may go, and whether to shrink
// every workload to toy size (the smoke tests do).
type env struct {
	wsstudy string // path of the wsstudy binary the serving workloads boot
	work    string // scratch directory; every file a run writes lives here
	self    string // this program, re-executed for each compute operation
	toy     bool
	log     io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// scratch returns a fresh, empty directory under the work directory.
func (e *env) scratch(name string) (string, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.work, name+"-")
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wsbench", flag.ContinueOnError)
	wsstudy := fs.String("wsstudy", "", "path of the wsstudy binary (bench/run.sh builds it)")
	work := fs.String("work", ".bench_build/work", "scratch directory for stores, journals and spans")
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for the serving key sets and the request stream")
	seconds := fs.Float64("seconds", 18, "measured window of one run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e := &env{wsstudy: *wsstudy, work: *work, self: self, log: os.Stderr}

	rest := fs.Args()
	if len(rest) > 0 {
		switch rest[0] {
		case "compare":
			return compareMain(rest[1:], stdout)
		case "record":
			return recordMain(e, rest[1:], *workload, *seed, *seconds)
		case "golden":
			return goldenMain(e, rest[1:])
		}
		return fmt.Errorf("unknown command %q (want compare, record or golden)", rest[0])
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	ok := true
	for _, name := range names {
		w, found := findWorkload(name)
		if !found {
			return fmt.Errorf("unknown workload %q (valid: all, %s)", name, strings.Join(workloadNames(), ", "))
		}
		var rec record
		if *traced == 1 {
			rec, err = runTraced(e, w, *seed)
		} else {
			rec, err = runWorkload(e, w, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printRecord(stdout, rec)
		ok = ok && rec.Correct && rec.Failed == 0
	}
	if !ok {
		return errors.New("an output check or an operation failed")
	}
	return nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, the one tools read.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spreadInfo is what an archived run keeps beside each median: the
// quartiles and the sample count it was taken over.
type spreadInfo struct {
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	N  int     `json:"n"`
}

// record is one run: the result line plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
	Spread map[string]spreadInfo `json:"spread,omitempty"`
	// Extra holds workload-specific medians that are not metrics, such as
	// the sweep's revival time, for the archive and the log.
	Extra    map[string]float64 `json:"extra,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// printRecord writes every metric by name and unit, then the result
// line, which must be the last line of standard output. A per-layer
// metric is followed by the end-to-end metric it should move.
func printRecord(w io.Writer, rec record) {
	fmt.Fprintf(w, "== %s (seed %d): correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed)
	moves := map[string]string{}
	for _, lm := range perLayerMetrics() {
		moves[lm.name] = lm.moves
	}
	for _, name := range sortedNames(rec.Metrics) {
		m := rec.Metrics[name]
		line := fmt.Sprintf("  %-36s %14.6g %s", name, m.Value, m.Unit)
		if s, ok := rec.Spread[name]; ok {
			line += fmt.Sprintf("   (q1 %.6g, q3 %.6g, n=%d)", s.Q1, s.Q3, s.N)
		}
		if mv, ok := moves[name]; ok {
			line += "   -> " + mv
		}
		fmt.Fprintln(w, line)
	}
	for _, k := range sortedNames(rec.Extra) {
		fmt.Fprintf(w, "  (extra) %-28s %14.6g\n", k, rec.Extra[k])
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	b, err := json.Marshal(rec.result)
	if err != nil {
		panic(err) // unreachable: the result holds only numbers and strings
	}
	fmt.Fprintln(w, string(b))
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// archive is a set of runs of every workload, as `record` writes it and
// `compare` reads it.
type archive struct {
	Host map[string]string   `json:"host"`
	Runs map[string][]record `json:"runs"` // by workload
}

// recordMain runs the named workload (or all) -runs times, each with its
// own seed, and writes the runs with the host facts to -out.
func recordMain(e *env, args []string, only string, seed int64, seconds float64) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	out := fs.String("out", "", "archive file to write (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *runs < 1 {
		return fmt.Errorf("record: -out is required and -runs must be positive")
	}
	names := workloadNames()
	if only != "all" {
		names = []string{only}
	}
	arc := archive{Host: hostFacts(), Runs: make(map[string][]record)}
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("record: unknown workload %q", name)
		}
		for i := 0; i < *runs; i++ {
			rec, err := runWorkload(e, w, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("record %s: %w", name, err)
			}
			e.logf("record: %s run %d/%d p50_ms=%.4g", name, i+1, *runs, rec.Metrics["p50_ms"].Value)
			arc.Runs[name] = append(arc.Runs[name], rec)
		}
	}
	b, err := json.MarshalIndent(arc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}

// hostFacts records what a reader needs to compare archived numbers
// across machines.
func hostFacts() map[string]string {
	facts := map[string]string{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"recorded":   time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				facts["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return facts
}
