package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
)

// The cost gate holds each profiled experiment's quick-scale cost to
// testdata/cost.json: the obs work counters below must match exactly, and
// allocated bytes and allocation count may exceed the table by at most
// costMarginPct. A change that grows a value on purpose re-records the
// table with
//
//	go test -run '^TestCostTable$' ./internal/core/ -record-cost
//
// and says in its change log what grew, by how much and why.

var recordCost = flag.Bool("record-cost", false, "rewrite testdata/cost.json from this run")

const costMarginPct = 5

// costExperiments are the experiments the table pins: those that draw
// their curves with the stack profiler.
var costExperiments = []string{"fig2", "fig4", "fig5", "fig6", "fig6dm", "fig7"}

// costCounters are obs counters that are exact functions of the kernels.
var costCounters = []string{
	obs.RefsDelivered,
	coherence.MetricReads,
	coherence.MetricWrites,
	coherence.MetricInvalidations,
	cache.MetricProfilerAccesses,
	cache.MetricProfilerQueries,
	memsys.MetricRemoteMisses,
}

// costEntry is one experiment's row of the table.
type costEntry struct {
	AllocBytes uint64            `json:"alloc_bytes"`
	Allocs     uint64            `json:"allocs"`
	Counters   map[string]uint64 `json:"counters"`
}

func TestCostTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments in child processes")
	}
	if raceEnabled {
		t.Skip("the race runtime changes allocation counts; the work counters are checked without it")
	}
	path := filepath.Join("testdata", "cost.json")
	want := map[string]costEntry{}
	if !*recordCost {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	got := make([]costEntry, len(costExperiments))
	if *recordCost {
		t.Cleanup(func() {
			if !t.Failed() {
				recordCostTable(t, path, got)
			}
		})
	}
	for i, id := range costExperiments {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			run := runIsolated(t, id)
			e := costEntry{AllocBytes: run.AllocBytes, Allocs: run.Allocs, Counters: map[string]uint64{}}
			for _, name := range costCounters {
				e.Counters[name] = run.Report.Metrics.Counter(name)
			}
			got[i] = e
			if !*recordCost {
				checkCost(t, id, e, want)
			}
		})
	}
}

// recordCostTable writes the runs, in costExperiments order, as the table.
func recordCostTable(t *testing.T, path string, runs []costEntry) {
	table := map[string]costEntry{}
	for i, id := range costExperiments {
		table[id] = runs[i]
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		t.Error(err)
		return
	}
	t.Logf("recorded %s", path)
}

// checkCost compares one experiment's run with its row of the table.
func checkCost(t *testing.T, id string, got costEntry, table map[string]costEntry) {
	want, ok := table[id]
	if !ok {
		t.Fatalf("%s has no row in testdata/cost.json; record it with -record-cost", id)
	}
	for _, name := range costCounters {
		if g, w := got.Counters[name], want.Counters[name]; g != w {
			t.Errorf("%s: counter %s = %d, table %d", id, name, g, w)
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{{"allocated bytes", got.AllocBytes, want.AllocBytes}, {"allocations", got.Allocs, want.Allocs}} {
		switch {
		case c.got*100 > c.want*(100+costMarginPct):
			t.Errorf("%s: %s = %d, more than %d%% above the table's %d", id, c.name, c.got, costMarginPct, c.want)
		case c.got < c.want:
			t.Logf("%s: %s fell to %d from the table's %d", id, c.name, c.got, c.want)
		}
	}
}

// isolatedEnv names the experiment a re-executed test binary runs alone
// (see TestMain).
const isolatedEnv = "WSS_ISOLATED_RUN"

// isolatedRun is one quick-scale run of an experiment in a process of its
// own: the bytes and allocations Execute made, and the report with its
// run metrics.
type isolatedRun struct {
	AllocBytes uint64    `json:"alloc_bytes"`
	Allocs     uint64    `json:"allocs"`
	Report     *ReportV1 `json:"report"`
}

// runIsolated runs experiment id once at quick scale in a re-exec of the
// test binary, so that no other test's goroutines or garbage are counted.
func runIsolated(t *testing.T, id string) isolatedRun {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), isolatedEnv+"="+id)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: child run: %v\n%s", id, err, stderr.Bytes())
	}
	var run isolatedRun
	if err := json.Unmarshal(out, &run); err != nil {
		t.Fatalf("%s: child output: %v", id, err)
	}
	if run.Report == nil || run.Report.Metrics == nil {
		t.Fatalf("%s: child reported no metrics", id)
	}
	return run
}

// runIsolatedChild is the child's side of runIsolated: it runs the
// experiment with a recorder attached, as the CLI does, and writes an
// isolatedRun to standard output.
func runIsolatedChild(id string) error {
	e, ok := Find(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	ctx := obs.With(context.Background(), obs.New())
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Execute(ctx, e, Options{Scale: ScaleQuick})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(isolatedRun{
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Allocs:     after.Mallocs - before.Mallocs,
		Report:     rep.V1(),
	})
}

func TestMain(m *testing.M) {
	if id := os.Getenv(isolatedEnv); id != "" {
		if err := runIsolatedChild(id); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
