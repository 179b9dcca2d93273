package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// wsstudyBin is the wsstudy binary the serving smoke tests boot.
var wsstudyBin string

// TestMain lets the test binary stand in for wsbench as the compute
// workloads' child process, and builds wsstudy for the serving ones.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(childMain(os.Args[2:]))
	}
	dir, err := os.MkdirTemp("", "wsbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wsstudyBin = filepath.Join(dir, "wsstudy")
	build := exec.Command("go", "build", "-o", wsstudyBin, "wsstudy/cmd/wsstudy")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building wsstudy:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyEnv(t *testing.T) *env {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &env{wsstudy: wsstudyBin, work: t.TempDir(), self: self, toy: true, log: io.Discard}
}

// TestEveryWorkloadToy runs each workload at toy size, end to end, and
// checks that it passes its own output checks and reports every
// end-to-end metric as a positive number.
func TestEveryWorkloadToy(t *testing.T) {
	e := toyEnv(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, err := runWorkload(e, w, 3, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			if len(rec.Metrics) != len(e2eMetrics) {
				t.Errorf("%d metrics, want %d", len(rec.Metrics), len(e2eMetrics))
			}
			for _, m := range e2eMetrics {
				got, ok := rec.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive %s value", m.name, got, ok, m.unit)
				}
			}
		})
	}
}

// TestTracedLedgerToy runs the traced ledger at toy size: it must pass its
// checks, report only declared per-layer metrics, and write its spans.
func TestTracedLedgerToy(t *testing.T) {
	e := toyEnv(t)
	rec, err := runTraced(e, workloads[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 {
		t.Fatalf("correct=%v failed=%d problems=%v", rec.Correct, rec.Failed, rec.Problems)
	}
	declared := map[string]string{}
	for _, m := range perLayerMetrics() {
		declared[m.name] = m.unit
	}
	for name, m := range rec.Metrics {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			t.Errorf("metric %s (%s) is not declared as %q", name, m.Unit, unit)
		}
	}
	if len(rec.Metrics) < len(declared)-20 {
		t.Errorf("only %d of %d per-layer metrics measured", len(rec.Metrics), len(declared))
	}
	if rec.Metrics["sweep.revived"].Value != 4 || rec.Metrics["sweep.recomputed"].Value != 0 {
		t.Errorf("revival: %v revived, %v recomputed; want 4 and 0",
			rec.Metrics["sweep.revived"].Value, rec.Metrics["sweep.recomputed"].Value)
	}
	if fi, err := os.Stat(filepath.Join(e.work, "spans.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("spans.jsonl missing or empty: %v", err)
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to what this program
// reports: the same workloads and whys, end-to-end metrics and per-layer
// metrics, with no bound above 0.25 and setup_s's the largest.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(bf.EndToEnd), len(e2eMetrics))
	}
	var setupBound, maxOther float64
	for i, m := range bf.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit || m.Better != "lower" {
			t.Errorf("end-to-end %d: declared %+v, code %+v", i, m, e2eMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetup {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	pl := perLayerMetrics()
	if len(bf.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(bf.PerLayer), len(pl))
	}
	for i, m := range bf.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit || m.Better != pl[i].better {
			t.Errorf("per-layer %d: declared %+v, code %+v", i, m, pl[i])
		}
	}
}
