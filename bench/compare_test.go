package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictTable(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"within bound", base, []float64{103, 104, 102, 103, 105, 101}, true, 0.1, verdictSame},
		{"slower by more than bound", base, []float64{130, 131, 129, 130, 132, 128}, true, 0.1, verdictWorse},
		{"faster by more than bound", base, []float64{70, 71, 69, 70, 72, 68}, true, 0.1, verdictBetter},
		{"higher is better, dropped", base, []float64{70, 71, 69, 70, 72, 68}, false, 0.1, verdictWorse},
		{"higher is better, rose", base, []float64{130, 131, 129, 130, 132, 128}, false, 0.1, verdictBetter},
		{"baseline too noisy", []float64{50, 100, 150, 200, 250}, []float64{150, 151, 149}, true, 0.1, verdictUnresolved},
		{"change too noisy", base, []float64{60, 100, 140, 180}, true, 0.1, verdictUnresolved},
		{"noisy but every run worse", []float64{100, 140, 120, 160}, []float64{200, 210, 205, 220}, true, 0.1, verdictWorse},
		{"noisy but every run better", []float64{100, 140, 120, 160}, []float64{50, 55, 52, 58}, true, 0.1, verdictBetter},
		{"noisy, separated, within bound", []float64{100, 90, 110, 95, 105}, []float64{111, 111.5, 112}, true, 0.12, verdictSame},
		{"no runs", nil, base, true, 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFailsOnWorse runs the compare command over two archives
// where one metric regressed beyond its bound.
func TestCompareFailsOnWorse(t *testing.T) {
	dir := t.TempDir()
	bench := `{"workloads": [{"name": "w", "why": "test"}],
		"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}`
	bpath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bpath, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50 float64) string {
		var runs []record
		for i := 0; i < 5; i++ {
			runs = append(runs, record{Workload: "w", result: result{Metrics: map[string]metric{
				"p50_ms":      {Value: p50 + float64(i), Unit: "ms"},
				"peak_rss_mb": {Value: 15, Unit: "MB"},
			}}})
		}
		b, err := json.Marshal(archive{Runs: map[string][]record{"w": runs}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, worse := write("a.json", 100), write("same.json", 101), write("worse.json", 150)

	var out strings.Builder
	if err := compareMain([]string{"-benchmark", bpath, a, same}, &out); err != nil {
		t.Errorf("compare of equal runs failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictSame) {
		t.Errorf("compare output lacks a %q verdict:\n%s", verdictSame, out.String())
	}
	out.Reset()
	if err := compareMain([]string{"-benchmark", bpath, a, worse}, &out); err == nil {
		t.Errorf("compare of a 50%% regression passed:\n%s", out.String())
	}
	if err := compareMain([]string{"-benchmark", bpath, a}, io.Discard); err == nil {
		t.Error("compare with one archive did not fail")
	}
}
