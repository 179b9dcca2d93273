package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"wsstudy/internal/obs"
	"wsstudy/internal/workingset"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"fig2", "fig4", "fig5", "fig6", "fig6dm", "fig7",
		"table1", "table2", "machines", "grain", "scalingbh", "cost",
		"assoc", "linesize", "scalingall", "phases", "bus", "sharing1024",
		"gridlu", "gridbh"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Description == "" || reg[i].Run == nil {
			t.Errorf("experiment %q incomplete", reg[i].ID)
		}
	}
	if _, ok := Find("fig6"); !ok {
		t.Error("Find(fig6) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

// TestAllExperimentsRunQuick is the end-to-end integration test: every
// registered experiment must run in quick mode and render non-trivially.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(context.Background(), Options{Scale: ScaleQuick})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(rep.Figures) == 0 && len(rep.Tables) == 0 {
				t.Fatalf("%s: empty report", e.ID)
			}
			var sb strings.Builder
			rep.Render(&sb, FormatText)
			out := sb.String()
			if len(out) < 100 {
				t.Fatalf("%s: suspiciously short render:\n%s", e.ID, out)
			}
			for _, fig := range rep.Figures {
				for _, s := range fig.Series {
					if len(s.Points) == 0 {
						t.Errorf("%s: series %q empty", e.ID, s.Label)
					}
					c := workingset.Curve{Label: s.Label, Points: s.Points}
					if err := c.Validate(); err != nil {
						t.Errorf("%s: %v", e.ID, err)
					}
				}
			}
		})
	}
}

// TestFig6MeasuredShape checks paper-facing properties of the Figure 6
// reproduction: a big lev1 drop and a floor under 2%.
func TestFig6MeasuredShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	e, _ := Find("fig6")
	rep, err := e.Run(context.Background(), Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Figures[0].Series[0]
	c := workingset.Curve{Points: s.Points}
	tiny := c.RateAt(64)
	mid := c.RateAt(4096)
	floor := c.RateAt(4 << 20)
	if !(tiny > 2*mid && mid > floor) {
		t.Errorf("fig6 shape wrong: %v, %v, %v", tiny, mid, floor)
	}
	if floor > 0.02 {
		t.Errorf("fig6 floor = %v, want < 2%%", floor)
	}
}

// quickReport runs experiment id at quick scale with a Recorder
// attached, so the report carries the run's metrics, once per test
// binary: the claim tests below share the runs.
func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	quickReports.Lock()
	defer quickReports.Unlock()
	if rep, ok := quickReports.m[id]; ok {
		return rep
	}
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep, err := Execute(obs.With(context.Background(), obs.New()), e, Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickReports.m[id] = rep
	return rep
}

var quickReports = struct {
	sync.Mutex
	m map[string]*Report
}{m: map[string]*Report{}}

// TestFig6DMRatio checks the Section 6.4 reproduction: direct-mapped needs
// a substantially larger cache than fully associative (paper: ~3x).
func TestFig6DMRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep := quickReport(t, "fig6dm")
	ratio := 0.0
	for _, n := range rep.Notes {
		if _, after, ok := strings.Cut(n, "(ratio "); ok {
			fmt.Sscanf(after, "%gx", &ratio)
		}
	}
	if ratio == 0 {
		t.Fatalf("fig6dm did not report a size ratio; notes: %v", rep.Notes)
	}
	// Quick scale measures 4.0x.
	if ratio < 2 || ratio > 8 {
		t.Errorf("§6.4 claim (direct-mapped needs ~3x the fully associative size) broken: ratio %.1fx outside [2, 8]", ratio)
	}
	// The DM curve should sit at or above the FA curve everywhere.
	fa := rep.Figures[0].Series[0]
	dm := rep.Figures[0].Series[1]
	worse := 0
	for i := range fa.Points {
		if dm.Points[i].MissRate >= fa.Points[i].MissRate-1e-9 {
			worse++
		}
	}
	if worse < len(fa.Points)*3/4 {
		t.Errorf("direct-mapped better than fully associative at %d/%d sizes",
			len(fa.Points)-worse, len(fa.Points))
	}
}

// TestAssocOrdering pins the associativity sweep's claim: more
// associativity never needs a larger cache to reach the target miss rate,
// from direct-mapped through 2-way and 4-way to fully associative (quick
// scale: 128 KB, 128 KB, 64 KB, 32 KB).
func TestAssocOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep := quickReport(t, "assoc")
	series := rep.Figures[0].Series
	if len(series) != 4 {
		t.Fatalf("assoc reports %d series, want 4", len(series))
	}
	fa := workingset.Curve{Points: series[3].Points}
	target := fa.RateAt(64*1024) * 1.25
	prev := uint64(0)
	for i, s := range series {
		at := firstSizeBelow(s, target)
		if at == 0 {
			t.Errorf("assoc claim broken: %s never reaches rate %.4g", s.Label, target)
			continue
		}
		if i > 0 && prev > 0 && at > prev {
			t.Errorf("assoc claim (more associativity never needs a larger cache) broken: %s needs %s, %s needs %s",
				s.Label, workingset.FormatBytes(at), series[i-1].Label, workingset.FormatBytes(prev))
		}
		prev = at
	}
}

// TestBusTrafficFalls pins the Section 1 claim the bus experiment
// reproduces: per-processor bus traffic never grows with cache size, and
// growing the cache from 4 KB to 1 MB cuts it at least 10x (quick scale:
// 32x).
func TestBusTrafficFalls(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	pts := quickReport(t, "bus").Figures[0].Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].MissRate > pts[i-1].MissRate {
			t.Errorf("§1 claim (bus traffic falls with cache size) broken: %s carries %.4g bytes/1000 refs, more than %s's %.4g",
				workingset.FormatBytes(pts[i].CacheBytes), pts[i].MissRate,
				workingset.FormatBytes(pts[i-1].CacheBytes), pts[i-1].MissRate)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.MissRate <= 0 || first.MissRate/last.MissRate < 10 {
		t.Errorf("§1 claim (big caches cut bus traffic) broken: %s -> %s cuts traffic %.3gx, want >= 10x",
			workingset.FormatBytes(first.CacheBytes), workingset.FormatBytes(last.CacheBytes), first.MissRate/last.MissRate)
	}
}

// TestProbeExperimentsRunKernelOnce pins the probe design: fig6dm, assoc
// and bus compare cache geometries as probes on one machine, so each runs
// the shared quick Barnes-Hut kernel exactly once and all three deliver
// the same reference count.
func TestProbeExperimentsRunKernelOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var want uint64
	for _, id := range []string{"fig6dm", "assoc", "bus"} {
		refs := quickReport(t, id).Metrics.Counter(obs.RefsDelivered)
		if refs == 0 {
			t.Fatalf("%s recorded no %s", id, obs.RefsDelivered)
		}
		if want == 0 {
			want = refs
		} else if refs != want {
			t.Errorf("%s delivered %d references, fig6dm %d: not one kernel run each", id, refs, want)
		}
	}
}

func TestTable2Values(t *testing.T) {
	e, _ := Find("table2")
	rep, err := e.Run(context.Background(), Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("table 2 has %d rows", len(tab.Rows))
	}
	// LU row: ours = 8 KB exactly (B=32 block).
	if tab.Rows[0][3] != "8 KB" {
		t.Errorf("LU cache(ours) = %q, want 8 KB", tab.Rows[0][3])
	}
	// VR row: ours = 70 KB (4000+110*600 = 70000 B).
	if !strings.Contains(tab.Rows[4][3], "68") && !strings.Contains(tab.Rows[4][3], "70") {
		t.Errorf("VR cache(ours) = %q, want ~70 KB", tab.Rows[4][3])
	}
}

func TestRenderFormats(t *testing.T) {
	r := &Report{Title: "demo"}
	r.Figures = append(r.Figures, Figure{
		Title: "f", XLabel: "cache size", YLabel: "rate",
		Series: []Series{{Label: "s", Points: []workingset.Point{
			{CacheBytes: 64, MissRate: 1}, {CacheBytes: 128, MissRate: 0.1},
		}}},
	})
	r.Tables = append(r.Tables, Table{Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}})
	r.AddNote("note %d", 7)
	var sb strings.Builder
	r.Render(&sb, FormatText)
	out := sb.String()
	for _, frag := range []string{"demo", "64 B", "knees[s]", "note 7", "-- t --"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestScalingAllRows(t *testing.T) {
	e, _ := Find("scalingall")
	rep, err := e.Run(context.Background(), Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("want MC and TC tables, got %d", len(rep.Tables))
	}
	mc, tc := rep.Tables[0], rep.Tables[1]
	if len(mc.Rows) != 10 || len(tc.Rows) != 10 {
		t.Fatalf("want 5 apps x 2 machine sizes per model")
	}
	// LU MC at 16x: time 4x; LU TC at 16x: grain 0.40x.
	if mc.Rows[0][5] != "4.0x" {
		t.Errorf("LU MC time = %q, want 4.0x", mc.Rows[0][5])
	}
	if tc.Rows[0][3] != "0.40x" {
		t.Errorf("LU TC grain = %q, want 0.40x", tc.Rows[0][3])
	}
	// CG time constant under both models.
	if mc.Rows[1][5] != "1.0x" || tc.Rows[1][5] != "1.0x" {
		t.Error("CG time should be constant under both models")
	}
}

func TestPhasesNarrative(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation step")
	}
	e, _ := Find("phases")
	rep, err := e.Run(context.Background(), Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	work, proj := rep.Tables[0], rep.Tables[1]
	if len(work.Rows) != 4 || len(proj.Rows) != 5 {
		t.Fatalf("unexpected table shapes: %d, %d rows", len(work.Rows), len(proj.Rows))
	}
	// Force dominates the measured step.
	if work.Rows[0][0] != "force computation" {
		t.Fatal("first row should be the force phase")
	}
	// The paper's claim: tree phases small at 512 PEs, dominant at 256K.
	parse := func(s string) float64 {
		var v float64
		fmt.Sscanf(s, "%f%%", &v)
		return v
	}
	at512 := parse(proj.Rows[1][3])
	at256k := parse(proj.Rows[4][3])
	if at512 > 25 {
		t.Errorf("tree share at 512 PEs = %v%%, should be modest", at512)
	}
	if at256k < 50 {
		t.Errorf("tree share at 256K PEs = %v%%, should dominate", at256k)
	}
}

func TestRenderCSV(t *testing.T) {
	r := &Report{Title: "demo"}
	r.Figures = append(r.Figures, Figure{
		Title: "fig", Series: []Series{{Label: "s", Points: []workingset.Point{
			{CacheBytes: 64, MissRate: 0.5},
			{CacheBytes: 128, MissRate: 0.25},
		}}},
	})
	var sb strings.Builder
	if err := r.Render(&sb, FormatCSV); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "figure,series,cache_bytes,value" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "64,0.5") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestSparklinesInRender(t *testing.T) {
	r := &Report{Title: "demo"}
	r.Figures = append(r.Figures, Figure{
		Title: "fig", XLabel: "cache size", YLabel: "rate",
		Series: []Series{{Label: "s", Points: []workingset.Point{
			{CacheBytes: 64, MissRate: 1}, {CacheBytes: 128, MissRate: 0.01},
		}}},
	})
	var sb strings.Builder
	r.Render(&sb, FormatText)
	if !strings.Contains(sb.String(), "log scale") {
		t.Fatalf("no sparkline in render:\n%s", sb.String())
	}
}
