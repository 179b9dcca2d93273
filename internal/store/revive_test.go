package store

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/workingset"
)

// Schema-revival coverage for the version-2 bump (the optional
// `sampling` object). Version-1 documents persisted before the bump must
// revive with a nil Sampling — no quarantine, no recompute — and
// version-2 documents must round-trip the sampling block through disk.

// TestSchemaV1RevivesWithNilSampling: a persisted version-1 rendering
// (no sampling field) shadows its key across a store restart and serves
// verbatim, reviving to a report without a sampling block.
func TestSchemaV1RevivesWithNilSampling(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	e := fakeExp("v1doc", &execs, nil, nil)
	opt := core.Options{Scale: core.ScaleQuick}

	// Handcraft the version-1 document the pre-bump code would have
	// written: today's rendering minus the v2-only field, stamped with
	// the old version.
	rep := &core.Report{Title: "fake v1doc"}
	rep.AddNote("scale=%s", opt.Scale)
	v1 := rep.V1()
	v1.SchemaVersion = core.MinReportSchemaVersion
	v1.Sampling = nil
	raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}

	s, rec := newRobustStore(t, Config{Dir: dir})
	if err := os.WriteFile(s.diskPath(KeyFor(e.ID, opt)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.Get(context.Background(), e, opt)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 0 {
		t.Errorf("version-1 document forced a recompute; execs = %d", execs.Load())
	}
	if rec.Snapshot().Counter(obs.StoreQuarantined) != 0 {
		t.Error("version-1 document was quarantined")
	}
	if string(res.JSON) != string(raw) {
		t.Error("revival did not serve the persisted bytes verbatim")
	}
	if res.Report.Sampling != nil {
		t.Errorf("version-1 revival grew a sampling block: %+v", res.Report.Sampling)
	}
}

// TestSamplingRoundTripsDisk: a report carrying a sampling block
// persists at the current schema version and revives bit-equal from a
// fresh store over the same directory.
func TestSamplingRoundTripsDisk(t *testing.T) {
	dir := t.TempDir()
	opt := core.Options{Scale: core.ScaleQuick, SampleRate: 16}
	var execs atomic.Int64
	e := core.Experiment{
		ID:    "v2doc",
		Title: "sampled fake",
		Run: func(ctx context.Context, o core.Options) (*core.Report, error) {
			execs.Add(1)
			r := &core.Report{Title: "sampled fake"}
			r.Sampling = &core.Sampling{Rate: o.SampleRate, SampledLines: 321, ErrorBound: 0.0558}
			return r, nil
		},
	}

	s1, _ := newRobustStore(t, Config{Dir: dir})
	res1, err := s1.Get(context.Background(), e, opt)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk core.ReportV1
	if err := json.Unmarshal(res1.JSON, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.SchemaVersion != core.ReportSchemaVersion {
		t.Errorf("persisted schema_version = %d, want %d", onDisk.SchemaVersion, core.ReportSchemaVersion)
	}
	if onDisk.Sampling == nil || onDisk.Sampling.Rate != 16 || onDisk.Sampling.SampledLines != 321 {
		t.Fatalf("persisted sampling block = %+v", onDisk.Sampling)
	}
	s1.Close(context.Background())

	s2, rec := newRobustStore(t, Config{Dir: dir})
	res2, err := s2.Get(context.Background(), e, opt)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Errorf("disk revival recomputed; execs = %d", execs.Load())
	}
	if rec.Snapshot().Counter(obs.StoreQuarantined) != 0 {
		t.Error("current-schema document was quarantined")
	}
	got := res2.Report.Sampling
	if got == nil || *got != (core.Sampling{Rate: 16, SampledLines: 321, ErrorBound: 0.0558}) {
		t.Errorf("revived sampling block = %+v", got)
	}
	if string(res2.JSON) != string(res1.JSON) {
		t.Error("revived JSON differs from the originally persisted rendering")
	}
}

// FuzzDecodeResult throws arbitrary bytes at DecodeResult, the schema
// gate that persisted and peer-filled renderings cross before the store
// serves them. It must never panic; a result it accepts must render as
// text, CSV and JSON without error, and that JSON rendering must pass
// the gate again and render back to the same bytes.
func FuzzDecodeResult(f *testing.F) {
	key := KeyFor("fuzz", core.Options{Scale: core.ScaleQuick})
	rep := &core.Report{
		Title: "fuzz",
		Figures: []core.Figure{{
			Title: "miss rate", XLabel: "cache", YLabel: "misses/ref",
			Series: []core.Series{{Label: "P=4", Points: []workingset.Point{
				{CacheBytes: 1024, MissRate: 0.5}, {CacheBytes: 4096, MissRate: 0.01},
			}}},
		}},
		Tables:   []core.Table{{Title: "grain", Header: []string{"P", "KB"}, Rows: [][]string{{"4", "16"}}}},
		Sampling: &core.Sampling{Rate: 16, SampledLines: 321, ErrorBound: 0.0558},
		Metrics: &obs.Metrics{
			Counters:  map[string]uint64{"cache.evictions": 7},
			Gauges:    map[string]obs.GaugeValue{"store.entries": {Value: 1, Max: 2}},
			Durations: map[string]obs.DurationStats{"store.compute.wall": {Count: 1, Sum: 5, Min: 5, Max: 5, Buckets: []uint64{1}}},
			Labels:    map[string]string{"scale": "quick"},
		},
	}
	rep.AddNote("scale=quick")
	var body bytes.Buffer
	if err := rep.Render(&body, core.FormatJSON); err != nil {
		f.Fatal(err)
	}
	v1 := bytes.Replace(body.Bytes(), []byte(`"schema_version": 2`), []byte(`"schema_version": 1`), 1)
	v99 := bytes.Replace(body.Bytes(), []byte(`"schema_version": 2`), []byte(`"schema_version": 99`), 1)
	if bytes.Equal(v1, body.Bytes()) {
		f.Fatal(`rendering has no "schema_version": 2 to replace`)
	}
	flipped := bytes.Clone(body.Bytes())
	flipped[len(flipped)/2] ^= 0x40
	for _, seed := range [][]byte{
		body.Bytes(), v1, v99, flipped, body.Bytes()[:body.Len()/2],
		[]byte(`{"schema_version": 2}`), []byte(`{}`), []byte(`null`), nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, err := DecodeResult(key, "fuzz", raw)
		if err != nil {
			if res != nil {
				t.Fatalf("rejection returned a result: %v", err)
			}
			return
		}
		for _, format := range []core.Format{core.FormatText, core.FormatCSV} {
			if err := res.Report.Render(io.Discard, format); err != nil {
				t.Fatalf("accepted result fails to render as %s: %v", format, err)
			}
		}
		var js bytes.Buffer
		if err := res.Report.Render(&js, core.FormatJSON); err != nil {
			t.Fatalf("accepted result fails to render as JSON: %v", err)
		}
		again, err := DecodeResult(key, "fuzz", js.Bytes())
		if err != nil {
			t.Fatalf("the JSON rendering of an accepted result is rejected: %v", err)
		}
		var js2 bytes.Buffer
		if err := again.Report.Render(&js2, core.FormatJSON); err != nil {
			t.Fatalf("revived rendering fails to render as JSON: %v", err)
		}
		if !bytes.Equal(js.Bytes(), js2.Bytes()) {
			t.Fatalf("JSON rendering does not survive a revival:\n%s\n%s", js.Bytes(), js2.Bytes())
		}
	})
}
