package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
)

// TestServeSmoke is the `make serve-smoke` gate: boot the real serving
// path (store + v1 API, exactly as `wsstudy serve` wires it), hit
// /v1/experiments and a report, assert 200 + valid JSON, then shut down
// gracefully.
func TestServeSmoke(t *testing.T) {
	rec := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, rec, serveParams{
			addr:         "127.0.0.1:0",
			slots:        2,
			defaultScale: core.ScaleQuick,
			drain:        10 * time.Second,
		}, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp := get(t, base+"/v1/experiments")
	var list struct {
		SchemaVersion int `json:"schema_version"`
		Experiments   []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(resp), &list); err != nil {
		t.Fatalf("/v1/experiments not JSON: %v\n%.300s", err, resp)
	}
	if list.SchemaVersion != core.ReportSchemaVersion || len(list.Experiments) == 0 {
		t.Fatalf("experiment list wrong: %+v", list)
	}

	// A model-only experiment end to end: quick to compute, full JSON
	// report out, and the store counters move on the shared recorder.
	rep := get(t, fmt.Sprintf("%s/v1/experiments/%s/report?opt.scale=quick", base, "scalingall"))
	var v core.ReportV1
	if err := json.Unmarshal([]byte(rep), &v); err != nil {
		t.Fatalf("report not ReportV1 JSON: %v\n%.300s", err, rep)
	}
	if v.SchemaVersion != core.ReportSchemaVersion {
		t.Errorf("schema_version = %d", v.SchemaVersion)
	}
	if rec.Counter(obs.StoreMisses).Value() != 1 {
		t.Errorf("store misses = %d, want 1", rec.Counter(obs.StoreMisses).Value())
	}

	// Graceful shutdown: cancelling the serve context drains and
	// returns nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Errorf("server still accepting after shutdown")
	}
}
