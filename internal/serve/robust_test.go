package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/breaker"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// TestHealthzDegradedStore: a disk fault degrades the store but not the
// service — /healthz stays 200 (a liveness restart would not help) while
// reporting the degraded subsystem, and reports keep serving.
func TestHealthzDegradedStore(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	var execs atomic.Int64
	rec := obs.New()
	_, hs := newTestServer(t, store.Config{Dir: t.TempDir()}, testRegistry(&execs, nil, nil), rec)

	if err := fault.Arm("store.disk.save", fault.Trigger{
		Mode: fault.ModeError, Err: errors.New("disk full"), Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp := get(t, hs.URL+"/v1/experiments/inst/report", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report during disk fault = %d, want 200 (degraded, not down)", resp.StatusCode)
	}

	resp = get(t, hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded = %d, want 200", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal([]byte(body(t, resp)), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Store.Disk.State != breaker.StateDegraded {
		t.Errorf("healthz = %+v, want overall degraded with a degraded disk", h)
	}
	if h.Store.Disk.Reason == "" {
		t.Error("degraded disk reported no reason")
	}
}

// TestHealthzDownWhenClosed: a closed store is the one condition that
// answers 503 — the process really cannot serve.
func TestHealthzDownWhenClosed(t *testing.T) {
	var execs atomic.Int64
	srv, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)
	if err := srv.cfg.Store.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := get(t, hs.URL+"/healthz", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "down" || !h.Store.Closed {
		t.Errorf("healthz = %+v, want down/closed", h)
	}
}

// TestReportFaultStatusMapping: the serve.report failpoint exercises
// writeStoreError end to end — an injected error wrapping a typed store
// error maps to that error's status, and a plain one to 500 with the
// error counter incremented.
func TestReportFaultStatusMapping(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	var execs atomic.Int64
	rec := obs.New()
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), rec)

	if err := fault.Arm("serve.report", fault.Trigger{
		Mode: fault.ModeError, Err: store.ErrBusy, Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp := get(t, hs.URL+"/v1/experiments/inst/report", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("injected ErrBusy = %d, want 429", resp.StatusCode)
	}

	if err := fault.Arm("serve.report", fault.Trigger{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	resp = get(t, hs.URL+"/v1/experiments/inst/report", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("injected plain fault = %d, want 500", resp.StatusCode)
	}
	m := rec.Snapshot()
	if m.Counter(obs.ServeErrors) != 1 {
		t.Errorf("serve.errors = %d, want 1", m.Counter(obs.ServeErrors))
	}
	if m.Counter(obs.FaultTriggeredPrefix+"serve.report") != 2 {
		t.Errorf("fault.triggered.serve.report = %d, want 2",
			m.Counter(obs.FaultTriggeredPrefix+"serve.report"))
	}
	if execs.Load() != 0 {
		t.Errorf("faulted report requests still computed %d times", execs.Load())
	}
}

// TestShutdownRacesInflightSuite is the SIGTERM drain race under -race:
// Shutdown lands while /v1/suite is mid-fan-out with an experiment
// parked inside its Run. The drain must wait for the suite response,
// the response must be complete (every row present, the parked one OK),
// and the shutdown must finish clean once the run unblocks.
func TestShutdownRacesInflightSuite(t *testing.T) {
	var execs atomic.Int64
	rec := obs.New()
	st, err := store.New(store.Config{Recorder: rec, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	gate := make(chan struct{})
	srv, err := New(Config{Store: st, Registry: testRegistry(&execs, started, gate), Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type suiteOutcome struct {
		code int
		body string
	}
	suiteDone := make(chan suiteOutcome, 1)
	go func() {
		resp := get(t, "http://"+addr+"/v1/suite", nil)
		suiteDone <- suiteOutcome{resp.StatusCode, body(t, resp)}
	}()
	<-started // the suite fan-out reached the parked experiment

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while /v1/suite was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	out := <-suiteDone
	if out.code != http.StatusOK {
		t.Fatalf("in-flight suite finished %d, want 200 (drained)", out.code)
	}
	var sr suiteResponse
	if err := json.Unmarshal([]byte(out.body), &sr); err != nil {
		t.Fatalf("suite response did not parse after drain: %v", err)
	}
	if len(sr.Results) != 2 {
		t.Fatalf("drained suite has %d rows, want 2", len(sr.Results))
	}
	for _, row := range sr.Results {
		if !row.OK {
			t.Errorf("drained suite row %s failed: %s", row.ID, row.Error)
		}
	}
}
