package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/breaker"
	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
)

// Robustness tests: quarantine of corrupt persisted reports, disk
// degradation with probe-based self-healing, and the compute retry under
// injected faults — including the invariant that a faulted
// computation's result is never cached.

func newRobustStore(t *testing.T, cfg Config) (*Store, *obs.Recorder) {
	t.Helper()
	t.Cleanup(fault.DisarmAll)
	rec := obs.New()
	cfg.Recorder = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s, rec
}

func TestQuarantineCorruptDiskFile(t *testing.T) {
	dir := t.TempDir()
	s, rec := newRobustStore(t, Config{Dir: dir})
	var execs atomic.Int64
	e := fakeExp("quar", &execs, nil, nil)
	opt := core.Options{Scale: core.ScaleQuick}
	key := KeyFor(e.ID, opt)

	// A corrupt file shadows the key before the first lookup.
	path := s.diskPath(key)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), e, opt); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Errorf("corrupt disk file should force a recompute; execs = %d", execs.Load())
	}
	if rec.Snapshot().Counter(obs.StoreQuarantined) != 1 {
		t.Error("quarantine not counted")
	}
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil || string(q) != "{not json" {
		t.Errorf("corrupt bytes not preserved at %s.quarantine: %v", filepath.Base(path), err)
	}
	// The recompute re-persisted a good rendering over the key.
	fresh, err := os.ReadFile(path)
	if err != nil || len(fresh) == 0 {
		t.Errorf("key not re-persisted after quarantine: %v", err)
	}
	if h := s.Health(); h.Disk.State != breaker.StateOK {
		t.Errorf("quarantine degraded the disk subsystem: %+v", h.Disk)
	}
}

// TestSchemaMismatchQuarantined: a valid-JSON file from a different
// schema version is quarantined, not trusted and not silently ignored.
func TestSchemaMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, rec := newRobustStore(t, Config{Dir: dir})
	var execs atomic.Int64
	e := fakeExp("schema", &execs, nil, nil)
	opt := core.Options{Scale: core.ScaleQuick}
	path := s.diskPath(KeyFor(e.ID, opt))
	if err := os.WriteFile(path, []byte(`{"schema_version":9999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), e, opt); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 || rec.Snapshot().Counter(obs.StoreQuarantined) != 1 {
		t.Errorf("execs=%d quarantined=%d, want 1/1",
			execs.Load(), rec.Snapshot().Counter(obs.StoreQuarantined))
	}
}

func TestDiskSaveFaultDegradesAndHeals(t *testing.T) {
	dir := t.TempDir()
	s, rec := newRobustStore(t, Config{Dir: dir, ProbeInterval: 10 * time.Millisecond})
	var execs atomic.Int64
	opt := core.Options{Scale: core.ScaleQuick}

	if err := fault.Arm("store.disk.save", fault.Trigger{
		Mode: fault.ModeError, Err: errors.New("disk full"), Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	e1 := fakeExp("deg1", &execs, nil, nil)
	res, err := s.Get(context.Background(), e1, opt)
	if err != nil || res == nil {
		t.Fatalf("a persistence fault must not fail the computation: %v", err)
	}
	if _, err := os.Stat(s.diskPath(res.Key)); !os.IsNotExist(err) {
		t.Error("faulted save still produced a file")
	}
	if h := s.Health(); h.Disk.State != breaker.StateDegraded {
		t.Fatalf("disk state = %q, want degraded", h.Disk.State)
	}
	m := rec.Snapshot()
	if m.Counter(obs.StoreDegraded) != 1 {
		t.Errorf("store.degraded = %d, want 1", m.Counter(obs.StoreDegraded))
	}
	if m.Counter(obs.FaultTriggeredPrefix+"store.disk.save") != 1 {
		t.Errorf("fault.triggered.store.disk.save = %d, want 1",
			m.Counter(obs.FaultTriggeredPrefix+"store.disk.save"))
	}

	// Inside the cooldown the disk is bypassed entirely; after it, the
	// next save doubles as a probe and heals (the trigger self-disarmed
	// after its one shot).
	time.Sleep(15 * time.Millisecond)
	e2 := fakeExp("deg2", &execs, nil, nil)
	res2, err := s.Get(context.Background(), e2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.diskPath(res2.Key)); err != nil {
		t.Errorf("probe save did not persist: %v", err)
	}
	if h := s.Health(); h.Disk.State != breaker.StateOK {
		t.Errorf("disk did not heal after a successful probe: %+v", h.Disk)
	}
}

func TestDiskLoadFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	opt := core.Options{Scale: core.ScaleQuick}
	var execs atomic.Int64
	e := fakeExp("loadfault", &execs, nil, nil)

	// Persist a good rendering with one store, then read it back with a
	// fresh store (same dir) so the lookup must go to disk.
	s1, _ := newRobustStore(t, Config{Dir: dir})
	if _, err := s1.Get(context.Background(), e, opt); err != nil {
		t.Fatal(err)
	}
	s1.Close(context.Background())

	s2, rec := newRobustStore(t, Config{Dir: dir})
	if err := fault.Arm("store.disk.load", fault.Trigger{
		Mode: fault.ModeError, Err: errors.New("io error"), Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(context.Background(), e, opt); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Errorf("unreadable disk should force a recompute; execs = %d", execs.Load())
	}
	if h := s2.Health(); h.Disk.State != breaker.StateDegraded {
		t.Errorf("disk state = %q, want degraded after a read fault", h.Disk.State)
	}
	if rec.Snapshot().Counter(obs.StoreDegraded) != 1 {
		t.Error("degradation not counted")
	}
}

// TestComputeRetriesTransientFault: a one-shot transient compute fault
// costs one retry; the eventual result is genuine and cached.
func TestComputeRetriesTransientFault(t *testing.T) {
	s, rec := newRobustStore(t, Config{})
	if err := fault.Arm("store.compute", fault.Trigger{
		Mode: fault.ModeError, Err: core.Transient(errors.New("flaky")), Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	e := fakeExp("retry", &execs, nil, nil)
	opt := core.Options{Scale: core.ScaleQuick}
	res, err := s.Get(context.Background(), e, opt)
	if err != nil || res == nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	if !s.Cached(res.Key) {
		t.Error("retried result not cached")
	}
	m := rec.Snapshot()
	if m.Counter(obs.CoreRetryAttempts) != 1 {
		t.Errorf("core.retry.attempts = %d, want 1", m.Counter(obs.CoreRetryAttempts))
	}
	if m.Counter(obs.FaultTriggeredPrefix+"store.compute") != 1 {
		t.Errorf("fault counter = %d, want 1", m.Counter(obs.FaultTriggeredPrefix+"store.compute"))
	}
}

// TestFaultedComputeNeverCached is the core chaos invariant at unit
// scale: while the compute failpoint is armed with a permanent error,
// nothing lands in memory or on disk; after disarming, the key computes
// cleanly.
func TestFaultedComputeNeverCached(t *testing.T) {
	dir := t.TempDir()
	s, _ := newRobustStore(t, Config{Dir: dir, ComputeRetries: -1})
	if err := fault.Arm("store.compute", fault.Trigger{
		Mode: fault.ModeError, Err: errors.New("injected"),
	}); err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	e := fakeExp("nocache", &execs, nil, nil)
	opt := core.Options{Scale: core.ScaleQuick}
	key := KeyFor(e.ID, opt)
	for i := 0; i < 3; i++ {
		if _, err := s.Get(context.Background(), e, opt); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Get %d: err = %v, want an injected failure", i, err)
		}
	}
	if s.Cached(key) || s.Len() != 0 {
		t.Fatal("a faulted computation's result was cached")
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != 0 {
		t.Fatalf("a faulted computation persisted %v", entries)
	}
	fault.DisarmAll()
	if _, err := s.Get(context.Background(), e, opt); err != nil {
		t.Fatal(err)
	}
	if !s.Cached(key) {
		t.Error("clean recompute after disarm not cached")
	}
}

func TestHealthReflectsConfiguration(t *testing.T) {
	s1, _ := newRobustStore(t, Config{})
	if h := s1.Health(); h.Disk.State != breaker.StateOff {
		t.Errorf("unconfigured disk = %+v, want off", h)
	}
	s2, _ := newRobustStore(t, Config{Dir: t.TempDir()})
	if h := s2.Health(); h.Disk.State != breaker.StateOK {
		t.Errorf("configured disk = %+v, want ok", h)
	}
	s2.Close(context.Background())
	if h := s2.Health(); !h.Closed {
		t.Error("Health does not report a closed store")
	}
}
