package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
)

// fakeExp builds a registry-shaped experiment whose Run counts its
// executions and, when gate is non-nil, blocks on it after announcing
// itself on started (if non-nil).
func fakeExp(id string, execs *atomic.Int64, started chan<- struct{}, gate <-chan struct{}) core.Experiment {
	return core.Experiment{
		ID:    id,
		Title: "fake " + id,
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			execs.Add(1)
			if started != nil {
				started <- struct{}{}
			}
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			r := &core.Report{Title: "fake " + id}
			r.AddNote("scale=%s", opt.Scale)
			return r, nil
		},
	}
}

func TestKeyDerivation(t *testing.T) {
	quick := core.Options{Scale: core.ScaleQuick}
	full := core.Options{}
	if KeyFor("fig6", quick) == KeyFor("fig6", full) {
		t.Errorf("scale does not change the key")
	}
	if KeyFor("fig6", quick) == KeyFor("fig7", quick) {
		t.Errorf("experiment id does not change the key")
	}
	// Timeout is non-semantic: a result computed under any deadline is
	// reusable by every other deadline.
	if KeyFor("fig6", quick) != KeyFor("fig6", core.Options{Scale: core.ScaleQuick, Timeout: time.Minute}) {
		t.Errorf("Timeout changed the key")
	}
	if len(KeyFor("fig6", quick).String()) != 64 {
		t.Errorf("key hex form wrong length")
	}
}

// TestSingleflight is the acceptance check: N=32 concurrent identical
// requests execute the underlying experiment exactly once, every caller
// gets the same result, and the obs counters account for the whole
// fan-in (1 miss, 31 coalesced). A repeat request afterwards is a pure
// cache hit.
func TestSingleflight(t *testing.T) {
	const n = 32
	rec := obs.New()
	s, err := New(Config{Recorder: rec, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	e := fakeExp("sf", &execs, started, gate)
	opt := core.Options{Scale: core.ScaleQuick}

	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Get(context.Background(), e, opt)
		}(i)
	}

	<-started // the one leader is inside Run, holding the flight open
	// Wait until the other 31 callers have joined the flight before
	// releasing the computation, so coalescing is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Counter(obs.StoreCoalesced).Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers coalesced", rec.Counter(obs.StoreCoalesced).Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("experiment executed %d times, want exactly 1", got)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("caller %d got a different *Result", i)
		}
	}
	m := rec.Snapshot()
	if m.Counter(obs.StoreMisses) != 1 || m.Counter(obs.StoreCoalesced) != n-1 || m.Counter(obs.StoreHits) != 0 {
		t.Errorf("counters misses=%d coalesced=%d hits=%d, want 1/%d/0",
			m.Counter(obs.StoreMisses), m.Counter(obs.StoreCoalesced), m.Counter(obs.StoreHits), n-1)
	}

	// The repeat is a memory hit: no new execution, hit counter moves.
	if _, err := s.Get(context.Background(), e, opt); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Errorf("repeat request recomputed")
	}
	if rec.Counter(obs.StoreHits).Value() != 1 {
		t.Errorf("repeat request did not count as a hit")
	}
}

// TestMixedKeysDontSerialize: a slow computation on one key must not
// block a different key from completing (they hold different flights
// and there are free slots).
func TestMixedKeysDontSerialize(t *testing.T) {
	s, err := New(Config{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var slowExecs, fastExecs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	slow := fakeExp("slow", &slowExecs, started, gate)
	fast := fakeExp("fast", &fastExecs, nil, nil)

	slowDone := make(chan error, 1)
	go func() {
		_, err := s.Get(context.Background(), slow, core.Options{})
		slowDone <- err
	}()
	<-started // slow is in its slot, mid-run

	// A different key completes while slow is still computing.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Get(ctx, fast, core.Options{}); err != nil {
		t.Fatalf("fast key serialized behind slow one: %v", err)
	}
	if fastExecs.Load() != 1 {
		t.Errorf("fast executed %d times", fastExecs.Load())
	}

	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestBusy: with every slot held and no queue allowed, a new key is
// shed with ErrBusy instead of piling up.
func TestBusy(t *testing.T) {
	s, err := New(Config{Slots: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	holder := fakeExp("holder", &execs, started, gate)

	holderDone := make(chan struct{})
	go func() {
		s.Get(context.Background(), holder, core.Options{})
		close(holderDone)
	}()
	<-started

	if _, err := s.Get(context.Background(), fakeExp("other", &execs, nil, nil), core.Options{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated store returned %v, want ErrBusy", err)
	}
	close(gate)
	<-holderDone

	// With the slot free again the shed key computes fine.
	if _, err := s.Get(context.Background(), fakeExp("other", &execs, nil, nil), core.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueAdmitsUpToMaxQueue: one waiter is admitted when MaxQueue
// allows it and completes once the slot frees.
func TestQueueAdmitsUpToMaxQueue(t *testing.T) {
	rec := obs.New()
	s, err := New(Config{Slots: 1, MaxQueue: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	go s.Get(context.Background(), fakeExp("holder", &execs, started, gate), core.Options{})
	<-started

	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.Get(context.Background(), fakeExp("queued", &execs, nil, nil), core.Options{})
		queuedDone <- err
	}()
	// Wait for the waiter to register, then release the slot holder.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Gauge(obs.StoreQueueDepth).Max() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued compute failed: %v", err)
	}
	if rec.Gauge(obs.StoreQueueDepth).Value() != 0 {
		t.Errorf("queue depth did not settle to 0")
	}
}

// TestEviction: the LRU respects both the entry cap and the byte
// budget, counts evictions, and keeps the most recent insert.
func TestEviction(t *testing.T) {
	rec := obs.New()
	s, err := New(Config{MaxEntries: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	keys := make([]Key, 3)
	for i := 0; i < 3; i++ {
		e := fakeExp(fmt.Sprintf("e%d", i), &execs, nil, nil)
		res, err := s.Get(context.Background(), e, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = res.Key
	}
	if s.Len() != 2 {
		t.Fatalf("entries = %d, want 2", s.Len())
	}
	if s.Cached(keys[0]) {
		t.Errorf("oldest key survived entry-cap eviction")
	}
	if !s.Cached(keys[1]) || !s.Cached(keys[2]) {
		t.Errorf("recent keys evicted")
	}
	if rec.Counter(obs.StoreEvictions).Value() != 1 {
		t.Errorf("evictions = %d, want 1", rec.Counter(obs.StoreEvictions).Value())
	}

	// Byte budget: a store whose budget fits nothing still retains the
	// newest entry (size floor of one).
	tiny, err := New(Config{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tiny.Close(context.Background())
	res, err := tiny.Get(context.Background(), fakeExp("big", &execs, nil, nil), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Len() != 1 || !tiny.Cached(res.Key) {
		t.Errorf("oversized newest entry was not retained")
	}
	res2, err := tiny.Get(context.Background(), fakeExp("big2", &execs, nil, nil), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Len() != 1 || !tiny.Cached(res2.Key) || tiny.Cached(res.Key) {
		t.Errorf("byte budget did not evict the older entry")
	}
}

// TestLRUTouchOnHit: a hit refreshes recency, changing who gets evicted.
func TestLRUTouchOnHit(t *testing.T) {
	s, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	a := fakeExp("a", &execs, nil, nil)
	b := fakeExp("b", &execs, nil, nil)
	c := fakeExp("c", &execs, nil, nil)
	ra, _ := s.Get(context.Background(), a, core.Options{})
	s.Get(context.Background(), b, core.Options{})
	s.Get(context.Background(), a, core.Options{}) // touch a: b is now LRU
	s.Get(context.Background(), c, core.Options{})
	if !s.Cached(ra.Key) {
		t.Errorf("touched entry was evicted instead of the stale one")
	}
}

// TestDiskPersistence: a second store over the same directory serves
// the persisted rendering without recomputing, and the revived report
// still renders text/CSV.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	rec1 := obs.New()
	s1, err := New(Config{Dir: dir, Recorder: rec1})
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	e := fakeExp("persist", &execs, nil, nil)
	opt := core.Options{Scale: core.ScaleQuick}
	res1, err := s1.Get(context.Background(), e, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec2 := obs.New()
	s2, err := New(Config{Dir: dir, Recorder: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	res2, err := s2.Get(context.Background(), e, opt)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Fatalf("restart recomputed: %d executions", execs.Load())
	}
	if rec2.Counter(obs.StoreDiskHits).Value() != 1 {
		t.Errorf("disk hit not counted")
	}
	if string(res2.JSON) != string(res1.JSON) {
		t.Errorf("persisted JSON differs from computed JSON")
	}
	if res2.Report == nil || res2.Report.Title != "fake persist" {
		t.Errorf("revived report wrong: %+v", res2.Report)
	}
}

// TestCloseDrains: Close waits for in-flight computations, then new
// Gets fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := s.Get(context.Background(), fakeExp("drain", &execs, started, gate), core.Options{})
		got <- err
	}()
	<-started

	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a computation was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("draining Get failed: %v", err)
	}
	if _, err := s.Get(context.Background(), fakeExp("late", &execs, nil, nil), core.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Get returned %v, want ErrClosed", err)
	}
}

// TestCloseCancelsOnDeadline: a drain that exceeds its context cancels
// the in-flight run through the store's root context.
func TestCloseCancelsOnDeadline(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	started := make(chan struct{})
	got := make(chan error, 1)
	// gate never closes: only cancellation can end this run.
	gate := make(chan struct{})
	go func() {
		_, err := s.Get(context.Background(), fakeExp("stuck", &execs, started, gate), core.Options{})
		got <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want DeadlineExceeded", err)
	}
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestFollowerCtxExpiry: a follower whose context dies leaves the
// flight with its own ctx error while the leader's run completes and
// lands in the cache.
func TestFollowerCtxExpiry(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	e := fakeExp("follower", &execs, started, gate)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Get(context.Background(), e, core.Options{})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := s.Get(ctx, e, core.Options{})
		followerDone <- err
	}()
	// Let the follower join, then abandon it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower = %v, want context.Canceled", err)
	}

	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower left: %v", err)
	}
	if execs.Load() != 1 {
		t.Errorf("executions = %d", execs.Load())
	}
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuedLeaderCancelDoesNotFailFollowers: the caller that started a
// flight gives up while the flight is queued for a slot. A follower
// still waiting on the same key gets the report — the leader's
// cancellation neither fails nor cancels the flight — and the key
// executes once.
func TestQueuedLeaderCancelDoesNotFailFollowers(t *testing.T) {
	rec := obs.New()
	s, err := New(Config{Slots: 1, MaxQueue: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var holderExecs, execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close's drain, even when a check fails early
	holderDone := make(chan error, 1)
	go func() {
		_, err := s.Get(context.Background(), fakeExp("holder", &holderExecs, started, gate), core.Options{})
		holderDone <- err
	}()
	<-started // the only slot is taken

	e := fakeExp("queued", &execs, nil, nil)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Get(leaderCtx, e, core.Options{})
		leaderDone <- err
	}()
	waitUntil(t, "the leader's flight to queue", func() bool {
		return rec.Gauge(obs.StoreQueueDepth).Value() == 1
	})

	type outcome struct {
		res *Result
		err error
	}
	followerDone := make(chan outcome, 1)
	go func() {
		res, err := s.Get(context.Background(), e, core.Options{})
		followerDone <- outcome{res, err}
	}()
	waitUntil(t, "the follower to join", func() bool {
		return rec.Counter(obs.StoreCoalesced).Value() == 1
	})

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader = %v, want context.Canceled", err)
	}
	release()
	if err := <-holderDone; err != nil {
		t.Fatal(err)
	}
	got := <-followerDone
	if got.err != nil || got.res == nil {
		t.Fatalf("follower = (%v, %v), want the report", got.res, got.err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("queued key executed %d times, want 1", n)
	}
}

// TestLeaderReturnsAtItsDeadline: the caller that starts a flight is
// bounded by its own deadline like any other waiter — it leaves with
// DeadlineExceeded when the deadline passes, and the computation still
// lands in the cache.
func TestLeaderReturnsAtItsDeadline(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var execs atomic.Int64
	gate := make(chan struct{})
	e := fakeExp("slowlead", &execs, nil, gate)
	time.AfterFunc(300*time.Millisecond, func() { close(gate) })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Get(ctx, e, core.Options{})
	wall := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader = %v after %v, want DeadlineExceeded", err, wall)
	}
	if wall > 200*time.Millisecond {
		t.Fatalf("leader returned after %v, want ~its 20ms deadline", wall)
	}

	key := KeyFor(e.ID, core.Options{})
	waitUntil(t, "the abandoned computation to land", func() bool { return s.Cached(key) })
	if _, err := s.Get(context.Background(), e, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
}
