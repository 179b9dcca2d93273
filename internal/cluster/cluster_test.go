package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/breaker"
	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// testExp is a registry-shaped experiment for Fill tests (Fill only
// reads e.ID; nothing here runs it).
func testExp() core.Experiment {
	return core.Experiment{
		ID:    "fillx",
		Title: "fill test experiment",
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			r := &core.Report{Title: "fill test"}
			r.AddNote("cache=%d", opt.CacheBytes)
			return r, nil
		},
	}
}

// fillFixture is one local node ("a") whose ring peer ("b") is an
// httptest server under test control.
type fillFixture struct {
	cl    *Cluster
	rec   *obs.Recorder
	st    *store.Store
	exp   core.Experiment
	key   store.Key     // a key owned by "b"
	opt   core.Options  // the options deriving key
	body  []byte        // the canonical ReportV1 rendering for key
	owner *atomic.Value // func(w, r) — swapped per test phase
}

// newFillFixture builds the fixture: finds options whose key lands on
// the remote member, pre-computes the canonical rendering with a
// scratch store, and wires a Cluster at "a" pointing at the handler.
func newFillFixture(t *testing.T, cfg Config) *fillFixture {
	t.Helper()
	f := &fillFixture{exp: testExp(), owner: &atomic.Value{}}
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no handler installed", http.StatusInternalServerError)
	}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.owner.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(srv.Close)

	f.rec = obs.New()
	var err error
	if f.st, err = store.New(store.Config{Recorder: f.rec, Slots: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.st.Close(context.Background()) })

	cfg.Self = "a"
	cfg.Peers = map[string]string{"a": "http://unused.invalid", "b": srv.URL}
	cfg.Store = f.st
	cfg.Recorder = f.rec
	if f.cl, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.cl.Close)

	// Find options owned by the remote member.
	for cache := int64(1); ; cache++ {
		opt := core.Options{Scale: core.ScaleQuick, CacheBytes: uint64(cache) * 4096}
		key := store.KeyFor(f.exp.ID, opt)
		if f.cl.Ring().Owner(key) == "b" {
			f.key, f.opt = key, opt
			break
		}
	}

	// Pre-render the canonical body with a scratch store.
	scratch, err := store.New(store.Config{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close(context.Background())
	res, err := scratch.Get(context.Background(), f.exp, f.opt)
	if err != nil {
		t.Fatal(err)
	}
	f.body = res.JSON
	return f
}

// serveBody answers 200 with the given bytes and a digest computed over
// digestOf (normally the same bytes; tests pass different bytes to
// fake corruption).
func serveBody(body, digestOf []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sum := sha256.Sum256(digestOf)
		w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
		_, _ = w.Write(body)
	}
}

func status(code int, retryAfter string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(code)
	}
}

func (f *fillFixture) fill(t *testing.T, timeout time.Duration) (*store.Result, bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return f.cl.Fill(ctx, f.key, f.exp, f.opt)
}

func (f *fillFixture) counter(name string) uint64 {
	return f.rec.Snapshot().Counter(name)
}

func TestFillSelfOwnedKey(t *testing.T) {
	f := newFillFixture(t, Config{})
	// Find a self-owned key; Fill must decline without touching the peer.
	for cache := int64(1); ; cache++ {
		opt := core.Options{Scale: core.ScaleQuick, CacheBytes: uint64(cache) * 4096}
		key := store.KeyFor(f.exp.ID, opt)
		if f.cl.Ring().Owner(key) == "a" {
			if _, ok := f.cl.Fill(context.Background(), key, f.exp, opt); ok {
				t.Fatal("Fill filled a self-owned key")
			}
			if got := f.counter(obs.ClusterPeerMisses); got != 0 {
				t.Fatalf("self-owned fill counted a miss (%d)", got)
			}
			return
		}
	}
}

func TestFillSuccess(t *testing.T) {
	f := newFillFixture(t, Config{})
	f.owner.Store(serveBody(f.body, f.body))
	res, ok := f.fill(t, 5*time.Second)
	if !ok {
		t.Fatal("Fill failed against a healthy owner")
	}
	if res.Key != f.key || res.ID != f.exp.ID || string(res.JSON) != string(f.body) {
		t.Fatalf("Fill returned wrong result: key %s id %s", res.Key, res.ID)
	}
	if got := f.counter(obs.ClusterPeerHits); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if st := f.cl.Health(); st.Degraded() {
		t.Fatalf("healthy fetch left a degraded peer: %+v", st)
	}
}

// TestFillPollsComputingOwner: an owner answering 202 is polled, and
// the fill lands once the owner finishes.
func TestFillPollsComputingOwner(t *testing.T) {
	f := newFillFixture(t, Config{})
	var calls atomic.Int64
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			status(http.StatusAccepted, "1")(w, r)
			return
		}
		serveBody(f.body, f.body)(w, r)
	}))
	res, ok := f.fill(t, 10*time.Second)
	if !ok {
		t.Fatalf("Fill gave up after %d polls", calls.Load())
	}
	if string(res.JSON) != string(f.body) {
		t.Fatal("Fill returned wrong body after polling")
	}
	if calls.Load() < 3 {
		t.Fatalf("owner saw %d calls, want >= 3 (two 202s then a 200)", calls.Load())
	}
}

// TestFillWaitBudgetExhausted: an owner that never finishes costs the
// follower only the wait budget, counts a miss, and does NOT degrade
// the peer (it is alive, just slow).
func TestFillWaitBudgetExhausted(t *testing.T) {
	f := newFillFixture(t, Config{WaitBudget: 200 * time.Millisecond})
	f.owner.Store(status(http.StatusAccepted, "1"))
	start := time.Now()
	if _, ok := f.fill(t, 10*time.Second); ok {
		t.Fatal("Fill succeeded against a never-finishing owner")
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("Fill held the request %v, want ~the 200ms wait budget", wall)
	}
	if got := f.counter(obs.ClusterPeerMisses); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if st := f.cl.Health(); st.Degraded() {
		t.Fatal("a computing owner was marked degraded")
	}
}

// TestFillBusyOwner: 429 sheds to local compute immediately, without
// degrading the peer.
func TestFillBusyOwner(t *testing.T) {
	f := newFillFixture(t, Config{})
	var calls atomic.Int64
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		status(http.StatusTooManyRequests, "1")(w, r)
	}))
	if _, ok := f.fill(t, 5*time.Second); ok {
		t.Fatal("Fill succeeded against a shedding owner")
	}
	if calls.Load() != 1 {
		t.Fatalf("owner saw %d calls, want 1 (429 is not retryable)", calls.Load())
	}
	if st := f.cl.Health(); st.Degraded() {
		t.Fatal("a busy owner was marked degraded")
	}
}

// TestFillDegradeAndHeal: a 500 degrades the peer — the next fill skips
// it without a request — and after the cooldown one probe heals it.
func TestFillDegradeAndHeal(t *testing.T) {
	f := newFillFixture(t, Config{ProbeInterval: 100 * time.Millisecond})
	var calls atomic.Int64
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		status(http.StatusInternalServerError, "")(w, r)
	}))
	if _, ok := f.fill(t, 2*time.Second); ok {
		t.Fatal("Fill succeeded against a 500ing owner")
	}
	if got := f.counter(obs.ClusterPeerDegraded); got != 1 {
		t.Fatalf("degraded transitions = %d, want 1", got)
	}
	st := f.cl.Health()
	if !st.Degraded() {
		t.Fatalf("health does not show the degraded peer: %+v", st)
	}
	for _, p := range st.Peers {
		if p.ID == "b" && (p.State != breaker.StateDegraded || p.Reason == "") {
			t.Fatalf("peer b: state %q reason %q, want degraded with a reason", p.State, p.Reason)
		}
		if p.ID == "a" && p.State != StateSelf {
			t.Fatalf("peer a: state %q, want %q", p.State, StateSelf)
		}
	}

	// Inside the cooldown: bypassed, no request reaches the owner.
	before := calls.Load()
	if _, ok := f.fill(t, 2*time.Second); ok {
		t.Fatal("Fill used a degraded peer inside its cooldown")
	}
	if calls.Load() != before {
		t.Fatal("a degraded peer was dialed inside its cooldown")
	}
	if got := f.counter(obs.ClusterPeerSkipped); got == 0 {
		t.Fatal("bypassed fill did not count cluster.peer.skipped")
	}

	// After the cooldown: the probe goes through, succeeds, heals.
	time.Sleep(150 * time.Millisecond)
	f.owner.Store(serveBody(f.body, f.body))
	if _, ok := f.fill(t, 5*time.Second); !ok {
		t.Fatal("probe fill failed against a recovered owner")
	}
	if st := f.cl.Health(); st.Degraded() {
		t.Fatal("peer still degraded after a successful probe")
	}
	if got := f.counter(obs.ClusterPeerDegraded); got != 1 {
		t.Fatalf("degraded transitions = %d after heal, want still 1", got)
	}
}

// TestFillOneProbePerCooldown: once a dead peer's cooldown passes, a
// burst of concurrent fills (a cold-key storm) sends exactly one probe
// to it; every other fill bypasses straight to local compute instead of
// waiting on the same dead owner.
func TestFillOneProbePerCooldown(t *testing.T) {
	f := newFillFixture(t, Config{ProbeInterval: 300 * time.Millisecond})
	var calls atomic.Int64
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(200 * time.Millisecond) // a hung owner, not a fast 500
		status(http.StatusInternalServerError, "")(w, r)
	}))
	if _, ok := f.fill(t, 5*time.Second); ok {
		t.Fatal("Fill succeeded against a dead owner")
	}
	time.Sleep(350 * time.Millisecond)

	before, skipped := calls.Load(), f.counter(obs.ClusterPeerSkipped)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if _, ok := f.fill(t, 5*time.Second); ok {
				t.Error("Fill succeeded against a dead owner")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := calls.Load() - before; got != 1 {
		t.Errorf("8 fills after the cooldown dialed the dead owner %d times, want 1", got)
	}
	if got := f.counter(obs.ClusterPeerSkipped) - skipped; got != 7 {
		t.Errorf("cluster.peer.skipped += %d, want 7", got)
	}
}

// TestFillRejectsCorruptBody: damaged bytes — digest mismatch, or
// well-formed-but-invalid schema — are never returned, count
// cluster.peer.corrupt, and degrade the peer.
func TestFillRejectsCorruptBody(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler func(f *fillFixture) http.HandlerFunc
	}{
		{"digest mismatch", func(f *fillFixture) http.HandlerFunc {
			flipped := append([]byte(nil), f.body...)
			flipped[len(flipped)/2] ^= 0x40
			return serveBody(flipped, f.body) // digest of the true body, bytes damaged
		}},
		{"schema garbage", func(f *fillFixture) http.HandlerFunc {
			bad := []byte(`{"schema_version": 9999}`)
			return serveBody(bad, bad) // digest matches, schema gate must catch it
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFillFixture(t, Config{})
			f.owner.Store(tc.handler(f))
			if res, ok := f.fill(t, 5*time.Second); ok {
				t.Fatalf("Fill accepted corrupt bytes: %q", res.JSON[:40])
			}
			if got := f.counter(obs.ClusterPeerCorrupt); got != 1 {
				t.Fatalf("corrupt = %d, want 1", got)
			}
			if st := f.cl.Health(); !st.Degraded() {
				t.Fatal("a corrupting peer was not degraded")
			}
		})
	}
}

// TestFillUnknownStatus: a plain 4xx (registry/version skew) is a
// one-shot miss — no retry, no degradation.
func TestFillUnknownStatus(t *testing.T) {
	f := newFillFixture(t, Config{})
	var calls atomic.Int64
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		status(http.StatusBadRequest, "")(w, r)
	}))
	if _, ok := f.fill(t, 2*time.Second); ok {
		t.Fatal("Fill succeeded against a 400ing owner")
	}
	if calls.Load() != 1 {
		t.Fatalf("owner saw %d calls, want 1", calls.Load())
	}
	if st := f.cl.Health(); st.Degraded() {
		t.Fatal("a skewed-but-alive owner was marked degraded")
	}
}

// TestFillRequestShape: the fetch URL names the key and every axis in
// canonical form, so the owner can re-derive and verify the key.
func TestFillRequestShape(t *testing.T) {
	f := newFillFixture(t, Config{})
	var path, query atomic.Value
	f.owner.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path.Store(r.URL.Path)
		query.Store(r.URL.Query())
		serveBody(f.body, f.body)(w, r)
	}))
	if _, ok := f.fill(t, 5*time.Second); !ok {
		t.Fatal("Fill failed")
	}
	if got, want := path.Load().(string), InternalReportPath+f.key.String(); got != want {
		t.Fatalf("fetch path = %q, want %q", got, want)
	}
	q := query.Load().(url.Values)
	if got := q.Get("id"); got != f.exp.ID {
		t.Fatalf("fetch id = %q, want %q", got, f.exp.ID)
	}
	for _, axis := range core.AxisFields() {
		if got, want := q.Get("opt."+axis), f.opt.AxisValue(axis); got != want {
			t.Fatalf("fetch opt.%s = %q, want %q", axis, got, want)
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	st, err := store.New(store.Config{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"missing self", Config{Store: st, Peers: map[string]string{"a": "http://x"}}},
		{"missing store", Config{Self: "a", Peers: map[string]string{"a": "http://x"}}},
		{"self not in peers", Config{Self: "z", Store: st, Peers: map[string]string{"a": "http://x"}}},
		{"bad peer url", Config{Self: "a", Store: st, Peers: map[string]string{"a": "http://x", "b": ""}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c, err := New(tc.cfg); err == nil {
				c.Close()
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

func BenchmarkClusterPeerFetch(b *testing.B) {
	exp := testExp()
	scratch, err := store.New(store.Config{Slots: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer scratch.Close(context.Background())
	opt := core.Options{Scale: core.ScaleQuick, CacheBytes: 4096}
	res, err := scratch.Get(context.Background(), exp, opt)
	if err != nil {
		b.Fatal(err)
	}
	sum := sha256.Sum256(res.JSON)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
		_, _ = w.Write(res.JSON)
	}))
	defer srv.Close()

	st, err := store.New(store.Config{Slots: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close(context.Background())
	// A ring where the httptest member owns everything: self has no
	// vnodes competition because we pick a key owned by "b" below.
	cl, err := New(Config{
		Self:  "a",
		Peers: map[string]string{"a": "http://unused.invalid", "b": srv.URL},
		Store: st,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	key := res.Key
	if owner, _ := cl.Owner(key); owner != "b" {
		// Walk cache sizes until the benchmark key is remote-owned.
		for cache := int64(2); ; cache++ {
			opt = core.Options{Scale: core.ScaleQuick, CacheBytes: uint64(cache) * 4096}
			if k := store.KeyFor(exp.ID, opt); cl.Ring().Owner(k) == "b" {
				r2, err := scratch.Get(context.Background(), exp, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, key = r2, r2.Key
				sum = sha256.Sum256(res.JSON)
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r, ok := cl.Fill(ctx, key, exp, opt)
		cancel()
		if !ok || r == nil {
			b.Fatal("warm peer fetch failed")
		}
	}
	b.ReportMetric(float64(len(res.JSON)), "body_bytes")
}
