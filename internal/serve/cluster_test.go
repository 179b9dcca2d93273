package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/breaker"
	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// testCluster is an in-process N-node cluster: every node is a full
// StartNode stack (store, sweep engine, cluster, HTTP server) bound to
// a real loopback port, sharing one experiment registry.
type testCluster struct {
	nodes []*Node
	recs  []*obs.Recorder
	ids   []string
}

// startTestCluster boots n nodes. Ports are pre-bound before any node
// starts so the full peer map is known up front — the same chicken-and-
// egg a production deployment solves with static configuration. tweak
// (optional) edits each NodeConfig before boot.
func startTestCluster(t *testing.T, n int, reg []core.Experiment, tweak func(i int, cfg *NodeConfig)) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make(map[string]string, n)
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		id := fmt.Sprintf("node-%d", i)
		tc.ids = append(tc.ids, id)
		peers[id] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		rec := obs.New()
		cfg := NodeConfig{
			Listener:       lns[i],
			NodeID:         tc.ids[i],
			PeerAddrs:      peers,
			Store:          store.Config{Slots: 4},
			Registry:       reg,
			DefaultScale:   core.ScaleQuick,
			RequestTimeout: 30 * time.Second,
			Recorder:       rec,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		node, err := StartNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		tc.nodes = append(tc.nodes, node)
		tc.recs = append(tc.recs, rec)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, node := range tc.nodes {
			_ = node.Shutdown(ctx)
		}
	})
	return tc
}

// ownerOf finds which node owns the key for (id, opt).
func (tc *testCluster) ownerOf(id string, opt core.Options) int {
	key := store.KeyFor(id, opt)
	owner := tc.nodes[0].Cluster.Ring().Owner(key)
	for i, nid := range tc.ids {
		if nid == owner {
			return i
		}
	}
	return -1
}

// reportURL builds the public report URL for node i.
func (tc *testCluster) reportURL(i int, expID string, opt core.Options) string {
	u := fmt.Sprintf("%s/v1/experiments/%s/report?opt.scale=%s", tc.nodes[i].URL(), expID, opt.Scale)
	if opt.CacheBytes > 0 {
		u += fmt.Sprintf("&opt.cache=%d", opt.CacheBytes)
	}
	return u
}

// slowCountingExp is a registry experiment that counts executions and
// takes real wall time, so a thundering herd has a window to pile up.
func slowCountingExp(id string, execs *atomic.Int64, d time.Duration) core.Experiment {
	return core.Experiment{
		ID:    id,
		Title: "slow counting " + id,
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			execs.Add(1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			r := &core.Report{Title: id}
			r.AddNote("cache=%d", opt.CacheBytes)
			return r, nil
		},
	}
}

// TestClusterColdKeySingleflight is the cross-node singleflight drill:
// 32 concurrent clients spread over a 3-node cluster all ask for one
// cold key. The ring sends every node to the same owner, the owner's
// store singleflight admits one computation, and the owner holds the
// followers' fills until it lands — the storm costs exactly one kernel
// run cluster-wide, and every client gets an identical rendering.
func TestClusterColdKeySingleflight(t *testing.T) {
	var execs atomic.Int64
	reg := []core.Experiment{slowCountingExp("cold", &execs, 300*time.Millisecond)}
	tc := startTestCluster(t, 3, reg, nil)
	opt := core.Options{Scale: core.ScaleQuick, CacheBytes: 4096}

	const clients = 32
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(tc.reportURL(i%3, "cold", opt))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("client %d got a different rendering than client 0", i)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("cold-key storm executed the kernel %d times cluster-wide, want exactly 1", got)
	}

	// The non-owner nodes must have peer-filled, not computed: their
	// compute-wall histograms saw zero executions.
	owner := tc.ownerOf("cold", opt)
	var peerHits uint64
	for i, rec := range tc.recs {
		m := rec.Snapshot()
		if i == owner {
			continue
		}
		if n := m.Durations[obs.StoreComputeWall].Count; n != 0 {
			t.Errorf("non-owner node-%d ran %d local computes, want 0", i, n)
		}
		peerHits += m.Counter(obs.ClusterPeerHits)
	}
	if peerHits < 2 {
		t.Errorf("followers recorded %d peer-fill hits, want >= 2 (one per follower)", peerHits)
	}
}

// TestClusterColdFillHeld: a cold key asked of a follower only costs
// the owner one internal request. The owner holds it until the 20 ms
// compute lands and answers 200, instead of answering 202 and being
// asked again after the follower's backoff.
func TestClusterColdFillHeld(t *testing.T) {
	var execs atomic.Int64
	reg := []core.Experiment{slowCountingExp("held", &execs, 20*time.Millisecond)}
	tc := startTestCluster(t, 2, reg, nil)
	opt := core.Options{Scale: core.ScaleQuick, CacheBytes: 4096}
	owner := tc.ownerOf("held", opt)
	follower := 1 - owner

	resp, err := http.Get(tc.reportURL(follower, "held", opt))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower answered %d, want 200", resp.StatusCode)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("cold key executed %d times, want 1", got)
	}
	om := tc.recs[owner].Snapshot()
	if got := om.Counter(obs.ClusterInternalRequests); got != 1 {
		t.Errorf("owner served %d internal requests, want 1 (one held fill)", got)
	}
	if got := om.Counter(obs.ClusterInternalComputing); got != 0 {
		t.Errorf("owner answered 202 %d times, want 0", got)
	}
	if got := om.Durations[obs.ClusterInternalHoldWall].Count; got != 1 {
		t.Errorf("owner recorded %d held requests, want 1", got)
	}
	fm := tc.recs[follower].Snapshot()
	if got := fm.Counter(obs.ClusterPeerHits); got != 1 {
		t.Errorf("follower peer hits = %d, want 1", got)
	}
	if n := fm.Durations[obs.StoreComputeWall].Count; n != 0 {
		t.Errorf("follower ran %d local computes, want 0", n)
	}
}

// TestClusterWarmPeerFill: with the owner already warm, a miss on a
// follower is answered entirely by peer-fill — zero local computes on
// the follower, one hit counter, and the rendering is byte-identical
// to the owner's.
func TestClusterWarmPeerFill(t *testing.T) {
	var execs atomic.Int64
	reg := []core.Experiment{slowCountingExp("warm", &execs, 10*time.Millisecond)}
	tc := startTestCluster(t, 2, reg, nil)
	opt := core.Options{Scale: core.ScaleQuick, CacheBytes: 4096}
	owner := tc.ownerOf("warm", opt)
	follower := 1 - owner

	get := func(i int) []byte {
		t.Helper()
		resp, err := http.Get(tc.reportURL(i, "warm", opt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node-%d answered %d", i, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	ownerBody := get(owner)
	if execs.Load() != 1 {
		t.Fatalf("warming the owner ran %d computes, want 1", execs.Load())
	}
	followerBody := get(follower)
	if string(followerBody) != string(ownerBody) {
		t.Fatal("peer-filled rendering differs from the owner's")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("follower miss ran a local compute (total %d), want peer-fill only", got)
	}
	m := tc.recs[follower].Snapshot()
	if n := m.Durations[obs.StoreComputeWall].Count; n != 0 {
		t.Fatalf("follower ran %d local computes, want 0", n)
	}
	if got := m.Counter(obs.ClusterPeerHits); got != 1 {
		t.Fatalf("follower peer hits = %d, want 1", got)
	}
}

// TestClusterOwnerDeath is the kill-the-owner drill: clients ask the
// two followers for a key whose owner dies mid-computation. The
// followers' polls hit the dead socket, the peer degrades, and both
// fall back to local compute — every client is answered, no one fails.
func TestClusterOwnerDeath(t *testing.T) {
	var execs atomic.Int64
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	reg := []core.Experiment{{
		ID:    "doomed",
		Title: "owner dies during this",
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			execs.Add(1)
			started <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			r := &core.Report{Title: "doomed"}
			r.AddNote("cache=%d", opt.CacheBytes)
			return r, nil
		},
	}}
	tc := startTestCluster(t, 3, reg, func(i int, cfg *NodeConfig) {
		cfg.PeerProbe = time.Hour // once degraded, stays degraded for the test
	})
	opt := core.Options{Scale: core.ScaleQuick, CacheBytes: 4096}
	owner := tc.ownerOf("doomed", opt)

	var followers []int
	for i := range tc.nodes {
		if i != owner {
			followers = append(followers, i)
		}
	}

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 8)
	for _, f := range followers {
		go func(f int) {
			resp, err := http.Get(tc.reportURL(f, "doomed", opt))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			results <- result{status: resp.StatusCode}
		}(f)
	}

	// The followers' fills make the owner start computing in the
	// background; once its kernel is running, kill the owner abruptly
	// (no drain — the in-process stand-in for a crashed node).
	<-started
	tc.nodes[owner].Server.Abort()
	close(gate)

	for range followers {
		r := <-results
		if r.err != nil {
			t.Fatalf("follower client failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("follower client got %d, want 200", r.status)
		}
	}
	// Each follower computed locally (the owner's aborted run may or
	// may not have counted before dying, so assert per-node).
	for _, f := range followers {
		m := tc.recs[f].Snapshot()
		if n := m.Durations[obs.StoreComputeWall].Count; n != 1 {
			t.Errorf("follower node-%d ran %d local computes, want 1", f, n)
		}
	}
	// The dead owner shows up degraded in at least one follower's
	// health document.
	degraded := 0
	for _, f := range followers {
		h := tc.nodes[f].Cluster.Health()
		for _, p := range h.Peers {
			if p.ID == tc.ids[owner] && p.State == breaker.StateDegraded {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Error("no follower marked the dead owner degraded")
	}
}

// TestClusterHealthz: cluster membership appears in /healthz, and a
// degraded peer flips the top-level status without failing the node.
func TestClusterHealthz(t *testing.T) {
	var execs atomic.Int64
	reg := []core.Experiment{slowCountingExp("hz", &execs, time.Millisecond)}
	tc := startTestCluster(t, 2, reg, nil)

	var doc struct {
		Status  string          `json:"status"`
		Cluster *cluster.Health `json:"cluster"`
	}
	resp, err := http.Get(tc.nodes[0].URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster == nil {
		t.Fatal("/healthz has no cluster section on a cluster member")
	}
	if doc.Cluster.Self != "node-0" || len(doc.Cluster.Peers) != 2 {
		t.Fatalf("cluster section = %+v", doc.Cluster)
	}
	var shares float64
	for _, p := range doc.Cluster.Peers {
		shares += p.Share
		want := breaker.StateOK
		if p.ID == "node-0" {
			want = cluster.StateSelf
		}
		if p.State != want {
			t.Errorf("peer %s state = %q, want %q", p.ID, p.State, want)
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("peer shares sum to %v, want 1", shares)
	}
}

// --- internal endpoint unit tests -----------------------------------

// internalFixture: a standalone server (the internal route is always
// registered) plus helpers to build internal URLs.
func internalURL(base string, key store.Key, id string, opt core.Options) string {
	u := base + cluster.InternalReportPath + key.String() + "?id=" + id
	for _, f := range core.AxisFields() {
		u += "&opt." + f + "=" + opt.AxisValue(f)
	}
	return u
}

func TestInternalReportEndpoint(t *testing.T) {
	var execs, slowExecs, expiryExecs, capExecs atomic.Int64
	expiryGate, capGate := make(chan struct{}), make(chan struct{})
	reg := append(testRegistry(&execs, nil, nil),
		slowCountingExp("slow", &slowExecs, 20*time.Millisecond),
		gatedExp("expiry", &expiryExecs, expiryGate),
		gatedExp("capped", &capExecs, capGate))
	rec := obs.New()
	srv, ts := newTestServer(t, store.Config{Slots: 2}, reg, rec)
	// A subtest that fails before opening its gate still opens it on the
	// way out (deferred), so later subtests and the store's drain never
	// wait on a parked flight.
	openExpiry := sync.OnceFunc(func() { close(expiryGate) })
	openCap := sync.OnceFunc(func() { close(capGate) })
	opt := core.Options{Scale: core.ScaleQuick}
	key := store.KeyFor("inst", opt)

	// held asks for id's cold key, naming a hold of holdMs milliseconds.
	held := func(id, holdMs string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodGet, internalURL(ts.URL, store.KeyFor(id, opt), id, opt), nil)
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set(cluster.WaitHeader, holdMs)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp, raw, err
	}
	holdCount := func() uint64 { return rec.Snapshot().Durations[obs.ClusterInternalHoldWall].Count }

	t.Run("malformed key", func(t *testing.T) {
		resp, err := http.Get(ts.URL + cluster.InternalReportPath + "zzzz?id=inst")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown experiment", func(t *testing.T) {
		resp, err := http.Get(internalURL(ts.URL, key, "nope", opt))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
	t.Run("key mismatch", func(t *testing.T) {
		wrong := store.KeyFor("inst", core.Options{Scale: core.ScaleQuick, CacheBytes: 999424})
		resp, err := http.Get(internalURL(ts.URL, wrong, "inst", opt))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (options derive a different key)", resp.StatusCode)
		}
	})
	t.Run("cold answers 202 and warms", func(t *testing.T) {
		resp, err := http.Get(internalURL(ts.URL, key, "inst", opt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cold status %d, want 202", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("202 without Retry-After")
		}
		var body struct {
			Status string `json:"status"`
			Key    string `json:"key"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Status != "computing" || body.Key != key.String() {
			t.Fatalf("202 body = %+v", body)
		}
		// The background warm lands; a follow-up answers 200.
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(internalURL(ts.URL, key, "inst", opt))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				sum := sha256.Sum256(raw)
				if got := resp.Header.Get(cluster.DigestHeader); got != hex.EncodeToString(sum[:]) {
					t.Fatalf("digest header %q does not match body", got)
				}
				if resp.Header.Get("Etag") == "" {
					t.Fatal("200 without an ETag")
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("warm never landed (last status %d)", resp.StatusCode)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if got := execs.Load(); got != 1 {
			t.Fatalf("warm ran %d computes, want 1", got)
		}
	})
	t.Run("304 on matching etag", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodGet, internalURL(ts.URL, key, "inst", opt), nil)
		if err != nil {
			t.Fatal(err)
		}
		first, err := http.Get(internalURL(ts.URL, key, "inst", opt))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, first.Body)
		first.Body.Close()
		req.Header.Set("If-None-Match", first.Header.Get("Etag"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("status %d, want 304", resp.StatusCode)
		}
	})
	t.Run("hold answers 200 in one request", func(t *testing.T) {
		computing, holds := rec.Snapshot().Counter(obs.ClusterInternalComputing), holdCount()
		resp, raw, err := held("slow", "2000")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("held cold key answered %d, want 200", resp.StatusCode)
		}
		slowKey := store.KeyFor("slow", opt)
		sum := sha256.Sum256(raw)
		if got := resp.Header.Get(cluster.DigestHeader); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("digest header %q does not match body", got)
		}
		if got, want := resp.Header.Get("Etag"), etagFor(slowKey, core.FormatJSON); got != want {
			t.Fatalf("Etag = %q, want %q", got, want)
		}
		if got := resp.Header.Get("X-Wsstudy-Key"); got != slowKey.String() {
			t.Fatalf("X-Wsstudy-Key = %q, want %s", got, slowKey)
		}
		if _, err := store.DecodeResult(slowKey, "slow", raw); err != nil {
			t.Fatalf("held body is not a servable rendering: %v", err)
		}
		if got := slowExecs.Load(); got != 1 {
			t.Fatalf("held key executed %d times, want 1", got)
		}
		if got := rec.Snapshot().Counter(obs.ClusterInternalComputing) - computing; got != 0 {
			t.Fatalf("cluster.internal.computing += %d, want 0", got)
		}
		if got := holdCount() - holds; got != 1 {
			t.Fatalf("cluster.internal.hold.wall count += %d, want 1", got)
		}
	})
	t.Run("hold expiry answers 202 and computes once", func(t *testing.T) {
		defer openExpiry()
		start := time.Now()
		resp, raw, err := held("expiry", "50")
		if err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); resp.StatusCode != http.StatusAccepted || wall < 50*time.Millisecond {
			t.Fatalf("expired hold answered %d after %v, want 202 after the 50ms hold", resp.StatusCode, wall)
		}
		var doc struct {
			Status string `json:"status"`
		}
		if resp.Header.Get("Retry-After") == "" || json.Unmarshal(raw, &doc) != nil || doc.Status != "computing" {
			t.Fatalf("expired hold: Retry-After %q, body %s", resp.Header.Get("Retry-After"), raw)
		}
		openExpiry()
		resp, _, err = held("expiry", "2000")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("after the compute landed: %d, want 200", resp.StatusCode)
		}
		if got := expiryExecs.Load(); got != 1 {
			t.Fatalf("key executed %d times across the expired hold and the retry, want 1", got)
		}
	})
	t.Run("full hold cap answers 202 at once", func(t *testing.T) {
		defer openCap()
		limit := cap(srv.holds)
		if limit != holdsPerSlot*2 {
			t.Fatalf("hold cap = %d, want %d per compute slot", limit, holdsPerSlot)
		}
		coalesced := rec.Counter(obs.StoreCoalesced).Value()
		codes := make(chan int, limit)
		for i := 0; i < limit; i++ {
			go func() {
				resp, _, err := held("capped", "2000")
				if err != nil {
					t.Error(err)
					codes <- 0
					return
				}
				codes <- resp.StatusCode
			}()
		}
		// Every hold is taken once all but the first have joined the
		// flight the first started.
		deadline := time.Now().Add(5 * time.Second)
		for rec.Counter(obs.StoreCoalesced).Value()-coalesced < uint64(limit-1) {
			if time.Now().After(deadline) {
				t.Fatal("held requests never all joined the flight")
			}
			time.Sleep(time.Millisecond)
		}
		holds, computing := holdCount(), rec.Snapshot().Counter(obs.ClusterInternalComputing)
		start := time.Now()
		resp, _, err := held("capped", "2000")
		if err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); resp.StatusCode != http.StatusAccepted || wall > time.Second {
			t.Fatalf("request past the cap answered %d after %v, want 202 at once", resp.StatusCode, wall)
		}
		if got := rec.Snapshot().Counter(obs.ClusterInternalComputing) - computing; got != 1 {
			t.Fatalf("cluster.internal.computing += %d, want 1", got)
		}
		if got := holdCount(); got != holds {
			t.Fatalf("the request past the cap was held (hold count %d -> %d)", holds, got)
		}
		openCap()
		for i := 0; i < limit; i++ {
			if code := <-codes; code != http.StatusOK {
				t.Fatalf("held request answered %d, want 200", code)
			}
		}
		if got := capExecs.Load(); got != 1 {
			t.Fatalf("capped key executed %d times, want 1", got)
		}
	})
	t.Run("closed store answers 503", func(t *testing.T) {
		if err := srv.cfg.Store.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, hold := range []string{"", "2000"} {
			resp, _, err := held("inst", hold)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("hold %q on a closed store answered %d, want 503", hold, resp.StatusCode)
			}
		}
	})
}

// gatedExp is a registry experiment that counts executions and parks
// until gate closes.
func gatedExp(id string, execs *atomic.Int64, gate <-chan struct{}) core.Experiment {
	return core.Experiment{
		ID:    id,
		Title: "gated " + id,
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			execs.Add(1)
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &core.Report{Title: id}, nil
		},
	}
}

// TestHoldWindow pins the owner's parse of the hold a follower names:
// a positive count of milliseconds clamped to maxHold, and no hold for
// anything else.
func TestHoldWindow(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"soon", 0},
		{"-5", 0},
		{"0", 0},
		{"1e9", 0},
		{" 150", 0},
		{"150", 150 * time.Millisecond},
		{"1999", 1999 * time.Millisecond},
		{"2000", maxHold},
		{"1000000000", maxHold},
		{"99999999999999999999", maxHold},
		{"-99999999999999999999", 0},
	} {
		if got := holdWindow(tc.in); got != tc.want {
			t.Errorf("holdWindow(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzHoldHeader throws arbitrary header values at the owner's hold
// parse: whatever a peer sends, the owner holds for a whole number of
// milliseconds in [0, maxHold].
func FuzzHoldHeader(f *testing.F) {
	for _, v := range []string{"", "soon", "-5", "0", "1e9", "150", "2000", "1000000000",
		"99999999999999999999", "-99999999999999999999", "+7", "0x10"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got := holdWindow(v)
		if got < 0 || got > maxHold || got%time.Millisecond != 0 {
			t.Fatalf("holdWindow(%q) = %v, outside whole milliseconds in [0, %v]", v, got, maxHold)
		}
	})
}
