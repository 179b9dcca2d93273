package wss

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/memsys"
	"wsstudy/internal/obs"
	"wsstudy/internal/sweep"
	"wsstudy/internal/trace"
)

// The chaos suite: randomized, seeded fault schedules over the full
// stack (store persistence, compute retry, experiment execution, the
// simulated machine, sweeps), checked against three invariants:
//
//  1. Termination — every Get returns, fault or not.
//  2. Integrity — a Get that claims success returns bytes identical to
//     the fault-free baseline; no faulted result is ever cached.
//  3. Recovery — after the faults are disarmed, every key computes
//     cleanly and matches the baseline (degraded subsystems healed,
//     nothing poisoned).
//
// Schedules are deterministic per seed (math/rand with a fixed source,
// fault.Trigger.Seed for probabilistic firing), so a failing seed
// replays exactly.

// chaosSeeds is the schedule count; each seed arms a different subset of
// failpoints with different modes and probabilities.
var chaosSeeds = []int64{1, 2, 3, 4, 5}

// chaosExperiments builds deterministic synthetic experiments that
// between them traverse every chaos seam: pure model computation, a
// kernel streaming references in blocks and epochs, and a concrete-cache
// and a sampled machine.
func chaosExperiments() []Experiment {
	model := func(id string) Experiment {
		return Experiment{
			ID:    id,
			Title: "chaos model " + id,
			Run: func(ctx context.Context, opt Options) (*Report, error) {
				r := &Report{Title: "chaos model " + id}
				t := Table{Title: id, Header: []string{"cell", "value"}}
				for i := 0; i < 8; i++ {
					t.Rows = append(t.Rows, []string{
						fmt.Sprintf("r%d", i),
						fmt.Sprintf("%d", (i+len(id))*7),
					})
				}
				r.Tables = append(r.Tables, t)
				return r, nil
			},
		}
	}
	kernel := Experiment{
		ID:    "chaos-kernel",
		Title: "chaos kernel",
		Run: func(ctx context.Context, opt Options) (*Report, error) {
			var refs uint64
			sink := chaosSink{refs: &refs}
			block := make([]trace.Ref, 1024)
			for epoch := 0; epoch < 2; epoch++ {
				sink.BeginEpoch(epoch)
				for i := 0; i < 16; i++ {
					for j := range block {
						block[j] = trace.Ref{PE: j % 4, Addr: uint64((epoch*16+i)*1024+j) * 2654435761, Size: 8}
					}
					sink.Refs(block)
				}
			}
			r := &Report{Title: "chaos kernel"}
			r.AddNote("refs=%d", refs)
			return r, nil
		},
	}
	// machine drives a deterministic reference stream, with a warm-up
	// flip, through a machine of direct-mapped caches, so the seams that
	// wrap every experiment (execution, retry, store) fire around a run
	// with directory and cache state; its statistics must come back
	// bit-identical to the fault-free baseline.
	machine := Experiment{
		ID:    "chaos-machine",
		Title: "chaos machine",
		Run: func(ctx context.Context, opt Options) (*Report, error) {
			m, err := memsys.Open(memsys.Config{
				PEs: 8, LineSize: 8, CacheCapacity: 64, Assoc: 1,
				WarmupEpochs: 1,
			})
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(7))
			block := make([]trace.Ref, 256)
			for epoch := 0; epoch < 3; epoch++ {
				m.BeginEpoch(epoch)
				for i := 0; i < 8; i++ {
					for j := range block {
						kind := trace.Read
						if rng.Intn(4) == 0 {
							kind = trace.Write
						}
						block[j] = trace.Ref{
							PE:   rng.Intn(8),
							Addr: uint64(rng.Intn(2048)) * 8,
							Size: 8, Kind: kind,
						}
					}
					m.Refs(block)
				}
			}
			if err := m.Close(); err != nil {
				return nil, err
			}
			st, ds := m.Stats(), m.DirectoryStats()
			r := &Report{Title: "chaos machine"}
			r.Tables = append(r.Tables, Table{
				Title:  "machine",
				Header: []string{"stat", "value"},
				Rows: [][]string{
					{"local", fmt.Sprint(st.LocalMisses)},
					{"remote", fmt.Sprint(st.RemoteMisses)},
					{"invalidations", fmt.Sprint(ds.Invalidations)},
					{"downgrades", fmt.Sprint(ds.Downgrades)},
				},
			})
			return r, nil
		},
	}
	// profiled drives a short stream through a sampled profiling machine,
	// so the cache.sample.select construction failpoint has a live seam:
	// an injected error surfaces from Open before any reference flows.
	// The curve it reports is deterministic (spatial hashing, no RNG), so
	// the byte-identical baseline invariant holds.
	profiled := Experiment{
		ID:    "chaos-profiled",
		Title: "chaos sampled profiler",
		Run: func(ctx context.Context, opt Options) (*Report, error) {
			m, err := memsys.Open(memsys.Config{
				PEs: 4, LineSize: 8, Profile: true, ProfilePE: 1,
				SampleRate: 16,
			})
			if err != nil {
				return nil, err
			}
			block := make([]trace.Ref, 256)
			for i := 0; i < 8; i++ {
				for j := range block {
					block[j] = trace.Ref{
						PE:   j % 4,
						Addr: uint64((i*256+j)%4096) * 8,
						Size: 8, Kind: trace.Read,
					}
				}
				m.Refs(block)
			}
			if err := m.Close(); err != nil {
				return nil, err
			}
			p := m.Profiler(1)
			r := &Report{Title: "chaos sampled profiler"}
			tb := Table{Title: "sampled", Header: []string{"capacity", "misses"}}
			for _, mc := range p.Curve([]int{64, 512, 4096}) {
				tb.Rows = append(tb.Rows, []string{
					fmt.Sprint(mc.CapacityLines), fmt.Sprint(mc.Misses()),
				})
			}
			r.Tables = append(r.Tables, tb)
			return r, nil
		},
	}
	return []Experiment{model("chaos-a"), model("chaos-b"), kernel, machine, profiled}
}

type chaosSink struct{ refs *uint64 }

func (s chaosSink) Ref(trace.Ref)      { *s.refs++ }
func (s chaosSink) Refs(b []trace.Ref) { *s.refs += uint64(len(b)) }
func (s chaosSink) BeginEpoch(int)     {}

// chaosSweepSpec is the lattice the chaos storm drives through the
// sweep engine: four analytic gridlu cells, cheap enough to land (or
// fail and retry) many times per schedule.
func chaosSweepSpec() SweepSpec {
	return SweepSpec{Experiment: "gridlu", Scale: "quick", Axes: []SweepAxis{
		{Field: "cache", Values: []string{"4096", "16384"}},
		{Field: "pes", Values: []string{"16", "64"}},
	}}
}

// waitSweep polls a sweep until its current pass settles (Done).
func waitSweep(t *testing.T, eng *SweepEngine, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := eng.Get(id)
		if !ok {
			t.Fatalf("sweep %s vanished", id)
		}
		if st.Done {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never settled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosPlan arms a seeded random subset of the registered failpoints.
// Panic injection is confined to core.execute, the one seam whose
// caller (Execute) recovers panics by contract; everywhere else the
// modes are error, corrupt and short delay.
func chaosPlan(t *testing.T, rng *rand.Rand) []string {
	t.Helper()
	type site struct {
		name  string
		modes []fault.Mode
	}
	sites := []site{
		{"store.disk.load", []fault.Mode{fault.ModeError, fault.ModeCorrupt}},
		{"store.disk.save", []fault.Mode{fault.ModeError}},
		{"store.compute", []fault.Mode{fault.ModeError}},
		{"core.execute", []fault.Mode{fault.ModeError, fault.ModePanic, fault.ModeDelay}},
		{"sweep.cell.compute", []fault.Mode{fault.ModeError, fault.ModeDelay}},
		{"cache.sample.select", []fault.Mode{fault.ModeError}},
	}
	var armed []string
	for _, s := range sites {
		if rng.Float64() < 0.4 {
			continue
		}
		tr := fault.Trigger{
			Mode: s.modes[rng.Intn(len(s.modes))],
			Prob: 0.25 + rng.Float64()*0.5,
			Seed: rng.Int63(),
		}
		switch tr.Mode {
		case fault.ModeDelay:
			tr.Delay = time.Millisecond
		case fault.ModeError:
			// Half the injected errors are transient, so the retry
			// policy's classification sees both branches.
			if rng.Intn(2) == 0 {
				tr.Err = core.Transient(errors.New("chaos transient"))
			}
		}
		if err := fault.Arm(s.name, tr); err != nil {
			t.Fatal(err)
		}
		armed = append(armed, fmt.Sprintf("%s=%s p=%.2f", s.name, tr.Mode, tr.Prob))
	}
	return armed
}

func TestChaosSchedules(t *testing.T) {
	exps := chaosExperiments()
	opt := Options{Scale: ScaleQuick}

	// Fault-free baseline: the byte-exact JSON every successful chaos
	// Get must reproduce. No Recorder anywhere, so reports carry no
	// process-varying metrics.
	baseline := map[string][]byte{}
	base, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		res, err := base.Get(context.Background(), e, opt)
		if err != nil {
			t.Fatalf("baseline %s: %v", e.ID, err)
		}
		baseline[e.ID] = res.JSON
	}
	// Fault-free sweep baseline: the per-cell summaries every recovered
	// chaos sweep must reproduce.
	sweepBase := map[string]*sweep.CellSummary{}
	{
		beng, err := NewSweepEngine(SweepConfig{Store: base})
		if err != nil {
			t.Fatal(err)
		}
		st, err := beng.Submit(chaosSweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		fin := waitSweep(t, beng, st.ID)
		if fin.Failed != 0 {
			t.Fatalf("fault-free baseline sweep failed cells: %+v", fin)
		}
		for _, c := range fin.Cells {
			sweepBase[c.Key] = c.Summary
		}
		if err := beng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(fault.DisarmAll)
			rng := rand.New(rand.NewSource(seed))
			st, err := NewStore(StoreConfig{
				Dir:            t.TempDir(),
				Slots:          4,
				ComputeRetries: 2,
				ProbeInterval:  time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close(context.Background())

			armed := chaosPlan(t, rng)
			t.Logf("schedule: %v", armed)

			// A sweep rides the storm: its cells race the same faults
			// (sweep.cell.compute included) as the direct Gets below.
			eng, err := NewSweepEngine(SweepConfig{Store: st, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			sw, err := eng.Submit(chaosSweepSpec())
			if err != nil {
				t.Fatal(err)
			}

			// Storm phase: concurrent repeated Gets while the faults
			// fire. Every error is acceptable; every success must be
			// byte-identical to the baseline.
			var wg sync.WaitGroup
			for round := 0; round < 4; round++ {
				for _, e := range exps {
					wg.Add(1)
					go func(e Experiment) {
						defer wg.Done()
						res, err := st.Get(context.Background(), e, opt)
						if err != nil {
							return // a surfaced fault, not a correctness failure
						}
						if !bytes.Equal(res.JSON, baseline[e.ID]) {
							t.Errorf("%s: faulted run served corrupted bytes", e.ID)
						}
					}(e)
				}
				wg.Wait()
			}

			// Recovery phase: disarm everything and demand clean,
			// baseline-identical results — proving no faulted result was
			// cached in memory or on disk and the degraded subsystems
			// heal (the millisecond probe interval has long expired).
			fault.DisarmAll()
			time.Sleep(2 * time.Millisecond)
			for _, e := range exps {
				res, err := st.Get(context.Background(), e, opt)
				if err != nil {
					t.Fatalf("%s after disarm: %v", e.ID, err)
				}
				if !bytes.Equal(res.JSON, baseline[e.ID]) {
					t.Errorf("%s: post-recovery bytes diverge from the fault-free baseline", e.ID)
				}
			}

			// Sweep recovery: cells the storm failed retry on
			// re-submission; the converged lattice must match the
			// fault-free baseline summaries cell for cell.
			fin := waitSweep(t, eng, sw.ID)
			for retries := 0; fin.Failed > 0; retries++ {
				if retries > 20 {
					t.Fatalf("sweep still failing cells after disarm: %+v", fin)
				}
				if _, err := eng.Submit(chaosSweepSpec()); err != nil {
					t.Fatal(err)
				}
				fin = waitSweep(t, eng, sw.ID)
			}
			for _, c := range fin.Cells {
				if !reflect.DeepEqual(c.Summary, sweepBase[c.Key]) {
					t.Errorf("sweep cell %s: post-recovery summary %+v diverges from baseline %+v",
						c.Canonical, c.Summary, sweepBase[c.Key])
				}
			}
		})
	}
}

// TestChaosNeverCachesFaultedResult pins invariant 2 in its sharpest
// form: with a persistent compute fault, nothing lands in memory or on
// disk, and the first clean run computes from scratch.
func TestChaosNeverCachesFaultedResult(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	exps := chaosExperiments()
	opt := Options{Scale: ScaleQuick}
	dir := t.TempDir()
	st, err := NewStore(StoreConfig{Dir: dir, ComputeRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())

	if err := fault.Arm("store.compute", fault.Trigger{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if _, err := st.Get(context.Background(), e, opt); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s under a persistent compute fault: err = %v, want the injected fault", e.ID, err)
		}
		if st.Cached(ResultKey(e.ID, opt)) {
			t.Errorf("%s: faulted result found in the memory cache", e.ID)
		}
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store holds %d entries after all-faulted runs, want 0", n)
	}

	fault.DisarmAll()
	for _, e := range exps {
		if _, err := st.Get(context.Background(), e, opt); err != nil {
			t.Fatalf("%s after disarm: %v", e.ID, err)
		}
	}
}

// --- cluster peer-fault chaos ----------------------------------------

// bootChaosCluster starts a 2-node in-process cluster with crawlers on,
// tuned so degradation cooldowns cycle fast enough to exercise
// degrade → bypass → probe → heal within the test.
func bootChaosCluster(t *testing.T, recs []*Recorder) []*Node {
	t.Helper()
	lns := make([]net.Listener, 2)
	peers := make(map[string]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[fmt.Sprintf("c%d", i)] = "http://" + ln.Addr().String()
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		node, err := StartNode(NodeConfig{
			Listener:       lns[i],
			NodeID:         fmt.Sprintf("c%d", i),
			PeerAddrs:      peers,
			Store:          StoreConfig{Slots: 4},
			DefaultScale:   ScaleQuick,
			RequestTimeout: 30 * time.Second,
			WaitBudget:     300 * time.Millisecond,
			PeerProbe:      50 * time.Millisecond,
			Recorder:       recs[i],
			Crawl: &CrawlSpec{
				Experiment: "gridlu",
				Axes: []SweepAxis{
					{Field: "cache", Values: []string{"4096", "8192", "16384", "32768"}},
				},
				Interval: 5 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, n := range nodes {
			_ = n.Shutdown(ctx)
		}
	})
	return nodes
}

// TestChaosClusterPeerFaults holds the cluster to the tier's chaos
// invariant: injected peer faults — dead dials ("cluster.peer.dial"),
// corrupted transfers ("cluster.peer.fetch"), failing crawl steps
// ("cluster.crawl.step") — never produce a wrong or cached-faulted
// report. Every request on every node still answers 200 with bytes
// identical to the fault-free baseline; a fill that cannot be trusted
// falls back to local compute. After disarming, peers heal and
// peer-fill serves a fresh key cleanly.
func TestChaosClusterPeerFaults(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	if _, ok := core.Find("gridlu"); !ok {
		t.Fatal("gridlu not in registry")
	}

	recs := []*Recorder{NewRecorder(), NewRecorder()}
	nodes := bootChaosCluster(t, recs)

	// Fault-free baseline bodies, fetched over the same public endpoint
	// the storm uses so the byte-compare sees the exact HTTP rendering.
	caches := []uint64{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288}
	baseline := map[uint64][]byte{}
	for _, cache := range caches {
		url := fmt.Sprintf("%s/v1/experiments/gridlu/report?format=json&opt.scale=quick&opt.cache=%d", nodes[0].URL(), cache)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fault-free baseline cache=%d answered %d: %s", cache, resp.StatusCode, body)
		}
		baseline[cache] = body
	}

	for name, tr := range map[string]fault.Trigger{
		"cluster.peer.dial":  {Mode: fault.ModeError, Prob: 0.5, Seed: 11},
		"cluster.peer.fetch": {Mode: fault.ModeCorrupt, Arg: -1, Prob: 0.5, Seed: 12},
		"cluster.crawl.step": {Mode: fault.ModeError, Prob: 0.5, Seed: 13},
	} {
		if err := fault.Arm(name, tr); err != nil {
			t.Fatal(err)
		}
	}

	// The storm: every key requested from every node, repeatedly, while
	// fills race injected dial failures and corrupted transfers.
	get := func(node *Node, cache uint64) {
		t.Helper()
		url := fmt.Sprintf("%s/v1/experiments/gridlu/report?format=json&opt.scale=quick&opt.cache=%d", node.URL(), cache)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("cache=%d: %v", cache, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cache=%d answered %d under peer faults, want 200: %s", cache, resp.StatusCode, body)
		}
		if !bytes.Equal(body, baseline[cache]) {
			t.Fatalf("cache=%d rendering differs from fault-free baseline under peer faults", cache)
		}
	}
	for round := 0; round < 3; round++ {
		for _, cache := range caches {
			for _, node := range nodes {
				get(node, cache)
			}
		}
		time.Sleep(60 * time.Millisecond) // let degradation cooldowns expire between rounds
	}

	// The seams actually fired (otherwise this proved nothing).
	for _, name := range []string{"cluster.peer.dial", "cluster.crawl.step"} {
		fp := fault.Lookup(name)
		if fp == nil || fp.Hits() == 0 {
			t.Errorf("failpoint %s never evaluated during the storm", name)
		}
	}

	// Recovery: disarm, then a fresh remote-owned key must peer-fill
	// (or compute) cleanly and the ring must heal.
	fault.DisarmAll()
	freshCache := uint64(1 << 21)
	key := ResultKey("gridlu", Options{Scale: ScaleQuick, CacheBytes: freshCache})
	ownerNode, follower := nodes[0], nodes[1]
	if nodes[0].Cluster.Ring().Owner(key) == "c1" {
		ownerNode, follower = nodes[1], nodes[0]
	}
	fetch := func(node *Node) (int, []byte) {
		t.Helper()
		url := fmt.Sprintf("%s/v1/experiments/gridlu/report?format=json&opt.scale=quick&opt.cache=%d", node.URL(), freshCache)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	poll := func(node *Node) []byte {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			code, body := fetch(node)
			if code == http.StatusOK {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("fresh key never served after disarm (last status %d)", code)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	followerBody := poll(follower)
	if ownerBody := poll(ownerNode); !bytes.Equal(followerBody, ownerBody) {
		t.Fatal("post-disarm fresh key renders differently on follower and owner")
	}
	healDeadline := time.Now().Add(5 * time.Second)
	probeCache := freshCache
	for {
		degraded := false
		for _, n := range nodes {
			if n.Cluster.Health().Degraded() {
				degraded = true
			}
		}
		if !degraded {
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatal("peers never healed after disarm")
		}
		// Fills only dial a peer on a local store miss, and the storm
		// left every key cached everywhere: touch a fresh key owned by
		// the *other* node from each node so the degraded peer is
		// actually probed.
		for i, node := range nodes {
			other := "c1"
			if i == 1 {
				other = "c0"
			}
			for {
				probeCache += 4096
				k := ResultKey("gridlu", Options{Scale: ScaleQuick, CacheBytes: probeCache})
				if node.Cluster.Ring().Owner(k) == other {
					break
				}
			}
			url := fmt.Sprintf("%s/v1/experiments/gridlu/report?format=json&opt.scale=quick&opt.cache=%d", node.URL(), probeCache)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(60 * time.Millisecond)
	}

	// The crawlers keep stepping after the faults are gone.
	steps := recs[0].Snapshot().Counter(obs.ClusterCrawlSteps) + recs[1].Snapshot().Counter(obs.ClusterCrawlSteps)
	time.Sleep(50 * time.Millisecond)
	after := recs[0].Snapshot().Counter(obs.ClusterCrawlSteps) + recs[1].Snapshot().Counter(obs.ClusterCrawlSteps)
	if after <= steps {
		t.Error("crawlers stopped stepping after disarm")
	}
}
