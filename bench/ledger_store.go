package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/serve"
	"wsstudy/internal/store"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sweep rebuilds sweep-gridbh's cold pass as the engine runs each cell
// (journal lookup, store peek, store get, journal record) on two
// workers, then times revival from the journal and from disk, and what
// persistence adds to a store Get.
func (l *ledger) sweep(root int) error {
	cspec, err := sweepSpec(l.e.toy).Canonicalize()
	if err != nil {
		return err
	}
	cells := cspec.Cells()
	exp, _ := core.Find(cspec.Experiment)
	dir, err := l.e.scratch("ledger-sweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		return err
	}
	rec := obs.New()
	st, err := store.New(store.Config{Slots: 2, Dir: storeDir, Recorder: rec})
	if err != nil {
		return err
	}
	// The engine names a sweep's journal by the sweep id; the revival
	// below finds this one there.
	j, err := core.OpenJournal(filepath.Join(journalDir, cspec.ID()+".journal"))
	if err != nil {
		return err
	}
	ctx := obs.With(context.Background(), rec)

	id := l.tr.begin(root, "rebuild.sweep-gridbh")
	cellT := make([]time.Duration, len(cells))
	errs := make([]error, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < st.Slots(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := cells[i]
				cs := l.tr.begin(id.id, "sweep.cell")
				l.tr.timed(cs.id, "core.journal.lookup", func() error { j.Lookup(exp.ID, c.Options); return nil })
				l.tr.timed(cs.id, "store.peek", func() error { st.Peek(c.Key, exp.ID); return nil })
				var res *store.Result
				_, errs[i] = l.tr.timed(cs.id, "store.get", func() (err error) {
					res, err = st.Get(ctx, exp, c.Options)
					return err
				})
				if errs[i] == nil {
					_, errs[i] = l.tr.timed(cs.id, "core.journal.record", func() error {
						return j.Record(exp.ID, c.Options, res.Report)
					})
				}
				cellT[i] = cs.end()
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := id.end()
	cerr := j.Close()
	st.Close(context.Background())
	for _, err := range append(errs, cerr) {
		if err != nil {
			return err
		}
	}
	l.secs("core.unattributed.sweep-gridbh_s", l.tr.self(id.id))
	l.overhead("sweep-gridbh", 2*l.tr.count(id.id), wall)
	l.set("sweep.cell_ms", "ms", ms(medianDuration(cellT)))

	var revived, recomputed int
	reviveT, err := l.tr.timed(root, "sweep.journal_revive", func() (err error) {
		revived, recomputed, _, err = reviveSweep(storeDir, journalDir, sweepSpec(l.e.toy))
		return err
	})
	if err != nil {
		return err
	}
	l.secs("sweep.journal_revive_s", reviveT)
	l.set("sweep.revived", "count", float64(revived))
	l.set("sweep.recomputed", "count", float64(recomputed))
	if revived != len(cells) || recomputed != 0 {
		l.probs = append(l.probs, fmt.Sprintf("sweep revival: %d of %d cells revived, %d recomputed", revived, len(cells), recomputed))
	}

	disk, err := store.New(store.Config{Slots: 2, Dir: storeDir})
	if err != nil {
		return err
	}
	var peeks []time.Duration
	_, err = l.tr.timed(root, "store.disk_revive", func() error {
		for _, c := range cells {
			t := time.Now()
			_, ok := disk.Peek(c.Key, exp.ID)
			peeks = append(peeks, time.Since(t))
			if !ok {
				return fmt.Errorf("cell %s did not revive from disk", c.Options.Canonical())
			}
		}
		return nil
	})
	disk.Close(context.Background())
	if err != nil {
		return err
	}
	l.set("store.disk_revive_ms", "ms", ms(medianDuration(peeks)))

	persist, err := l.persistCost(root, filepath.Join(dir, "persist"))
	if err != nil {
		return err
	}
	l.set("store.persist_ms", "ms", ms(persist))
	return nil
}

// persistCost is the median cold Get of a gridlu key on a store that
// persists minus the same on one that does not, each over its own keys.
func (l *ledger) persistCost(root int, dir string) (time.Duration, error) {
	n := 16
	if l.e.toy {
		n = 4
	}
	keys, err := gridKeys(7, 2*n)
	if err != nil {
		return 0, err
	}
	exp, _ := core.Find("gridlu")
	var med [2]time.Duration
	for i, sc := range []struct{ span, dir string }{{"store.get_persist", dir}, {"store.get_memory", ""}} {
		st, err := store.New(store.Config{Slots: 2, Dir: sc.dir})
		if err != nil {
			return 0, err
		}
		var ts []time.Duration
		_, err = l.tr.timed(root, sc.span, func() error {
			for _, k := range keys[i*n : (i+1)*n] {
				t := time.Now()
				if _, err := st.Get(context.Background(), exp, k.opt); err != nil {
					return err
				}
				ts = append(ts, time.Since(t))
			}
			return nil
		})
		st.Close(context.Background())
		if err != nil {
			return 0, err
		}
		med[i] = medianDuration(ts)
	}
	return med[0] - med[1], nil
}

// serve times the serving layers in process — store, handler, ring and
// peer-fill on a two-node cluster of serve.StartNode — and the load
// generator and cluster capacity against `wsstudy serve` processes.
func (l *ledger) serve(root int, seed int64) error {
	n := 48
	if l.e.toy {
		n = 8
	}
	keys, err := gridKeys(seed, n)
	if err != nil {
		return err
	}
	exp, _ := core.Find("gridlu")
	ctx := context.Background()

	miss, err := store.New(store.Config{Slots: 2})
	if err != nil {
		return err
	}
	var missT []time.Duration
	_, err = l.tr.timed(root, "store.get_miss", func() error {
		for _, k := range keys {
			t := time.Now()
			if _, err := miss.Get(ctx, exp, k.opt); err != nil {
				return err
			}
			missT = append(missT, time.Since(t))
		}
		return nil
	})
	miss.Close(ctx)
	if err != nil {
		return err
	}
	l.set("store.get_miss_ms", "ms", ms(medianDuration(missT)))

	nodes, err := startNodes(l.tr, root)
	if err != nil {
		return err
	}
	defer func() {
		for _, nd := range nodes {
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_ = nd.Shutdown(sctx)
			cancel()
		}
	}()
	a, b := nodes[0], nodes[1]
	var ownA, ownB []gridKey
	for _, k := range keys {
		if owner, _ := a.Cluster.Owner(store.KeyFor(exp.ID, k.opt)); owner == nodeIDs[0] {
			ownA = append(ownA, k)
		} else {
			ownB = append(ownB, k)
		}
	}
	if len(ownA) == 0 || len(ownB) < 2 {
		return fmt.Errorf("ring split %d keys %d/%d; need both owners", len(keys), len(ownA), len(ownB))
	}
	for _, k := range ownA {
		if _, err := a.Store.Get(ctx, exp, k.opt); err != nil {
			return err
		}
	}

	const reps = 2000
	hit := make([]time.Duration, 0, reps)
	handler := make([]time.Duration, 0, reps)
	tcp := make([]time.Duration, 0, reps)
	if _, err := l.tr.timed(root, "store.get_hit", func() error {
		for i := 0; i < reps; i++ {
			t := time.Now()
			if _, err := a.Store.Get(ctx, exp, ownA[i%len(ownA)].opt); err != nil {
				return err
			}
			hit = append(hit, time.Since(t))
		}
		return nil
	}); err != nil {
		return err
	}
	h := a.Server.Handler()
	if _, err := l.tr.timed(root, "serve.handler", func() error {
		for i := 0; i < reps; i++ {
			req := httptest.NewRequest(http.MethodGet, ownA[i%len(ownA)].path, nil)
			w := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(w, req)
			handler = append(handler, time.Since(t))
			if w.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d", w.Code)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	if _, err := l.tr.timed(root, "serve.tcp", func() error {
		for i := 0; i < reps; i++ {
			t := time.Now()
			status, _, err := get(ctx, client, a.URL()+ownA[i%len(ownA)].path)
			tcp = append(tcp, time.Since(t))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("GET over TCP: %d %v", status, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.set("store.get_hit_us", "us", us(medianDuration(hit)))
	l.set("serve.handler_us", "us", us(medianDuration(handler)))
	l.set("serve.net_us", "us", us(medianDuration(tcp)-medianDuration(handler)))

	const owners = 100000
	ownerT, _ := l.tr.timed(root, "cluster.owner", func() error {
		k := store.KeyFor(exp.ID, keys[0].opt)
		for i := 0; i < owners; i++ {
			k[0] = byte(i)
			a.Cluster.Owner(k)
		}
		return nil
	})
	l.set("cluster.owner_ns", "ns", float64(ownerT)/owners)

	// Half of b's keys are warm on b before a fills them; the rest make
	// b compute while a polls.
	warmKeys, coldKeys := ownB[:len(ownB)/2], ownB[len(ownB)/2:]
	for _, k := range warmKeys {
		if _, err := b.Store.Get(ctx, exp, k.opt); err != nil {
			return err
		}
	}
	for _, set := range []struct {
		name string
		keys []gridKey
	}{{"cluster.fill_warm", warmKeys}, {"cluster.fill_cold", coldKeys}} {
		var ts []time.Duration
		if _, err := l.tr.timed(root, set.name, func() error {
			for _, k := range set.keys {
				t := time.Now()
				res, ok := a.Cluster.Fill(ctx, store.KeyFor(exp.ID, k.opt), exp, k.opt)
				ts = append(ts, time.Since(t))
				if !ok {
					return fmt.Errorf("peer-fill of %s failed", k.path)
				}
				if got := reportHash(res.Report); got != k.want {
					return fmt.Errorf("peer-fill of %s returned a different report", k.path)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		l.set(set.name+"_ms", "ms", ms(medianDuration(ts)))
	}
	return l.load(root, seed)
}

// startNodes boots a two-node cluster in process on pre-bound loopback
// listeners, so the peer map is known before either node starts.
func startNodes(tr *tracer, root int) ([]*serve.Node, error) {
	lns := make([]net.Listener, len(nodeIDs))
	peers := map[string]string{}
	for i, id := range nodeIDs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[id] = "http://" + ln.Addr().String()
	}
	var nodes []*serve.Node
	for i, id := range nodeIDs {
		var nd *serve.Node
		_, err := tr.timed(root, "serve.start_node", func() (err error) {
			nd, err = serve.StartNode(serve.NodeConfig{
				Listener: lns[i], NodeID: id, PeerAddrs: peers,
				Store: store.Config{Slots: 2}, DefaultScale: core.ScaleQuick, Recorder: obs.New(),
			})
			return err
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			for _, nd := range nodes {
				_ = nd.Shutdown(context.Background())
			}
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// load boots `wsstudy serve` processes, checks the generator at the
// serve-cached rate, and bisects for the highest rate the cluster holds
// with p99 at or under 5 ms, no failure and no arrival left queued.
func (l *ledger) load(root int, seed int64) error {
	sz := sizesFor(l.e.toy)
	probe, step, steps := time.Second, time.Second, 5
	if l.e.toy {
		probe, step, steps = 500*time.Millisecond, 300*time.Millisecond, 2
	}
	dir, err := l.e.scratch("ledger-load")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var cl *servingCluster
	if _, err := l.tr.timed(root, "cluster.boot", func() (err error) {
		cl, err = bootCluster(l.e, dir)
		return err
	}); err != nil {
		return err
	}
	defer cl.shutdown()
	keys, err := gridKeys(seed, sz.cachedKeys)
	if err != nil {
		return err
	}
	raw, err := warm(cl, keys)
	if err != nil {
		return err
	}
	stream := func(name string, rate float64, window time.Duration) (cachedScore, loadStats) {
		var samples [][]sample
		l.tr.timed(root, name, func() error {
			samples = openLoop(context.Background(), zipfQueues(cl, keys, rate, window, seed), time.Now(), window)
			return nil
		})
		return scoreCached(samples, raw), summarizeLoad(samples)
	}
	sc, ls := stream("load.fixed", sz.cachedRPS, probe)
	if sc.wrong > 0 {
		l.probs = append(l.probs, fmt.Sprintf("load probe: %d wrong responses", sc.wrong))
	}
	l.set("load.late_ms", "ms", ms(ls.lateP50))
	l.set("load.backlog_max", "count", float64(ls.backlogMax))
	l.set("load.sent", "count", float64(ls.sent))

	maxRPS := bisect(250, 16000, steps, func(rate float64) bool {
		sc, _ := stream("load.probe", rate, step)
		return sc.failed == 0 && len(sc.latencies) > 0 && percentile(sc.latencies, 0.99) <= maxRPSLimitMS
	})
	l.set("load.max_rps", "1/s", maxRPS)
	return nil
}

// maxRPSLimitMS is the p99 latency limit the capacity bisection holds.
const maxRPSLimitMS = 5
