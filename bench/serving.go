package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/store"
)

// The serving workloads boot a two-node cluster of real `wsstudy serve`
// processes (consistent-hash ring, peer-fill, persisted stores) and drive
// it over HTTP with the open-loop generator, one connection per node.

// node is one `wsstudy serve` child process.
type node struct {
	id    string
	url   string // API base URL
	debug string // -listen base URL (expvar)
	cmd   *exec.Cmd
	ready chan struct{}
	done  chan struct{} // closed once the process has exited
}

// servingCluster is the two nodes of one boot.
type servingCluster struct {
	nodes []*node
	dir   string // the nodes' store directories, removed after the run
}

// nodeIDs names the cluster members.
var nodeIDs = []string{"a", "b"}

// bootCluster starts both nodes and returns once each answers /healthz.
func bootCluster(e *env, dir string) (*servingCluster, error) {
	if e.wsstudy == "" {
		return nil, fmt.Errorf("the serving workloads need -wsstudy (bench/run.sh builds it)")
	}
	ports, err := freePorts(2 * len(nodeIDs))
	if err != nil {
		return nil, err
	}
	var peers []string
	for i, id := range nodeIDs {
		peers = append(peers, fmt.Sprintf("%s=http://127.0.0.1:%d", id, ports[i]))
	}
	c := &servingCluster{}
	for i, id := range nodeIDs {
		n := &node{
			id:    id,
			url:   fmt.Sprintf("http://127.0.0.1:%d", ports[i]),
			debug: fmt.Sprintf("http://127.0.0.1:%d", ports[len(nodeIDs)+i]),
			ready: make(chan struct{}),
			done:  make(chan struct{}),
		}
		n.cmd = exec.Command(e.wsstudy, "serve",
			"-addr", strings.TrimPrefix(n.url, "http://"),
			"-listen", strings.TrimPrefix(n.debug, "http://"),
			"-node-id", id, "-peers", strings.Join(peers, ","),
			"-store-dir", filepath.Join(dir, id), "-slots", "2")
		n.cmd.SysProcAttr = dieWithParent()
		n.cmd.Stderr = &lineWatcher{out: e.log, marker: "serving v1 API", seen: n.ready}
		if err := n.cmd.Start(); err != nil {
			c.shutdown()
			return nil, err
		}
		go func() {
			_ = n.cmd.Wait()
			close(n.done)
		}()
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		select {
		case <-n.ready:
		case <-n.done:
			c.shutdown()
			return nil, fmt.Errorf("node %s exited during boot", n.id)
		case <-time.After(30 * time.Second):
			c.shutdown()
			return nil, fmt.Errorf("node %s did not boot in 30s", n.id)
		}
		resp, err := http.Get(n.url + "/healthz")
		if err != nil {
			c.shutdown()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			c.shutdown()
			return nil, fmt.Errorf("node %s /healthz answered %d", n.id, resp.StatusCode)
		}
	}
	return c, nil
}

// shutdown drains every node with SIGTERM (SIGKILL after 10s) and waits
// for it, returning the largest peak RSS of any node in MB, read just
// before the drain.
func (c *servingCluster) shutdown() float64 {
	var rss float64
	for _, n := range c.nodes {
		if mb, err := peakRSS(strconv.Itoa(n.cmd.Process.Pid)); err == nil {
			rss = max(rss, mb)
		}
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range c.nodes {
		select {
		case <-n.done:
		case <-time.After(10 * time.Second):
			_ = n.cmd.Process.Kill()
			<-n.done
		}
	}
	return rss
}

// computes sums the store.compute.wall observation counts the nodes
// publish on their -listen expvar: how many times the cluster ran an
// experiment.
func (c *servingCluster) computes() (int, error) {
	total := 0
	for _, n := range c.nodes {
		resp, err := http.Get(n.debug + "/debug/vars")
		if err != nil {
			return 0, err
		}
		var vars struct {
			Wsstudy struct {
				Durations map[string]struct {
					Count int `json:"count"`
				} `json:"durations"`
			} `json:"wsstudy"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("node %s expvar: %w", n.id, err)
		}
		total += vars.Wsstudy.Durations["store.compute.wall"].Count
	}
	return total, nil
}

// freePorts asks the kernel for n distinct free loopback ports.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// lineWatcher forwards a child's stderr and closes seen at the first line
// containing marker.
type lineWatcher struct {
	out    io.Writer
	marker string
	seen   chan struct{}
	once   sync.Once
	buf    []byte
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := w.buf[:i+1]
		_, _ = w.out.Write(line)
		if bytes.Contains(line, []byte(w.marker)) {
			w.once.Do(func() { close(w.seen) })
		}
		w.buf = w.buf[i+1:]
	}
	return len(p), nil
}

// gridKey is one gridlu configuration a serving workload requests.
type gridKey struct {
	opt  core.Options
	want string // metrics-stripped report hash computed in-process
	path string // request path and query
}

// gridKeys draws n distinct gridlu configurations from seed and computes
// each one's expected report in-process. Fresh clusters have never seen
// any key, which is what makes them cold.
func gridKeys(seed int64, n int) ([]gridKey, error) {
	rng := rand.New(rand.NewSource(seed))
	exp, _ := core.Find("gridlu")
	seen := map[string]bool{}
	var keys []gridKey
	for len(keys) < n {
		o := core.Options{
			Scale:      core.ScaleQuick,
			CacheBytes: 1024 * uint64(4+rng.Intn(4093)),
			PEs:        1 << (6 + rng.Intn(7)),
			Problem:    1000 * (4 + rng.Intn(60)),
		}
		if seen[o.Canonical()] {
			continue
		}
		seen[o.Canonical()] = true
		rep, err := core.Execute(context.Background(), exp, o)
		if err != nil {
			return nil, err
		}
		keys = append(keys, gridKey{
			opt:  o,
			want: reportHash(rep),
			path: fmt.Sprintf("/v1/experiments/gridlu/report?format=json&opt.scale=quick&opt.cache=%d&opt.pes=%d&opt.problem=%d",
				o.CacheBytes, o.PEs, o.Problem),
		})
	}
	return keys, nil
}

// owner is the index of the node that owns k on the cluster's ring.
func (c *servingCluster) owner(k gridKey) (int, error) {
	ring, err := cluster.NewRing(nodeIDs, 0)
	if err != nil {
		return 0, err
	}
	id := ring.Owner(store.KeyFor("gridlu", k.opt))
	for i, n := range nodeIDs {
		if n == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ring owner %q is not a member", id)
}

// bodyHash is the metrics-stripped hash of a served ReportV1 body, the
// form gridKey.want is computed in.
func bodyHash(raw []byte) (string, error) {
	var v core.ReportV1
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	return v1Hash(&v), nil
}

// fetchChecked GETs one key from one node and checks the body against
// the in-process report, returning the raw body's SHA-256.
func fetchChecked(base string, k gridKey) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	resp, err := http.Get(base + k.path)
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return sum, err
	}
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("%s%s answered %d", base, k.path, resp.StatusCode)
	}
	got, err := bodyHash(buf.Bytes())
	if err != nil {
		return sum, err
	}
	if got != k.want {
		return sum, fmt.Errorf("%s%s: report differs from the in-process run", base, k.path)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// servingSizes are the serving workloads' parameters, shrunk for the toy
// variant.
type servingSizes struct {
	cachedKeys int
	cachedRPS  float64
	coldRate   float64 // keys per second
	boots      int     // set-ups per run
}

func sizesFor(toy bool) servingSizes {
	if toy {
		return servingSizes{cachedKeys: 4, cachedRPS: 200, coldRate: 20, boots: 2}
	}
	return servingSizes{cachedKeys: 64, cachedRPS: 1000, coldRate: 14, boots: 8}
}

// zipfS is the popularity skew of the cached request stream.
const zipfS = 1.1

// bootMeasured boots the cluster boots times, each a set-up sample (boot
// to healthy, plus warming keys when warmKeys is set), and keeps the last
// one running for the measurement. It returns the kept cluster and, when
// warming, each key's raw body hash on it.
func bootMeasured(e *env, name string, boots int, warmKeys []gridKey) (*servingCluster, [][sha256.Size]byte, []float64, error) {
	var setup []float64
	for i := 0; ; i++ {
		dir, err := e.scratch(name)
		if err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		c, err := bootCluster(e, dir)
		if err != nil {
			// The ports were free when picked; another process may have
			// taken one since. One more boot with fresh ports.
			e.logf("%s: boot failed (%v); retrying", name, err)
			start = time.Now()
			if c, err = bootCluster(e, dir); err != nil {
				return nil, nil, nil, err
			}
		}
		var raw [][sha256.Size]byte
		if warmKeys != nil {
			if raw, err = warm(c, warmKeys); err != nil {
				c.shutdown()
				return nil, nil, nil, err
			}
		}
		setup = append(setup, time.Since(start).Seconds())
		if i == boots-1 {
			c.dir = dir
			return c, raw, setup, nil
		}
		c.shutdown()
		os.RemoveAll(dir)
	}
}

// runServeCached warms 64 keys on both nodes (owner first, so the
// second node fills from its peer), then sends an open-loop Zipf stream
// at a fixed rate over one connection per node.
func runServeCached(e *env, seed int64, seconds float64) (*outcome, error) {
	sz := sizesFor(e.toy)
	keys, err := gridKeys(seed, sz.cachedKeys)
	if err != nil {
		return nil, err
	}
	cl, raw, setup, err := bootMeasured(e, "serve-cached", sz.boots, keys)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cl.dir)
	window := time.Duration(seconds * float64(time.Second))
	samples := openLoop(context.Background(), zipfQueues(cl, keys, sz.cachedRPS, window, seed), time.Now(), window)
	out := &outcome{setup: setup, rss: cl.shutdown()}

	sc := scoreCached(samples, raw)
	out.attempted, out.failed, out.ops = sc.attempted, sc.failed, sc.latencies
	logFailures(e, samples)
	if sc.wrong > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d responses differ from the warmed report bytes", sc.wrong))
	}
	checkLoad(out, samples)
	return out, nil
}

// zipfQueues schedules a fixed-rate stream over window: Zipf(s=1.1)
// picks the key (seeded), and arrivals alternate between the nodes, each
// node's share queued on its own connection.
func zipfQueues(cl *servingCluster, keys []gridKey, rate float64, window time.Duration, seed int64) [][]arrival {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(keys)-1))
	queues := make([][]arrival, len(cl.nodes))
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; time.Duration(i)*interval < window; i++ {
		k := int(zipf.Uint64())
		n := i % len(cl.nodes)
		queues[n] = append(queues[n], arrival{at: time.Duration(i) * interval, url: cl.nodes[n].url + keys[k].path, key: k})
	}
	return queues
}

// cachedScore is a cached stream's outcome: latencies of the good
// responses in ms and in schedule order, failures (errors, non-200s,
// never sent) and responses whose bytes differ from the warmed ones.
type cachedScore struct {
	attempted, failed, wrong int
	latencies                []float64
}

func scoreCached(samples [][]sample, raw [][sha256.Size]byte) cachedScore {
	var all []sample
	for _, q := range samples {
		all = append(all, q...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	var sc cachedScore
	for _, s := range all {
		sc.attempted++
		switch {
		case !s.ok():
			sc.failed++
		case s.sum != raw[s.key]:
			sc.failed++
			sc.wrong++
		default:
			sc.latencies = append(sc.latencies, float64(s.latency())/1e6)
		}
	}
	return sc
}

// warm requests every key from its owner and then from the other node,
// checking each body, and returns each key's raw body hash (identical on
// both nodes: the second copy arrives by peer-fill).
func warm(c *servingCluster, keys []gridKey) ([][sha256.Size]byte, error) {
	raw := make([][sha256.Size]byte, len(keys))
	for i, k := range keys {
		own, err := c.owner(k)
		if err != nil {
			return nil, err
		}
		for j := range c.nodes {
			n := c.nodes[(own+j)%len(c.nodes)]
			sum, err := fetchChecked(n.url, k)
			if err != nil {
				return nil, fmt.Errorf("warming: %w", err)
			}
			if j > 0 && sum != raw[i] {
				return nil, fmt.Errorf("warming: nodes serve different bytes for %s", k.path)
			}
			raw[i] = sum
		}
	}
	return raw, nil
}

// logFailures writes one line per failed request to the log, so a
// failure count in the result can be traced to its cause.
func logFailures(e *env, samples [][]sample) {
	for c, q := range samples {
		for _, s := range q {
			switch {
			case !s.sent:
				e.logf("connection %d: request due at %v was still queued when the window closed", c, s.at)
			case !s.ok():
				e.logf("connection %d: request due at %v (sent %v, done %v): status %d, error %v", c, s.at, s.start, s.end, s.status, s.err)
			}
		}
	}
}

// checkLoad archives the generator's own health, and the p99 the gated
// tail leaves out, and marks the run invalid when the generator, not the
// server, was late. Arrivals left queued are already failures of the
// stream they belong to.
func checkLoad(out *outcome, samples [][]sample) {
	ls := summarizeLoad(samples)
	out.addCounts(map[string]float64{
		"p99_ms":      percentile(out.ops, 0.99),
		"late_p50_ms": float64(ls.lateP50) / 1e6, "late_max_ms": float64(ls.lateMax) / 1e6,
		"backlog_max": float64(ls.backlogMax), "queued_at_end": float64(ls.queued),
	})
	if ls.lateP50 > time.Millisecond {
		out.problems = append(out.problems, fmt.Sprintf("load generator ran late (median %v): run invalid", ls.lateP50))
	}
}

// ownerLag is how long after a cold key reaches its non-owner the same
// key reaches its owner. Sent at the same instant, the two requests race:
// about half the time the owner has finished computing before the
// follower's peer-fill asks, and the key's latency flips between ~2 ms
// and the ~50 ms poll, which makes the median unstable. Sending the
// follower first makes every key take the full miss path: the owner
// answers the peer-fill 202, computes once, and the follower polls.
const ownerLag = 5 * time.Millisecond

// runServeCold boots fresh clusters (the last one is measured) and sends
// never-seen keys at a fixed rate, each to both nodes: first to the node
// that does not own it, ownerLag later to its owner. A key's latency runs
// from its instant until both nodes answered it, and the whole cluster
// must compute each key exactly once.
func runServeCold(e *env, seed int64, seconds float64) (*outcome, error) {
	sz := sizesFor(e.toy)
	window := time.Duration(seconds * float64(time.Second))
	keys, err := gridKeys(seed^0x5eed, int(seconds*sz.coldRate))
	if err != nil {
		return nil, err
	}
	cl, _, setup, err := bootMeasured(e, "serve-cold", sz.boots, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cl.dir)

	queues := make([][]arrival, len(cl.nodes))
	due := make([]time.Duration, len(keys))
	interval := time.Duration(float64(time.Second) / sz.coldRate)
	for i, k := range keys {
		own, err := cl.owner(k)
		if err != nil {
			cl.shutdown()
			return nil, err
		}
		due[i] = time.Duration(i) * interval
		for j, nd := range cl.nodes {
			at := due[i]
			if j == own {
				at += ownerLag
			}
			queues[j] = append(queues[j], arrival{at: at, url: nd.url + k.path, key: i})
		}
	}
	samples := openLoop(context.Background(), queues, time.Now(), window)
	computes, verr := cl.computes()
	bodies, berr := coldBodiesOK(cl, keys, samples)
	out := &outcome{setup: setup, rss: cl.shutdown()}
	if verr != nil {
		return nil, verr
	}

	logFailures(e, samples)
	out.attempted = len(keys)
	for i := range keys {
		// Each request's latency counts from its own due instant, which
		// for the owner is ownerLag after the key's.
		var lat time.Duration
		ok := true
		for _, q := range samples {
			s := q[i]
			ok = ok && s.ok() && bodies[i]
			lat = max(lat, s.at-due[i]+s.latency())
		}
		if !ok {
			out.failed++
			continue
		}
		out.ops = append(out.ops, float64(lat)/1e6)
	}
	if berr != nil {
		out.problems = append(out.problems, berr.Error())
	}
	if computes != len(keys) {
		out.problems = append(out.problems, fmt.Sprintf("the cluster computed %d times for %d keys (want exactly one each)", computes, len(keys)))
	}
	out.addCounts(map[string]float64{"computes_per_key": float64(computes) / float64(len(keys))})
	checkLoad(out, samples)
	return out, nil
}

// coldBodiesOK checks, after the storm, that both nodes serve every key
// with the in-process report and byte-identical bodies, and that those
// are the bytes the storm received.
func coldBodiesOK(cl *servingCluster, keys []gridKey, samples [][]sample) ([]bool, error) {
	good := make([]bool, len(keys))
	bad := 0
	for i, k := range keys {
		good[i] = true
		for j, nd := range cl.nodes {
			sum, err := fetchChecked(nd.url, k)
			if err != nil || (samples[j][i].sent && samples[j][i].sum != sum) {
				good[i] = false
			}
		}
		if !good[i] {
			bad++
		}
	}
	if bad > 0 {
		return good, fmt.Errorf("%d of %d cold keys served a wrong or differing report", bad, len(keys))
	}
	return good, nil
}
