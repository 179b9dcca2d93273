package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsstudy/internal/breaker"
	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// The cluster's failpoints sit at its two network seams: dialing a
// peer (error mode = a dead or unreachable node, delay mode = a slow
// one) and reading its response (error mode = a broken transfer,
// corrupt/partial modes = damaged bytes that must fail the digest or
// schema check), plus the crawler's per-cell step. The chaos invariant
// they are held to: an injected peer fault never produces a wrong or
// cached-faulted report — only a local compute.
var (
	fpPeerDial  = fault.New("cluster.peer.dial")
	fpPeerFetch = fault.New("cluster.peer.fetch")
	fpCrawlStep = fault.New("cluster.crawl.step")
)

// InternalReportPath is the peer-fill endpoint prefix on every node:
// GET {prefix}{key}?id=<experiment>&opt.<axis>=... answers the frozen
// ReportV1 rendering (200) — at once when the owner holds the key, or
// as soon as its compute lands inside the hold the request names in
// WaitHeader — or "still computing" (202 + Retry-After) when the hold
// runs out first, or load-shedding (429).
const InternalReportPath = "/v1/internal/reports/"

// DigestHeader carries the hex SHA-256 of the response body on
// internal report answers, so a follower detects corruption in transit
// before the cheaper-but-weaker schema check runs.
const DigestHeader = "X-Wsstudy-Sha256"

// WaitHeader carries, on every internal report request, how many
// milliseconds the follower lets the owner hold a cold key before it
// answers 202. It is always below the attempt's own budget, so the
// owner's 202 arrives before the attempt times out.
const WaitHeader = "X-Wsstudy-Wait-Ms"

// Sentinel outcomes of one fetch attempt. errComputing is the only
// retryable one — the owner is alive and computing the key but did not
// finish inside the attempt's hold, so the follower asks again;
// everything else either sheds to local compute immediately
// (errPeerBusy: the owner is alive but saturated) or degrades the peer
// first (errPeerDown wraps transport errors, 5xx, and corrupt
// responses).
var (
	errComputing = errors.New("cluster: owner still computing")
	errPeerBusy  = errors.New("cluster: owner shedding load")
	errPeerDown  = errors.New("cluster: peer unavailable")
)

// Config assembles a Cluster.
type Config struct {
	// Self is this node's member id. Required.
	Self string
	// Peers maps member id -> base URL ("http://host:port") for every
	// ring member, this node included (its own URL is never dialed).
	// Every node must be handed the same map. Required.
	Peers map[string]string
	// Store is this node's local result store — the crawler warms it,
	// and Fill validates peer bytes against its schema gate. Required.
	Store *store.Store
	// Registry resolves the crawler's experiment id (nil =
	// core.Registry()).
	Registry []core.Experiment
	// Recorder receives the cluster.* metrics. Nil disables them.
	Recorder *obs.Recorder
	// Client performs peer fetches (nil = a client with a pooled
	// transport; per-attempt deadlines ride the request context).
	Client *http.Client
	// FetchBudget caps one fetch attempt's wall time, the owner's hold
	// included (an attempt names three quarters of its budget as the
	// hold). A fill also never spends more than 10% of the caller's
	// remaining deadline on a single attempt, so a slow peer costs a
	// bounded slice of the request budget before local compute takes
	// over (0 = 2s).
	FetchBudget time.Duration
	// WaitBudget caps the total time a follower waits on an owner that
	// is still computing — its held attempts and the backoff between
	// them — before giving up and computing locally. A caller deadline
	// tightens it further — waiting never eats the time the local
	// fallback would need (0 = 15s).
	WaitBudget time.Duration
	// ProbeInterval is how long a degraded peer is bypassed before the
	// next fill probes it again (0 = 15s).
	ProbeInterval time.Duration
}

// Cluster is one node's view of the serving tier. Safe for concurrent
// use. Install Fill on the local store via store.SetPeerFill to
// activate peer-fill; start the crawler with StartCrawler.
type Cluster struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*peer // remote members only
	client *http.Client
	byID   map[string]core.Experiment

	base   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	crawlOn bool

	hits, misses, skipped, corrupt     *obs.Counter
	crawlSteps, crawlWarmed, crawlErrs *obs.Counter
	fetchWall                          *obs.Histogram
}

// New builds a Cluster from a static peer map. The ring contains every
// id in cfg.Peers; cfg.Self must be one of them.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: Config.Store is required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: Config.Peers must include self id %q", cfg.Self)
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		if id != cfg.Self {
			if _, err := url.Parse(addr); err != nil || addr == "" {
				return nil, fmt.Errorf("cluster: peer %q has invalid URL %q", id, addr)
			}
		}
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.FetchBudget <= 0 {
		cfg.FetchBudget = 2 * time.Second
	}
	if cfg.WaitBudget <= 0 {
		cfg.WaitBudget = 15 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 15 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = core.Registry()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	rec := cfg.Recorder
	base, cancel := context.WithCancel(obs.With(context.Background(), rec))
	c := &Cluster{
		cfg:         cfg,
		ring:        ring,
		peers:       make(map[string]*peer, len(cfg.Peers)-1),
		client:      client,
		byID:        make(map[string]core.Experiment, len(cfg.Registry)),
		base:        base,
		cancel:      cancel,
		hits:        rec.Counter(obs.ClusterPeerHits),
		misses:      rec.Counter(obs.ClusterPeerMisses),
		skipped:     rec.Counter(obs.ClusterPeerSkipped),
		corrupt:     rec.Counter(obs.ClusterPeerCorrupt),
		crawlSteps:  rec.Counter(obs.ClusterCrawlSteps),
		crawlWarmed: rec.Counter(obs.ClusterCrawlWarmed),
		crawlErrs:   rec.Counter(obs.ClusterCrawlErrors),
		fetchWall:   rec.Histogram(obs.ClusterPeerFetchWall),
	}
	degraded := rec.Counter(obs.ClusterPeerDegraded)
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		c.peers[id] = &peer{id: id, addr: strings.TrimSuffix(addr, "/"),
			brk: breaker.New(cfg.ProbeInterval, degraded)}
	}
	for _, e := range cfg.Registry {
		c.byID[e.ID] = e
	}
	return c, nil
}

// Ring exposes the node's ring view (ownership queries for tests and
// the crawler).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner reports key's owning member id and whether that is this node.
func (c *Cluster) Owner(key store.Key) (id string, self bool) {
	id = c.ring.Owner(key)
	return id, id == c.cfg.Self
}

// Close stops the crawler and any in-flight fills' retry loops.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
}

// Fill is the store.FillFunc: called by a store flight that missed
// memory and disk, it fetches the finished rendering from the key's
// ring owner. A false return means "compute locally" — the fill path
// is an optimization and every failure mode (self-owned key, degraded
// or dead peer, owner shedding, wait budget exhausted, corrupt bytes)
// falls back to it. ctx carries the request deadline; waiting on the
// owner leaves at least half of the remaining budget for the local
// fallback.
func (c *Cluster) Fill(ctx context.Context, key store.Key, e core.Experiment, opt core.Options) (*store.Result, bool) {
	owner, self := c.Owner(key)
	if self {
		return nil, false
	}
	p := c.peers[owner]
	if !p.brk.Allow() {
		c.skipped.Inc()
		return nil, false
	}

	start := time.Now()
	res, err := c.fetch(ctx, p, key, e, opt)
	c.fetchWall.Observe(time.Since(start))
	if err == nil {
		p.brk.Succeed()
		c.hits.Inc()
		return res, true
	}
	c.misses.Inc()
	if errors.Is(err, errPeerDown) {
		p.brk.Fail(err.Error())
	}
	return nil, false
}

// fetch runs the held-fill protocol: each attempt lets the owner hold
// a cold key until its compute lands (see fetchOnce), and attempts are
// retried only while the owner answers "still computing" (202) — a
// compute that outlasts one hold — under core.RetryPolicy's deadline
// budgeting, inside a window that never starves the local fallback.
func (c *Cluster) fetch(ctx context.Context, p *peer, key store.Key, e core.Experiment, opt core.Options) (*store.Result, error) {
	// The wait window: WaitBudget, tightened to half of the caller's
	// remaining deadline so local compute still fits in the other half.
	window := c.cfg.WaitBudget
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl) / 2; remain < window {
			window = remain
		}
	}
	if window <= 0 {
		return nil, errComputing
	}
	pollCtx, cancel := context.WithTimeout(ctx, window)
	defer cancel()

	var res *store.Result
	_, err := core.RetryPolicy{
		MaxAttempts: 1 << 10, // the window and budgeting bound real attempts
		Backoff:     50 * time.Millisecond,
		MaxBackoff:  time.Second,
		Jitter:      0.2,
		Classify:    func(err error) bool { return errors.Is(err, errComputing) },
	}.Do(pollCtx, func(int) error {
		r, err := c.fetchOnce(pollCtx, p, key, e, opt)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		if pollCtx.Err() != nil && ctx.Err() == nil {
			// The window closed while the owner was still computing (or
			// mid-attempt): a miss, not a peer failure.
			return nil, errComputing
		}
		return nil, err
	}
	return res, nil
}

// fetchOnce performs one internal-report request against p, bounded by
// its own attempt budget.
func (c *Cluster) fetchOnce(ctx context.Context, p *peer, key store.Key, e core.Experiment, opt core.Options) (*store.Result, error) {
	if err := fpPeerDial.Inject(ctx); err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", errPeerDown, p.id, err)
	}
	// Per-attempt budget: FetchBudget, tightened to 10% of the caller's
	// remaining deadline (floored at 50ms so a tight deadline still
	// gets one real try) — a slow peer costs a thin slice of the
	// request, not the request.
	budget := c.cfg.FetchBudget
	if dl, ok := ctx.Deadline(); ok {
		slice := time.Until(dl) / 10
		if slice < 50*time.Millisecond {
			slice = 50 * time.Millisecond
		}
		if slice < budget {
			budget = slice
		}
	}
	attemptCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	req, err := http.NewRequestWithContext(attemptCtx, http.MethodGet, c.reportURL(p, key, e.ID, opt), nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPeerDown, err)
	}
	// The hold is three quarters of what is left of the attempt (the
	// budget, or less when the caller's deadline comes first): the
	// remaining quarter carries the owner's 202 back before the attempt
	// times out, because a timed-out attempt degrades a healthy owner.
	dl, _ := attemptCtx.Deadline()
	req.Header.Set(WaitHeader, strconv.FormatInt((time.Until(dl)*3/4).Milliseconds(), 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPeerDown, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	switch {
	case resp.StatusCode == http.StatusOK:
		// Bound the read: a rendering bigger than this is not a report.
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if err == nil {
			raw, err = fpPeerFetch.InjectBytes(attemptCtx, raw)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: reading %s: %v", errPeerDown, p.id, err)
		}
		return c.validate(p, key, e.ID, resp.Header.Get(DigestHeader), raw)
	case resp.StatusCode == http.StatusAccepted:
		return nil, errComputing
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, errPeerBusy
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("%w: %s answered %d", errPeerDown, p.id, resp.StatusCode)
	default:
		// 4xx: the owner is alive but disagrees about the request (a
		// registry or version skew). Not retryable, not a peer failure —
		// local compute will answer.
		return nil, fmt.Errorf("cluster: %s answered %d for %s", p.id, resp.StatusCode, key)
	}
}

// validate gates peer bytes exactly like disk revival gates persisted
// bytes, plus a transport-integrity digest: the result key addresses
// the request configuration, not the rendering, so a flipped byte in
// otherwise well-formed JSON would pass the schema check — the digest
// catches it. Every owner sends the digest with a 200, so a missing one
// is as untrustworthy as a wrong one. Any failure counts
// cluster.peer.corrupt and degrades the peer; nothing invalid is ever
// returned (and so never cached).
func (c *Cluster) validate(p *peer, key store.Key, id, digest string, raw []byte) (*store.Result, error) {
	sum := sha256.Sum256(raw)
	if digest == "" || !strings.EqualFold(digest, hex.EncodeToString(sum[:])) {
		c.corrupt.Inc()
		return nil, fmt.Errorf("%w: %s: body digest missing or mismatched", errPeerDown, p.id)
	}
	res, err := store.DecodeResult(key, id, raw)
	if err != nil {
		c.corrupt.Inc()
		return nil, fmt.Errorf("%w: %s: %v", errPeerDown, p.id, err)
	}
	return res, nil
}

// reportURL builds the internal fetch URL. Every axis is sent
// explicitly in canonical form, so the owner reconstructs byte-equal
// Options regardless of its own defaults; the owner re-derives the key
// from them and rejects a mismatch.
func (c *Cluster) reportURL(p *peer, key store.Key, id string, opt core.Options) string {
	q := url.Values{"id": {id}}
	for _, f := range core.AxisFields() {
		q.Set("opt."+f, opt.AxisValue(f))
	}
	return p.addr + InternalReportPath + key.String() + "?" + q.Encode()
}
