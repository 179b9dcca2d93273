package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/serve"
	"wsstudy/internal/store"
	"wsstudy/internal/sweep"
)

// serveParams are the `wsstudy serve` knobs, split from flag parsing so
// tests can drive the full serving path in-process.
type serveParams struct {
	addr         string
	slots        int
	entries      int
	maxBytes     int64
	dir          string
	sweepDir     string
	defaultScale core.Scale
	reqTimeout   time.Duration
	computeLimit time.Duration
	drain        time.Duration

	// Cluster membership: nodeID names this node in the peers map
	// (id=url,id=url,... — identical on every node, self included).
	// Empty nodeID serves standalone.
	nodeID        string
	peers         map[string]string
	fetchBudget   time.Duration
	waitBudget    time.Duration
	peerProbe     time.Duration
	crawl         string // experiment id; "" disables the crawler
	crawlAxes     []sweep.Axis
	crawlInterval time.Duration
}

// parsePeers decodes the -peers flag: "n1=http://h1:8080,n2=http://h2:8080".
func parsePeers(raw string) (map[string]string, error) {
	if raw == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, part := range strings.Split(raw, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers: %q is not id=url", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("-peers: duplicate node id %q", id)
		}
		out[id] = addr
	}
	return out, nil
}

// runServe builds one serving node — result store, sweep engine,
// optional cluster membership and crawler, v1 HTTP server — serves
// until ctx is cancelled (SIGINT/SIGTERM in the CLI), then drains
// gracefully: the listener closes, in-flight requests and their
// computations get the drain budget to finish, and stragglers are
// cancelled through their kernels' cancellation polls. ready (when
// non-nil) receives the bound address once the server is accepting.
func runServe(ctx context.Context, rec *obs.Recorder, p serveParams, ready func(addr string)) error {
	cfg := serve.NodeConfig{
		Addr:   p.addr,
		NodeID: p.nodeID,
		Store: store.Config{
			MaxEntries: p.entries,
			MaxBytes:   p.maxBytes,
			Slots:      p.slots,
			Dir:        p.dir,
		},
		SweepDir:       p.sweepDir,
		DefaultScale:   p.defaultScale,
		RequestTimeout: p.reqTimeout,
		ComputeTimeout: p.computeLimit,
		Recorder:       rec,
	}
	if p.nodeID != "" {
		cfg.PeerAddrs = p.peers
		cfg.FetchBudget = p.fetchBudget
		cfg.WaitBudget = p.waitBudget
		cfg.PeerProbe = p.peerProbe
		if p.crawl != "" {
			cfg.Crawl = &cluster.CrawlSpec{
				Experiment: p.crawl,
				Axes:       p.crawlAxes,
				Interval:   p.crawlInterval,
			}
		}
	} else if p.crawl != "" {
		return fmt.Errorf("-crawl requires cluster membership (-node-id and -peers)")
	}

	n, err := serve.StartNode(cfg)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(n.Addr())
	}

	<-ctx.Done()
	drainCtx, cancel := context.WithTimeout(context.Background(), p.drain)
	defer cancel()
	return n.Shutdown(drainCtx)
}

// serveFromFlags wires runServe to the process: signal-driven shutdown
// and a startup line on stderr.
func serveFromFlags(ctx context.Context, rec *obs.Recorder, p serveParams) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, rec, p, func(addr string) {
		if p.nodeID != "" {
			var ids []string
			for id := range p.peers {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			fmt.Fprintf(os.Stderr, "wsstudy: serving v1 API on http://%s/v1/experiments as cluster node %q (ring: %s; default scale %s; SIGTERM drains)\n",
				addr, p.nodeID, strings.Join(ids, ", "), p.defaultScale)
			return
		}
		fmt.Fprintf(os.Stderr, "wsstudy: serving v1 API on http://%s/v1/experiments (default scale %s; SIGTERM drains)\n",
			addr, p.defaultScale)
	})
}
