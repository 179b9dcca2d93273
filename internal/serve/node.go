package serve

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
	"wsstudy/internal/sweep"
)

// NodeConfig assembles one serving node end to end: store → sweep
// engine → (optional) cluster → HTTP server → (optional) crawler. It
// is the one wiring `wsstudy serve` and the cluster tests share, so
// "what a node is" is defined exactly once.
type NodeConfig struct {
	// Addr is the listen address (host:port; port 0 picks a free one).
	// Ignored when Listener is set.
	Addr string
	// Listener, when non-nil, is served directly. Cluster tests
	// pre-bind every node's port so the full peer map is known before
	// any node boots.
	Listener net.Listener

	// NodeID and PeerAddrs turn the node into a cluster member:
	// PeerAddrs maps member id -> base URL for every ring member, this
	// node included, and NodeID names which entry is this process.
	// Empty NodeID means a standalone node (no ring, no peer-fill).
	NodeID    string
	PeerAddrs map[string]string
	// FetchBudget / WaitBudget / PeerProbe tune peer-fill; see
	// cluster.Config.
	FetchBudget, WaitBudget, PeerProbe time.Duration
	// Crawl, when non-nil on a cluster member, starts the background
	// precompute crawler over its lattice.
	Crawl *cluster.CrawlSpec

	// Store configures the local result store. Recorder is overridden
	// with NodeConfig.Recorder.
	Store store.Config
	// SweepDir is the sweep engine's checkpoint-journal directory
	// ("" = <Store.Dir>/sweeps when the store persists, else none).
	SweepDir string

	// Registry, DefaultScale, RequestTimeout, ComputeTimeout and
	// RetryAfter configure the HTTP layer; see Config.
	Registry       []core.Experiment
	DefaultScale   core.Scale
	RequestTimeout time.Duration
	ComputeTimeout time.Duration
	RetryAfter     time.Duration

	// Recorder receives every layer's metrics (store.*, serve.*,
	// cluster.*, sweep.*). Nil disables them.
	Recorder *obs.Recorder
}

// Node is one running serving node.
type Node struct {
	Store   *store.Store
	Sweeps  *sweep.Engine
	Cluster *cluster.Cluster // nil on standalone nodes
	Server  *Server

	addr string
}

// StartNode builds and boots a node. On success the node is accepting
// requests on Addr()/the provided listener; stop it with Shutdown.
func StartNode(cfg NodeConfig) (*Node, error) {
	cfg.Store.Recorder = cfg.Recorder
	st, err := store.New(cfg.Store)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Node, error) {
		_ = st.Close(context.Background())
		return nil, err
	}

	sweepDir := cfg.SweepDir
	if sweepDir == "" && cfg.Store.Dir != "" {
		sweepDir = filepath.Join(cfg.Store.Dir, "sweeps")
	}
	eng, err := sweep.NewEngine(sweep.Config{
		Store:       st,
		Dir:         sweepDir,
		Recorder:    cfg.Recorder,
		CellTimeout: cfg.ComputeTimeout,
	})
	if err != nil {
		return fail(err)
	}

	var cl *cluster.Cluster
	if cfg.NodeID != "" {
		cl, err = cluster.New(cluster.Config{
			Self:          cfg.NodeID,
			Peers:         cfg.PeerAddrs,
			Store:         st,
			Registry:      cfg.Registry,
			Recorder:      cfg.Recorder,
			FetchBudget:   cfg.FetchBudget,
			WaitBudget:    cfg.WaitBudget,
			ProbeInterval: cfg.PeerProbe,
		})
		if err != nil {
			eng.Close()
			return fail(err)
		}
		st.SetPeerFill(cl.Fill)
	} else if cfg.Crawl != nil {
		eng.Close()
		return fail(fmt.Errorf("serve: Crawl requires a cluster NodeID"))
	}

	srv, err := New(Config{
		Store:          st,
		Sweeps:         eng,
		Cluster:        cl,
		Registry:       cfg.Registry,
		Recorder:       cfg.Recorder,
		DefaultScale:   cfg.DefaultScale,
		RequestTimeout: cfg.RequestTimeout,
		ComputeTimeout: cfg.ComputeTimeout,
		RetryAfter:     cfg.RetryAfter,
	})
	if err != nil {
		if cl != nil {
			cl.Close()
		}
		eng.Close()
		return fail(err)
	}

	n := &Node{Store: st, Sweeps: eng, Cluster: cl, Server: srv}
	if cfg.Listener != nil {
		n.addr = srv.StartListener(cfg.Listener)
	} else {
		addr, err := srv.Start(cfg.Addr)
		if err != nil {
			if cl != nil {
				cl.Close()
			}
			eng.Close()
			return fail(err)
		}
		n.addr = addr
	}
	if cl != nil && cfg.Crawl != nil {
		if _, err := cl.StartCrawler(*cfg.Crawl); err != nil {
			_ = n.Shutdown(context.Background())
			return nil, err
		}
	}
	return n, nil
}

// Addr is the node's bound listen address.
func (n *Node) Addr() string { return n.addr }

// URL is the node's base URL ("http://host:port").
func (n *Node) URL() string { return "http://" + n.addr }

// Shutdown drains the node in dependency order: crawler and peer-fill
// retries stop first, then sweep passes, then the HTTP listener and
// the store (via Server.Shutdown's drain).
func (n *Node) Shutdown(ctx context.Context) error {
	if n.Cluster != nil {
		n.Cluster.Close()
	}
	err := n.Sweeps.Close()
	if serr := n.Server.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
