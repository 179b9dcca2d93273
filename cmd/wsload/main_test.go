package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/load"
	"wsstudy/internal/obs"
	"wsstudy/internal/serve"
	"wsstudy/internal/store"
)

// bootCluster starts an in-process n-node cluster and returns the node
// handles plus their recorders. Ports are pre-bound so every node sees
// the full peer map at boot.
func bootCluster(t *testing.T, n int, reg []core.Experiment, scfg store.Config, tweak func(cfg *serve.NodeConfig)) ([]*serve.Node, []*obs.Recorder) {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[fmt.Sprintf("n%d", i)] = "http://" + ln.Addr().String()
	}
	nodes := make([]*serve.Node, n)
	recs := make([]*obs.Recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = obs.New()
		cfg := serve.NodeConfig{
			Listener:       lns[i],
			NodeID:         fmt.Sprintf("n%d", i),
			PeerAddrs:      peers,
			Store:          scfg,
			Registry:       reg,
			DefaultScale:   core.ScaleQuick,
			RequestTimeout: 30 * time.Second,
			Recorder:       recs[i],
		}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := serve.StartNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, node := range nodes {
			_ = node.Shutdown(ctx)
		}
	})
	return nodes, recs
}

func targetsOf(nodes []*serve.Node) string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.URL()
	}
	return strings.Join(urls, ",")
}

// TestLoadSmoke is the tier-1 load gate: a 2-node cluster takes a
// short warmed wsload run with a measurable cached rate and zero
// contract violations, and every key is computed exactly once
// cluster-wide (the other node's copy arrives by peer-fill).
func TestLoadSmoke(t *testing.T) {
	nodes, recs := bootCluster(t, 2, core.Registry(), store.Config{Slots: 4}, nil)

	var out bytes.Buffer
	err := run([]string{
		"-targets", targetsOf(nodes),
		"-experiment", "gridlu",
		"-keys", "4",
		"-rps", "300",
		"-duration", "2s",
		"-warm",
	}, &out)
	if err != nil {
		t.Fatalf("wsload failed: %v\n%s", err, out.String())
	}

	var res load.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("wsload output is not a Result: %v\n%s", err, out.String())
	}
	if res.Wrong != 0 {
		t.Fatalf("wrong = %d: %v", res.Wrong, res.WrongSample)
	}
	if res.ServedRPS <= 0 {
		t.Fatalf("served RPS = %v, want > 0 against a warm cluster", res.ServedRPS)
	}
	if res.NetErrors != 0 {
		t.Fatalf("net errors = %d against a local cluster", res.NetErrors)
	}
	if res.P99 <= 0 {
		t.Fatalf("p99 = %v, want > 0", res.P99)
	}

	// Content-addressing across the ring: 4 keys, each computed exactly
	// once cluster-wide — the second copy always arrived by peer-fill.
	var computes uint64
	for _, rec := range recs {
		computes += rec.Snapshot().Durations[obs.StoreComputeWall].Count
	}
	if computes != 4 {
		t.Fatalf("cluster ran %d computes for 4 keys, want exactly 4 (peer-fill covers the rest)", computes)
	}
}

// TestLoadOverloadSheds: a 2-node cluster with one compute slot per
// node and a deliberately slow kernel under an uncached open-loop storm
// answers every request inside the contract — some 200s, a meaningful
// number of clean 429s with Retry-After, and nothing wrong.
func TestLoadOverloadSheds(t *testing.T) {
	slow := core.Experiment{
		ID:    "slowload",
		Title: "slow kernel for overload drills",
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			r := &core.Report{Title: "slowload"}
			r.AddNote("cache=%d", opt.CacheBytes)
			return r, nil
		},
	}
	// A short WaitBudget keeps follower fills from waiting on the
	// saturated owner longer than clients wait; a saturated cluster
	// must shed, not queue.
	nodes, _ := bootCluster(t, 2, []core.Experiment{slow}, store.Config{Slots: 1},
		func(cfg *serve.NodeConfig) {
			cfg.WaitBudget = 300 * time.Millisecond
			cfg.RequestTimeout = 10 * time.Second
		})

	res, err := load.Run(context.Background(), load.Config{
		Targets:    []string{nodes[0].URL(), nodes[1].URL()},
		Experiment: "slowload",
		Keys:       64, // uncached spread: far more distinct keys than slots
		RPS:        300,
		Duration:   1500 * time.Millisecond,
		Timeout:    30 * time.Second, // outlive the server's own deadlines: no client cancels
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wrong != 0 {
		t.Fatalf("wrong = %d under overload: %v", res.Wrong, res.WrongSample)
	}
	if res.Statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("overload produced no 429s: %+v", res.Statuses)
	}
	if res.Statuses[http.StatusOK] == 0 {
		t.Fatalf("overload starved every request: %+v", res.Statuses)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rps", "10"}, &out); err == nil {
		t.Fatal("run accepted a missing -targets")
	}
}
