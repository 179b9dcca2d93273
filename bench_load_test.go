package wss

// Load-harness benchmark for the horizontal serving tier
// (BenchmarkWsloadOverloadShed, DESIGN.md §13). It drives a real 2-node
// in-process cluster through the facade (StartNode + RunLoad) exactly
// as `wsstudy serve` + `wsload` would over localhost: an uncached
// open-loop storm against one compute slot per node. It reports served
// vs cleanly shed RPS; any contract-violating response fails the
// benchmark. The cached rate is the ledger's load.max_rps.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"
)

// benchKernelCost is the fixed cost of the synthetic load kernel.
const benchKernelCost = 10 * time.Millisecond

func benchKernel() Experiment {
	return Experiment{
		ID:    "benchkern",
		Title: "fixed-cost kernel for load benchmarks",
		Run: func(ctx context.Context, opt Options) (*Report, error) {
			select {
			case <-time.After(benchKernelCost):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			r := &Report{Title: "benchkern"}
			r.AddNote("cache=%d", opt.CacheBytes)
			return r, nil
		},
	}
}

// bootLoadBench starts a 2-node cluster with one compute slot per node
// and returns the nodes' URLs. Shut down via the returned stop func
// (the benchmark boots a cluster per iteration, so t.Cleanup ordering
// is not enough).
func bootLoadBench(b *testing.B) ([]string, func()) {
	b.Helper()
	lns := make([]net.Listener, 2)
	peers := make(map[string]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		peers[fmt.Sprintf("b%d", i)] = "http://" + ln.Addr().String()
	}
	nodes := make([]*Node, 2)
	urls := make([]string, 2)
	for i := range nodes {
		node, err := StartNode(NodeConfig{
			Listener:       lns[i],
			NodeID:         fmt.Sprintf("b%d", i),
			PeerAddrs:      peers,
			Store:          StoreConfig{Slots: 1},
			Registry:       []Experiment{benchKernel()},
			DefaultScale:   ScaleQuick,
			WaitBudget:     300 * time.Millisecond,
			RequestTimeout: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i], urls[i] = node, node.URL()
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, n := range nodes {
			_ = n.Shutdown(ctx)
		}
	}
	return urls, stop
}

// BenchmarkWsloadOverloadShed measures clean degradation: a fresh
// cluster per iteration (so every key is cold), one compute slot per
// node, and far more offered keys than the slots can absorb. The tier
// must split the storm into served and cleanly shed — zero wrong.
func BenchmarkWsloadOverloadShed(b *testing.B) {
	var servedRPS, shedRPS float64
	for i := 0; i < b.N; i++ {
		urls, stop := bootLoadBench(b)
		res, err := RunLoad(context.Background(), LoadConfig{
			Targets:    urls,
			Experiment: "benchkern",
			Keys:       64,
			RPS:        300,
			Duration:   500 * time.Millisecond,
			Timeout:    30 * time.Second,
		})
		stop()
		if err != nil {
			b.Fatal(err)
		}
		if res.Wrong != 0 {
			b.Fatalf("wrong = %d under overload: %v", res.Wrong, res.WrongSample)
		}
		servedRPS += res.ServedRPS
		shedRPS += res.ShedRPS
	}
	b.ReportMetric(servedRPS/float64(b.N), "served_rps")
	b.ReportMetric(shedRPS/float64(b.N), "shed_rps")
}
