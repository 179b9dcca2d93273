package core

import (
	"context"
	"fmt"
	"math"

	"wsstudy/internal/apps/cg"
	"wsstudy/internal/machine"
	"wsstudy/internal/memsys"
	"wsstudy/internal/trace"
	"wsstudy/internal/workingset"
)

// expSharing1024 simulates — rather than extrapolates — the paper's
// headline 1024-PE configuration: a CG solve partitioned across 1024
// processors with concrete per-PE caches, sweeping the line size to watch
// communication (remote misses, invalidations) grow with grain. The
// machine opens like every other through openMachine; at full scale (CG
// 128x128, four line sizes) the run takes about 0.6 s on a 2-core
// host.
func expSharing1024() Experiment {
	return Experiment{
		ID:    "sharing1024",
		Title: "Sharing at paper scale: CG on 1024 processors vs line size",
		Description: "Direct simulation of a 1024-PE cache-coherent machine: " +
			"remote misses, invalidations and the resulting FLOPs-per-word " +
			"ratio as the line size grows, classified against the Section 2.3 " +
			"sustainability bands.",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			const p = 1024
			px := int(math.Sqrt(float64(p)))
			n, iters, warm := 64, 3, 1
			if o.Scale != ScaleQuick {
				n, iters, warm = 128, 4, 1
			}
			const cacheBytes = 4 << 10 // per-PE; sized well above the lev1WS knee
			lineSizes := []uint32{8, 16, 32, 64}

			r := &Report{Title: fmt.Sprintf("Sharing at P=%d (CG %dx%d)", p, n, n)}
			remote := Series{Label: "remote misses / FLOP"}
			tbl := Table{
				Title: "communication vs line size",
				Header: []string{
					"line", "local miss", "remote miss", "invalidations",
					"downgrades", "FLOPs/word", "sustainability",
				},
			}
			measuredFLOPs := float64(iters-warm) * 20 * float64(n) * float64(n)

			for _, ls := range lineSizes {
				sys, err := openMachine(ctx, o, memsys.Config{
					PEs: p, LineSize: ls, Dist: memsys.Interleaved,
					CacheCapacity: int(cacheBytes / ls), ProfilePE: -1,
					WarmupEpochs: warm,
				})
				if err != nil {
					return nil, err
				}

				part, err := cg.NewPartition2D(n, px, p/px, nil)
				if err != nil {
					sys.Close()
					return nil, err
				}
				solver := cg.NewSolver2D(part, trace.WithContext(ctx, sys))
				b := make([]float64, n*n)
				for i := range b {
					b[i] = 1
				}
				solver.SetB(b)
				if _, err := solver.Solve(cg.Config{MaxIters: iters}); err != nil {
					sys.Close()
					return r, err
				}
				if err := sys.Close(); err != nil {
					return r, err
				}

				st := sys.Stats()
				ds := sys.DirectoryStats()
				words := float64(st.RemoteMisses) * float64(ls) / 8
				ratio := math.Inf(1)
				if words > 0 {
					ratio = measuredFLOPs / words
				}
				remote.Points = append(remote.Points, workingset.Point{
					CacheBytes: uint64(ls),
					MissRate:   float64(st.RemoteMisses) / measuredFLOPs,
				})
				tbl.Rows = append(tbl.Rows, []string{
					workingset.FormatBytes(uint64(ls)),
					fmt.Sprint(st.LocalMisses),
					fmt.Sprint(st.RemoteMisses),
					fmt.Sprint(ds.Invalidations),
					fmt.Sprint(ds.Downgrades),
					fmt.Sprintf("%.1f", ratio),
					machine.Classify(ratio).String(),
				})
			}

			r.Figures = append(r.Figures, Figure{
				Title:  fmt.Sprintf("CG %dx%d, P=%d, %s caches", n, n, p, workingset.FormatBytes(cacheBytes)),
				XLabel: "line size", YLabel: "remote misses / FLOP",
				Series: []Series{remote},
			})
			r.Tables = append(r.Tables, tbl)

			paragon := machine.Paragon(p)
			cm5 := machine.CM5(p)
			r.AddNote("machine context: %s; %s", paragon, cm5)
			r.AddNote("remote data moved counts measured epochs only (%d of %d iterations); words are double words, matching the Section 2.3 ratios", iters-warm, iters)
			return r, nil
		},
	}
}
