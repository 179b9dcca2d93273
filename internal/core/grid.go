package core

import (
	"context"
	"fmt"

	"wsstudy/internal/apps/lu"
	"wsstudy/internal/memsys"
	"wsstudy/internal/workingset"
)

// The grid cell experiments are the sweepable point queries of the
// design space: unlike the paper-figure experiments, which pick their
// own parameters, gridlu and gridbh read every Options axis (cache,
// line, assoc, pes, problem) and evaluate exactly that configuration.
// A parameter-lattice sweep (internal/sweep) enumerates Options over
// axis values and runs one of these per cell; because every axis
// participates in Options.Canonical, each cell has its own content
// address. Each gridbh cell runs its Barnes-Hut kernel live, so cells
// that differ only in cache geometry re-run the same kernel.

// gridPoint builds the one-point "cell" figure every grid experiment
// reports: the miss metric at exactly the requested configuration.
func gridPoint(title, yLabel string, cacheBytes uint64, rate float64) Figure {
	return Figure{
		Title: title, XLabel: "cache size", YLabel: yLabel,
		Series: []Series{{Label: "cell", Points: []workingset.Point{
			{CacheBytes: cacheBytes, MissRate: rate},
		}}},
	}
}

// ---------------------------------------------------------------- gridlu

// expGridLU is the analytic design-space cell: the LU miss-rate model
// evaluated at one (problem, pes, cache) point. It is exact, instant
// and deterministic, which makes it the lattice engine's workhorse for
// large sweeps (and for the grain endpoint, which wants misses/FLOP at
// every (P, cache) candidate).
func expGridLU() Experiment {
	return Experiment{
		ID:    "gridlu",
		Title: "Design-space cell: LU analytic miss rate at one (n, P, cache) point",
		Description: "Evaluates the Figure 2 LU model at the Options axes: " +
			"problem = n (default 10000), pes = P (default 1024), cache = " +
			"per-PE cache bytes (0 sweeps the standard size grid), " +
			"line = blocking factor B in doublewords (default 16).",
		Run: func(_ context.Context, o Options) (*Report, error) {
			n, p, b := 10000, 1024, 16
			if o.Problem > 0 {
				n = o.Problem
			}
			if o.PEs > 0 {
				p = o.PEs
			}
			if o.LineBytes > 0 {
				b = o.LineBytes / 8
				if b < 1 {
					b = 1
				}
			}
			m := lu.Model{N: n, B: b, P: p}
			if n < b {
				return nil, fmt.Errorf("gridlu: problem %d smaller than block %d", n, b)
			}
			r := &Report{Title: fmt.Sprintf("LU cell n=%d B=%d P=%d", n, b, p)}
			if o.CacheBytes > 0 {
				r.Figures = append(r.Figures, gridPoint(
					fmt.Sprintf("LU model n=%d B=%d P=%d", n, b, p),
					"misses/FLOP", o.CacheBytes, m.MissRatePerFLOP(o.CacheBytes)))
			} else {
				fig := Figure{
					Title:  fmt.Sprintf("LU model n=%d B=%d P=%d", n, b, p),
					XLabel: "cache size", YLabel: "misses/FLOP",
				}
				fig.Series = append(fig.Series, modelSeries("model", sizesGrid(), m.MissRatePerFLOP))
				r.Figures = append(r.Figures, fig)
			}
			r.AddNote("lev1WS %s, lev2WS %s, data %s",
				workingset.FormatBytes(m.Lev1WS()), workingset.FormatBytes(m.Lev2WS()),
				workingset.FormatBytes(m.DataSetBytes()))
			return r, nil
		},
	}
}

// ---------------------------------------------------------------- gridbh

// expGridBH is the simulated design-space cell: one Barnes-Hut run
// measured against exactly the requested cache geometry.
func expGridBH() Experiment {
	return Experiment{
		ID:    "gridbh",
		Title: "Design-space cell: simulated Barnes-Hut miss rate at one configuration",
		Description: "Runs the Barnes-Hut kernel at the Options axes (problem = " +
			"particles, pes, cache, line, assoc; zeros take defaults) and reports " +
			"the aggregate read miss rate.",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			n, steps := 1024, 5
			if o.Scale == ScaleQuick {
				n, steps = 192, 3
			}
			if o.Problem > 0 {
				n = o.Problem
			}
			p := 4
			if o.PEs > 0 {
				p = o.PEs
			}
			line := 8
			if o.LineBytes > 0 {
				line = o.LineBytes
			}
			const warm, theta = 1, 1.0

			cfg := memsys.Config{PEs: p, LineSize: uint32(line), WarmupEpochs: warm, ProfilePE: -1}
			if o.CacheBytes > 0 {
				cfg.CacheCapacity = int(o.CacheBytes) / line
				if cfg.CacheCapacity < 1 {
					cfg.CacheCapacity = 1
				}
				cfg.Assoc = o.Assoc
			} else {
				// No concrete cache requested: profile the full curve on PE 1
				// (the fig6 treatment) so a cache=0 cell still says something.
				cfg.Profile = true
				cfg.ProfilePE = 1 % p
			}
			sys, err := runBHTraced(ctx, o, cfg, n, steps, theta)
			if err != nil {
				return nil, err
			}

			r := &Report{Title: fmt.Sprintf("Barnes-Hut cell n=%d p=%d", n, p)}
			if o.CacheBytes > 0 {
				st := sys.CacheStats()
				r.Figures = append(r.Figures, gridPoint(
					fmt.Sprintf("Barnes-Hut n=%d theta=1.0 p=%d line=%d assoc=%d", n, p, line, o.Assoc),
					"read miss rate", o.CacheBytes, st.ReadMissRate()))
				r.AddNote("reads=%d read misses=%d", st.Reads, st.ReadMisses)
			} else {
				prof := sys.Profiler(1 % p)
				fig := Figure{
					Title:  fmt.Sprintf("Barnes-Hut n=%d theta=1.0 p=%d (profiled)", n, p),
					XLabel: "cache size", YLabel: "read miss rate",
				}
				fig.Series = append(fig.Series, profCurve("measured", prof,
					workingset.LogSizes(64, 4<<20, 2), float64(prof.Reads()), true))
				r.Figures = append(r.Figures, fig)
				attachSampling(r, prof)
			}
			return r, nil
		},
	}
}
