package core

import (
	"context"
	"fmt"

	"wsstudy/internal/cache"
	"wsstudy/internal/memsys"
	"wsstudy/internal/workingset"
)

// expBus quantifies the paper's Section 1 motivation for large caches on
// small-scale bus-based machines: "the use of a shared bus interconnect
// and the need to reduce traffic on it". Bus traffic per processor is
// (misses + writebacks) * lineSize bytes; the experiment sweeps the cache
// size for a Barnes-Hut run and reports bytes of bus traffic per 1000
// memory references — the quantity a snoopy bus saturates on, and the
// reason bus machines buy multi-hundred-KB caches even though the
// working-set knees sit far lower.
func expBus() Experiment {
	return Experiment{
		ID:          "bus",
		Title:       "Section 1: bus traffic vs cache size (why bus machines buy big caches)",
		Description: "Per-processor bus bytes (miss fills + writebacks) per 1000 references across cache sizes.",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			n, steps := 256, 3
			if o.Scale != ScaleQuick {
				n, steps = 512, 4
			}
			const lineSize = 32 // bus machines use wide lines
			sizes := []uint64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
			// One kernel run feeds a probe per size on PE 1.
			probes, err := newProbes(sizes, 0, lineSize)
			if err != nil {
				return nil, err
			}
			if _, err := runBHTraced(ctx, o, memsys.Config{
				PEs: 4, LineSize: lineSize, WarmupEpochs: 1,
				Probes: map[int][]cache.Cache{1: probes},
			}, n, steps, 1.0); err != nil {
				return nil, err
			}
			series := Series{Label: "Barnes-Hut"}
			var rows [][]string
			for i, bytes := range sizes {
				st := probes[i].Stats()
				traffic := float64(st.Misses()+st.Writebacks) * lineSize
				perK := traffic / float64(st.Accesses) * 1000
				series.Points = append(series.Points, workingset.Point{
					CacheBytes: bytes, MissRate: perK,
				})
				rows = append(rows, []string{
					workingset.FormatBytes(bytes),
					fmt.Sprint(st.Misses()),
					fmt.Sprint(st.Writebacks),
					fmt.Sprintf("%.0f", perK),
				})
			}
			r := &Report{Title: "Bus traffic vs cache size (Section 1)"}
			r.Figures = append(r.Figures, Figure{
				Title:  fmt.Sprintf("Barnes-Hut n=%d, %d-byte lines, PE 1", n, lineSize),
				XLabel: "cache size", YLabel: "bus bytes / 1000 refs",
				Series: []Series{series},
			})
			r.Tables = append(r.Tables, Table{
				Title:  "traffic components",
				Header: []string{"cache", "misses", "writebacks", "bus bytes/1000 refs"},
				Rows:   rows,
			})
			first := series.Points[0].MissRate
			last := series.Points[len(series.Points)-1].MissRate
			if last > 0 {
				r.AddNote("growing the cache %s -> %s cuts bus traffic %.0fx — the Section 1 rationale for large caches on bus machines, distinct from the working-set knees (which sit far below 1 MB)",
					workingset.FormatBytes(sizes[0]), workingset.FormatBytes(sizes[len(sizes)-1]), first/last)
			}
			return r, nil
		},
	}
}
