package memsys

import (
	"math/rand"
	"reflect"
	"testing"

	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// countedCache is a probe that counts its cache's evictions line by line,
// as the caches did before they kept plain run totals: a miss that leaves
// the resident count unchanged evicted a line. Instrument and Publish
// reach the wrapped cache, so the machine wires and publishes it as usual.
type countedCache struct {
	sizedCache
	evictions uint64
}

type sizedCache interface {
	cache.Cache
	Len() int
	Instrument(rec *obs.Recorder)
	Publish()
}

func (c *countedCache) Access(addr uint64, read bool) bool {
	n := c.Len()
	miss := c.sizedCache.Access(addr, read)
	if miss && c.Len() == n {
		c.evictions++
	}
	return miss
}

// publishStream is a seeded reference stream in blocks of 1 to 700
// references over 4 PEs: reads and writes of 0 to 24 bytes, some
// straddling lines, over 4 KB of 8-byte lines.
func publishStream(seed int64) [][]trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]trace.Ref, 12)
	for i := range blocks {
		block := make([]trace.Ref, 1+rng.Intn(700))
		for j := range block {
			block[j] = trace.Ref{
				PE:   rng.Intn(4),
				Addr: uint64(rng.Intn(4096)),
				Size: uint32(rng.Intn(25)),
				Kind: trace.Kind(rng.Intn(2)),
			}
		}
		blocks[i] = block
	}
	return blocks
}

// publishEpoch maps a block index to the epoch that begins before it:
// blocks 0-3 are epoch 0, 4-7 epoch 1, and measurement starts at epoch 2
// (WarmupEpochs 2) with block 8.
func publishEpoch(block int) (epoch int, begins bool) {
	return block / 4, block%4 == 0 && block > 0
}

// publishMachine is one configuration under test: the machine config
// plus the counted probes it carries and the factor by which its
// eviction counter exceeds theirs.
type publishMachine struct {
	cfg    Config
	probes []*countedCache
	// evictionFactor is 2 when every PE's own cache has a counted twin
	// probe (a probe sees exactly its PE's accesses and invalidations, so
	// the twins evict alike), 1 when the probes are the only caches.
	evictionFactor uint64
}

func newPublishMachine(t *testing.T, profile bool) publishMachine {
	t.Helper()
	pm := publishMachine{
		cfg:            Config{PEs: 4, LineSize: 8, WarmupEpochs: 2, Probes: map[int][]cache.Cache{}},
		evictionFactor: 1,
	}
	if profile {
		pm.cfg.Profile, pm.cfg.ProfilePE = true, 1
	} else {
		pm.cfg.CacheCapacity, pm.cfg.ProfilePE = 32, -1
		pm.evictionFactor = 2
	}
	for pe := 0; pe < 4; pe++ {
		var c sizedCache
		var err error
		if profile {
			c, err = cache.NewSetAssoc(16, 4, 8)
		} else {
			c, err = cache.NewLRU(32, 8) // the twin of pe's own cache
		}
		if err != nil {
			t.Fatal(err)
		}
		probe := &countedCache{sizedCache: c}
		pm.probes = append(pm.probes, probe)
		pm.cfg.Probes[pe] = []cache.Cache{probe}
	}
	return pm
}

// TestPublicationContract pins when an instrumented machine publishes its
// run-scope counters, which it counts in plain fields rather than with an
// atomic add per line. The serial engine publishes at the end of every
// Refs block, so after each block coherence.reads + coherence.writes equal
// the line transactions fed so far, warm-up included, and the profiler's
// accesses the lines its PE touched. After Close every counter equals what
// counting each event as it happens gives: the directory's events over
// the whole run, the measured local/remote misses, and every cache's and
// probe's evictions, warm-up included. The same stream fed per Ref
// reaches the same counters at Close.
func TestPublicationContract(t *testing.T) {
	for _, profile := range []bool{false, true} {
		name := "caches"
		if profile {
			name = "profiler"
		}
		t.Run(name, func(t *testing.T) {
			blocks := publishStream(42)

			pm := newPublishMachine(t, profile)
			m, err := New(pm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			m.Instrument(rec)
			var reads, writes, profiled uint64
			var warm coherence.Stats
			for i, block := range blocks {
				if epoch, begins := publishEpoch(i); begins {
					if epoch == pm.cfg.WarmupEpochs {
						warm = m.DirectoryStats()
					}
					m.BeginEpoch(epoch)
				}
				m.Refs(block)
				for _, r := range block {
					n := uint64(cache.LinesSpanned(r.Addr, r.Size, 8))
					if r.Kind == trace.Read {
						reads += n
					} else {
						writes += n
					}
					if r.PE == 1 {
						profiled += n
					}
				}
				got := rec.Snapshot()
				if fed, pub := reads+writes, got.Counter(coherence.MetricReads)+got.Counter(coherence.MetricWrites); pub != fed {
					t.Fatalf("after block %d: coherence.reads+writes = %d, want the %d line transactions fed", i, pub, fed)
				}
				if profile && got.Counter(cache.MetricProfilerAccesses) != profiled {
					t.Fatalf("after block %d: cache.profiler.accesses = %d, want %d",
						i, got.Counter(cache.MetricProfilerAccesses), profiled)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			final, st := m.DirectoryStats(), m.Stats()
			want := map[string]uint64{
				coherence.MetricReads:              reads,
				coherence.MetricWrites:             writes,
				coherence.MetricInvalidations:      warm.Invalidations + final.Invalidations,
				coherence.MetricInvalidatingWrites: warm.InvalidatingWrites + final.InvalidatingWrites,
				coherence.MetricDowngrades:         warm.Downgrades + final.Downgrades,
				MetricLocalMisses:                  st.LocalMisses,
				MetricRemoteMisses:                 st.RemoteMisses,
				cache.MetricEvictions:              0,
			}
			for _, p := range pm.probes {
				want[cache.MetricEvictions] += pm.evictionFactor * p.evictions
			}
			if profile {
				want[cache.MetricProfilerAccesses] = profiled
			}
			for name, v := range want {
				if v == 0 {
					t.Errorf("%s is zero: the stream does not exercise it", name)
				}
			}
			got := rec.Snapshot().Counters
			for name, v := range want {
				if got[name] != v {
					t.Errorf("after Close: %s = %d, want %d", name, got[name], v)
				}
			}

			// The per-Ref path publishes only at the flip and Close.
			perRef, err := New(newPublishMachine(t, profile).cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec = obs.New()
			perRef.Instrument(rec)
			for i, block := range blocks {
				if epoch, begins := publishEpoch(i); begins {
					perRef.BeginEpoch(epoch)
				}
				for _, r := range block {
					perRef.Ref(r)
				}
			}
			if err := perRef.Close(); err != nil {
				t.Fatal(err)
			}
			if other := rec.Snapshot().Counters; !reflect.DeepEqual(other, got) {
				t.Errorf("per-Ref counters after Close differ from the block-fed machine's\nper-Ref: %v\nblocks:  %v", other, got)
			}
		})
	}
}
