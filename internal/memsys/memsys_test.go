package memsys

import (
	"errors"
	"testing"

	"wsstudy/internal/cache"
	"wsstudy/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	probe := []cache.Cache{cache.MustLRU(4, 8)}
	cases := []Config{
		{PEs: 0, Profile: true},
		{PEs: 2}, // neither profile nor capacity nor probes
		{PEs: 2, Profile: true, CacheCapacity: 4},         // both
		{PEs: 2, Probes: map[int][]cache.Cache{2: probe}}, // probe PE out of range
		{PEs: 2, Probes: map[int][]cache.Cache{1: nil}},   // no probe after all
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	for _, cfg := range []Config{
		{PEs: 2, CacheCapacity: 4, ProfilePE: -1},
		{PEs: 2, Probes: map[int][]cache.Cache{1: probe}}, // probes alone
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("valid config %+v rejected: %v", cfg, err)
		}
	}
}

// TestOpenValidation pins the factory contract: Open returns a *System,
// reports a bad configuration as a nil Machine and ErrInvalidConfig, and
// rejects every Shards value but 0, which is all DefaultShards returns.
func TestOpenValidation(t *testing.T) {
	for _, shards := range []int{-1, 1, 2} {
		m, err := Open(Config{PEs: 2, CacheCapacity: 4, ProfilePE: -1, Shards: shards})
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Shards=%d: err = %v, want ErrInvalidConfig", shards, err)
		}
		if m != nil {
			t.Errorf("Shards=%d: Machine = %#v, want nil", shards, m)
		}
	}
	if w := DefaultShards(); w != 0 {
		t.Fatalf("DefaultShards() = %d, want 0", w)
	}
	m, err := Open(Config{PEs: 2, CacheCapacity: 4, ProfilePE: -1, Shards: DefaultShards()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*System); !ok {
		t.Fatalf("Open: got %T, want *System", m)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{PEs: 0})
}

func TestHomeInterleaved(t *testing.T) {
	s := MustNew(Config{PEs: 4, LineSize: 8, Dist: Interleaved, CacheCapacity: 4, ProfilePE: -1})
	// Lines 0,1,2,3,4 -> PEs 0,1,2,3,0.
	for line, want := range []int{0, 1, 2, 3, 0} {
		if got := s.Home(uint64(line) * 8); got != want {
			t.Errorf("Home(line %d) = %d, want %d", line, got, want)
		}
	}
}

func TestHomeBlocked(t *testing.T) {
	s := MustNew(Config{PEs: 4, LineSize: 8, Dist: Blocked, Extent: 4096, CacheCapacity: 4, ProfilePE: -1})
	if got := s.Home(0); got != 0 {
		t.Errorf("Home(0) = %d, want 0", got)
	}
	if got := s.Home(1024); got != 1 {
		t.Errorf("Home(1024) = %d, want 1", got)
	}
	if got := s.Home(4095); got != 3 {
		t.Errorf("Home(4095) = %d, want 3", got)
	}
	// Addresses beyond the extent clamp to the last PE.
	if got := s.Home(1 << 20); got != 3 {
		t.Errorf("Home(huge) = %d, want 3", got)
	}
}

func TestLocalRemoteClassification(t *testing.T) {
	s := MustNew(Config{PEs: 2, LineSize: 8, Dist: Blocked, Extent: 1024, CacheCapacity: 4, ProfilePE: -1})
	// PE0 touches its own half: local miss.
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Read})
	// PE0 touches PE1's half: remote miss.
	s.Ref(trace.Ref{PE: 0, Addr: 512, Size: 8, Kind: trace.Read})
	st := s.Stats()
	if st.LocalMisses != 1 || st.RemoteMisses != 1 {
		t.Fatalf("stats = %+v, want 1 local + 1 remote", st)
	}
	// Re-access hits: no new misses.
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Read})
	if got := s.Stats(); got != st {
		t.Fatalf("hit changed miss stats: %+v", got)
	}
}

func TestCoherenceAcrossPEs(t *testing.T) {
	s := MustNew(Config{PEs: 2, LineSize: 8, CacheCapacity: 64, ProfilePE: -1})
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Read})
	s.Ref(trace.Ref{PE: 1, Addr: 0, Size: 8, Kind: trace.Write})
	if s.Cache(0).(*cache.LRU).Contains(0) {
		t.Fatal("PE0 still holds line 0 after PE1's write")
	}
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Read})
	if cs := s.Cache(0).Stats(); cs.ReadMisses != 2 {
		t.Fatalf("PE0 read misses = %d, want 2: the cold read and the re-read (stats %+v)", cs.ReadMisses, cs)
	}
}

func TestProfileModeSinglePE(t *testing.T) {
	s := MustNew(Config{PEs: 4, LineSize: 8, Profile: true, ProfilePE: 2})
	if s.Profiler(0) != nil || s.Profiler(2) == nil {
		t.Fatal("only PE 2 should carry a profiler")
	}
	if s.Cache(0) != nil {
		t.Fatal("profile mode must not build concrete caches")
	}
	s.Ref(trace.Ref{PE: 2, Addr: 0, Size: 8, Kind: trace.Read})
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Write}) // invalidates PE2
	s.Ref(trace.Ref{PE: 2, Addr: 0, Size: 8, Kind: trace.Read})
	cohR, _ := s.Profiler(2).CoherenceMisses()
	if cohR != 1 {
		t.Fatalf("profiler coherence read misses = %d, want 1", cohR)
	}
}

func TestWarmupEpochs(t *testing.T) {
	s := MustNew(Config{PEs: 1, LineSize: 8, Profile: true, ProfilePE: 0, WarmupEpochs: 2})
	gen := func() {
		for i := 0; i < 8; i++ {
			s.Ref(trace.Ref{PE: 0, Addr: uint64(i) * 8, Size: 8, Kind: trace.Read})
		}
	}
	for epoch := 0; epoch < 4; epoch++ {
		s.BeginEpoch(epoch)
		gen()
	}
	p := s.Profiler(0)
	// 2 measured epochs x 8 refs.
	if p.Accesses() != 16 {
		t.Fatalf("measured accesses = %d, want 16", p.Accesses())
	}
	cr, _ := p.ColdMisses()
	if cr != 0 {
		t.Fatalf("cold misses = %d, want 0 (warmed up)", cr)
	}
	if got := p.MissesAt(8).ReadMisses; got != 0 {
		t.Fatalf("8-line cache misses = %d, want 0", got)
	}
	if !s.Measuring() {
		t.Fatal("should be measuring after warm-up")
	}
}

func TestWarmupResetsCacheStats(t *testing.T) {
	s := MustNew(Config{PEs: 1, LineSize: 8, CacheCapacity: 4, ProfilePE: -1, WarmupEpochs: 1})
	s.BeginEpoch(0)
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Read})
	s.BeginEpoch(1)
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 8, Kind: trace.Read}) // warmed: hit
	cs := s.CacheStats()
	if cs.Accesses != 1 || cs.Misses() != 0 {
		t.Fatalf("cache stats = %+v, want 1 access 0 misses", cs)
	}
}

func TestSetAssociativeMode(t *testing.T) {
	s := MustNew(Config{PEs: 1, LineSize: 8, CacheCapacity: 4, Assoc: 1, ProfilePE: -1})
	if _, ok := s.Cache(0).(*cache.SetAssoc); !ok {
		t.Fatalf("Assoc=1 should build a SetAssoc cache, got %T", s.Cache(0))
	}
}

func TestMultiLineRef(t *testing.T) {
	s := MustNew(Config{PEs: 1, LineSize: 8, CacheCapacity: 16, ProfilePE: -1})
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 24, Kind: trace.Read}) // 3 lines
	cs := s.CacheStats()
	if cs.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3 (one per line)", cs.Accesses)
	}
	if s.Stats().LocalMisses != 3 {
		t.Fatalf("local misses = %d, want 3", s.Stats().LocalMisses)
	}
}

func TestZeroSizeRefIgnored(t *testing.T) {
	s := MustNew(Config{PEs: 1, LineSize: 8, CacheCapacity: 4, ProfilePE: -1})
	s.Ref(trace.Ref{PE: 0, Addr: 0, Size: 0, Kind: trace.Read})
	if s.CacheStats().Accesses != 0 {
		t.Fatal("zero-size ref must be ignored")
	}
}

func TestDefaults(t *testing.T) {
	s := MustNew(Config{PEs: 2, CacheCapacity: 4, ProfilePE: -1})
	if s.LineSize() != 8 {
		t.Fatalf("default line size = %d, want 8", s.LineSize())
	}
	if s.PEs() != 2 {
		t.Fatalf("PEs = %d", s.PEs())
	}
	if s.Directory() == nil {
		t.Fatal("directory must exist")
	}
}
