package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wsstudy/internal/trace"
)

// TestHomeMappingProperties: every address maps to a valid processor;
// Blocked homes are monotone in the address; Interleaved homes cycle with
// period PEs*lineSize.
func TestHomeMappingProperties(t *testing.T) {
	check := func(pesRaw, distRaw uint8, addr uint64) bool {
		pes := int(pesRaw%16) + 1
		dist := Interleaved
		if distRaw%2 == 1 {
			dist = Blocked
		}
		s := MustNew(Config{
			PEs: pes, LineSize: 8, Dist: dist, Extent: 1 << 20,
			CacheCapacity: 4, ProfilePE: -1,
		})
		addr %= 1 << 21 // include out-of-extent addresses for Blocked
		h := s.Home(addr)
		if h < 0 || h >= pes {
			return false
		}
		switch dist {
		case Interleaved:
			// Every byte of a line shares the home; the next line is on
			// the next processor (mod PEs).
			line := addr &^ 7
			for off := uint64(0); off < 8; off++ {
				if s.Home(line+off) != s.Home(line) {
					return false
				}
			}
			if s.Home(line+8) != (s.Home(line)+1)%pes {
				return false
			}
		case Blocked:
			if addr+512 < 1<<21 && s.Home(addr+512) < h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMissConservation: for any trace, local+remote misses equal the sum
// of per-cache miss counts (every miss is classified exactly once).
func TestMissConservation(t *testing.T) {
	check := func(seed int64) bool {
		const pes = 4
		s := MustNew(Config{
			PEs: pes, LineSize: 8, Dist: Interleaved,
			CacheCapacity: 8, ProfilePE: -1,
		})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			kind := trace.Read
			if rng.Intn(3) == 0 {
				kind = trace.Write
			}
			s.Ref(trace.Ref{
				PE:   rng.Intn(pes),
				Addr: uint64(rng.Intn(256)) * 8,
				Size: 8,
				Kind: kind,
			})
		}
		st := s.Stats()
		cs := s.CacheStats()
		return st.LocalMisses+st.RemoteMisses == cs.Misses()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceSingleWriterProperty: after any trace, a line the directory
// says is dirty has exactly one sharer, and re-reading it from another PE
// downgrades it.
func TestCoherenceSingleWriterProperty(t *testing.T) {
	check := func(seed int64) bool {
		const pes = 3
		s := MustNew(Config{PEs: pes, LineSize: 8, CacheCapacity: 16, ProfilePE: -1})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			kind := trace.Read
			if rng.Intn(2) == 0 {
				kind = trace.Write
			}
			s.Ref(trace.Ref{
				PE: rng.Intn(pes), Addr: uint64(rng.Intn(64)) * 8, Size: 8, Kind: kind,
			})
		}
		for line := uint64(0); line < 64; line++ {
			addr := line * 8
			if s.Directory().IsDirty(addr) && s.Directory().Sharers(addr) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
