package cluster

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"wsstudy/internal/store"
)

// sampleKeys returns n deterministic, uniformly distributed result
// keys (SHA-256 of the index — the same shape real content addresses
// have).
func sampleKeys(n int) []store.Key {
	keys := make([]store.Key, n)
	for i := range keys {
		keys[i] = store.Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
	}
	return keys
}

func mustRing(t *testing.T, ids []string, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(ids, vnodes)
	if err != nil {
		t.Fatalf("NewRing(%v, %d): %v", ids, vnodes, err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []string
	}{
		{"empty list", nil},
		{"empty id", []string{"n1", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRing(tc.ids, 0); err == nil {
				t.Fatalf("NewRing(%v) succeeded, want error", tc.ids)
			}
		})
	}
}

// TestRingDeterminism: ownership is a pure function of the member SET —
// permuted and duplicated member lists, and independently constructed
// rings (a restart), assign every key identically.
func TestRingDeterminism(t *testing.T) {
	keys := sampleKeys(2048)
	base := mustRing(t, []string{"n1", "n2", "n3"}, 64)
	for _, tc := range []struct {
		name string
		ids  []string
	}{
		{"same order", []string{"n1", "n2", "n3"}},
		{"permuted", []string{"n3", "n1", "n2"}},
		{"duplicated", []string{"n2", "n2", "n1", "n3", "n1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRing(t, tc.ids, 64)
			if got, want := fmt.Sprint(r.Members()), fmt.Sprint(base.Members()); got != want {
				t.Fatalf("Members() = %v, want %v", got, want)
			}
			for _, k := range keys {
				if got, want := r.Owner(k), base.Owner(k); got != want {
					t.Fatalf("Owner(%s) = %q, want %q", k, got, want)
				}
			}
		})
	}
}

// TestRingBalance bounds the load imbalance at DefaultVNodes: every
// member's exact key-space share (and its measured share over sampled
// keys) stays within ±40% of fair share. This is the bound the 128
// vnode default is chosen for; 1 vnode per member fails it badly.
func TestRingBalance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members int
	}{
		{"3 members", 3},
		{"8 members", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := make([]string, tc.members)
			for i := range ids {
				ids[i] = fmt.Sprintf("node-%d", i)
			}
			r := mustRing(t, ids, DefaultVNodes)

			fair := 1.0 / float64(tc.members)
			var total float64
			for id, share := range r.Shares() {
				total += share
				if ratio := share / fair; ratio < 0.60 || ratio > 1.40 {
					t.Errorf("member %s holds %.1f%% of fair share, want within [60%%, 140%%]",
						id, 100*ratio)
				}
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("shares sum to %v, want 1", total)
			}

			counts := make(map[string]int)
			keys := sampleKeys(8192)
			for _, k := range keys {
				counts[r.Owner(k)]++
			}
			for _, id := range ids {
				ratio := float64(counts[id]) / (float64(len(keys)) * fair)
				if ratio < 0.60 || ratio > 1.40 {
					t.Errorf("member %s observed %.1f%% of fair share over %d keys",
						id, 100*ratio, len(keys))
				}
			}
		})
	}
}

// TestRingMovement: adding or removing one member moves only the keys
// whose owner involves that member, and roughly its fair share of them
// — the consistent-hashing contract that lets the cluster resize
// without a global cache flush.
func TestRingMovement(t *testing.T) {
	keys := sampleKeys(8192)
	three := mustRing(t, []string{"n1", "n2", "n3"}, DefaultVNodes)
	four := mustRing(t, []string{"n1", "n2", "n3", "n4"}, DefaultVNodes)

	t.Run("join", func(t *testing.T) {
		moved := 0
		for _, k := range keys {
			before, after := three.Owner(k), four.Owner(k)
			if before == after {
				continue
			}
			moved++
			if after != "n4" {
				t.Fatalf("key %s moved %s -> %s; only the joining member may gain keys",
					k, before, after)
			}
		}
		frac := float64(moved) / float64(len(keys))
		if frac < 0.10 || frac > 0.40 {
			t.Errorf("join moved %.1f%% of keys, want ~25%% (the joiner's fair share)", 100*frac)
		}
	})

	t.Run("leave", func(t *testing.T) {
		moved := 0
		for _, k := range keys {
			before, after := four.Owner(k), three.Owner(k)
			if before == after {
				continue
			}
			moved++
			if before != "n4" {
				t.Fatalf("key %s moved %s -> %s; only the leaver's keys may move",
					k, before, after)
			}
		}
		frac := float64(moved) / float64(len(keys))
		if frac < 0.10 || frac > 0.40 {
			t.Errorf("leave moved %.1f%% of keys, want ~25%% (the leaver's share)", 100*frac)
		}
	})
}
