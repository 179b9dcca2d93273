package cache

import (
	"math/rand"
	"testing"
)

// TestOccupancyMatchesModel holds the stack profiler's occupancy index to
// a []bool model. The sizes cross the word (64), block (512) and
// superblock (32,768) edges; fill runs both on storage that has to grow
// and on storage reused from a larger index, and every prefix is checked
// after it. Then, after each random add or remove, the count over a
// random range (a, b] must equal the model's: ranges are short (most
// profiler queries), have an end on an edge, or are uniform.
func TestOccupancyMatchesModel(t *testing.T) {
	sizes := []int{100, 5000, 70000, 300000}
	rng := rand.New(rand.NewSource(28))
	var grow, reuse occupancy
	reuse.fill(sizes[len(sizes)-1], 0)
	for _, n := range sizes {
		for _, tc := range []struct {
			name string
			x    *occupancy
			grow bool
		}{{"grown", &grow, true}, {"reused", &reuse, false}} {
			x := tc.x
			old := x.words[:cap(x.words)]
			k := rng.Intn(n + 1)
			x.fill(n, k)
			if x.size != n {
				t.Fatalf("%s fill(%d, %d): size %d", tc.name, n, k, x.size)
			}
			if grew := len(old) == 0 || &x.words[0] != &old[0]; grew != tc.grow {
				t.Fatalf("%s fill(%d, %d): storage grew %v, want %v", tc.name, n, k, grew, tc.grow)
			}
			for p := 0; p <= n; p++ {
				if got := x.count(0, p); got != min(p, k) {
					t.Fatalf("%s fill(%d, %d): count(0, %d) = %d, want %d", tc.name, n, k, p, got, min(p, k))
				}
			}
			model := make([]bool, n+1)
			for p := 1; p <= k; p++ {
				model[p] = true
			}
			for op := 0; op < 3000; op++ {
				p := 1 + rng.Intn(n)
				if model[p] {
					x.clear(p)
				} else {
					x.set(p)
				}
				model[p] = !model[p]
				a, b := occupancyRange(rng, n)
				want := 0
				for q := a + 1; q <= b; q++ {
					if model[q] {
						want++
					}
				}
				if got := x.count(a, b); got != want {
					t.Fatalf("%s size %d, op %d: count(%d, %d) = %d, want %d", tc.name, n, op, a, b, got, want)
				}
			}
		}
	}
}

// occupancyRange picks 0 <= a <= b <= n: a short range, a range with an
// end within one position of a word, block or superblock edge, or a
// uniform one.
func occupancyRange(rng *rand.Rand, n int) (a, b int) {
	pick := func() int { return rng.Intn(n + 1) }
	switch rng.Intn(3) {
	case 0:
		b = pick()
		a = max(b-rng.Intn(130), 0)
		return a, b
	case 1:
		edge := []int{64, blockBits, superBits}[rng.Intn(3)]
		e := min(max(edge*rng.Intn(n/edge+1)+rng.Intn(3)-1, 0), n)
		o := pick()
		return min(e, o), max(e, o)
	default:
		a, b = pick(), pick()
		return min(a, b), max(a, b)
	}
}
