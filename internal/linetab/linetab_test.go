package linetab

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives a table and a map with the same writes over
// lines on both sides of the dense bound (page edges, the bound itself,
// and far lines) and checks every read, including reads of lines never
// written, which must answer zero without allocating their page.
func TestTableMatchesMap(t *testing.T) {
	var tab Table[int32]
	ref := map[uint64]int32{}
	candidates := []uint64{0, 1, PageLines - 1, PageLines, 5*PageLines + 7,
		Dense - 1, Dense, Dense + 1, 1 << 40, ^uint64(0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		candidates = append(candidates, uint64(rng.Intn(64*PageLines)), Dense+uint64(rng.Intn(1<<20)))
	}
	for i := 0; i < 20000; i++ {
		line := candidates[rng.Intn(len(candidates))]
		if rng.Intn(3) == 0 {
			v := int32(rng.Intn(100) - 50)
			*tab.Ptr(line) = v
			ref[line] = v
		}
		if got := tab.Get(line); got != ref[line] {
			t.Fatalf("step %d: Get(%d) = %d, want %d", i, line, got, ref[line])
		}
	}
	for _, line := range candidates {
		if got := tab.Get(line); got != ref[line] {
			t.Fatalf("Get(%d) = %d, want %d", line, got, ref[line])
		}
	}
}

// TestTablePointersStable checks that a pointer from Ptr keeps addressing
// its line after later first touches grow the page slice or the far map.
func TestTablePointersStable(t *testing.T) {
	var tab Table[uint64]
	low, far := tab.Ptr(3), tab.Ptr(Dense+3)
	*low, *far = 11, 22
	for line := uint64(0); line < 300*PageLines; line += PageLines {
		*tab.Ptr(line + 1) = line
		*tab.Ptr(Dense + line + 1) = line
	}
	if *low != 11 || tab.Get(3) != 11 || *far != 22 || tab.Get(Dense+3) != 22 {
		t.Fatal("pointer from Ptr lost its line after the table grew")
	}
	if len(tab.pages) > Dense/PageLines {
		t.Fatalf("page slice has %d entries, want at most %d", len(tab.pages), Dense/PageLines)
	}
}

// TestTableGetLeavesAbsentLines checks that reading absent lines, paged
// or far, creates neither a page nor a far-map entry.
func TestTableGetLeavesAbsentLines(t *testing.T) {
	var tab Table[[2]uint64]
	tab.Ptr(9)[0] = 1
	if tab.Get(10*PageLines) != ([2]uint64{}) || tab.Get(Dense+10) != ([2]uint64{}) {
		t.Fatal("absent line read non-zero")
	}
	if len(tab.pages) != 1 || len(tab.far) != 0 {
		t.Fatalf("Get grew the table: %d pages, %d far lines", len(tab.pages), len(tab.far))
	}
}
