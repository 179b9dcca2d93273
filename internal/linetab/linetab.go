// Package linetab is the per-line state table under the simulator's
// per-reference path: the coherence directory keeps its entries in one
// and the stack-distance profiler its stack positions.
//
// Kernels allocate their simulated data from trace.Arena, a bump
// allocator, so the lines a run touches are dense and low: paper-scale
// Figure 6 touches 34,399 distinct lines, all inside 16 pages of 4,096.
// A Table is therefore paged by line number. Pages of PageLines entries
// are allocated on first touch below the Dense bound, and a lookup is
// two slice indexes instead of a hash probe. Lines at or above the bound
// fall back to a map, because a replayed trace can carry any address.
//
// The zero T is the state of a line never touched: Get answers it for
// absent lines without allocating, and a fresh page needs no
// initialization. Callers keep T pointer-free so that the garbage
// collector never scans a page.
package linetab

const (
	pageBits = 12
	// PageLines is the number of entries in one page.
	PageLines = 1 << pageBits
	// Dense is the first line number served by the far-line map instead
	// of a page. At 2^28 lines the page-pointer slice holds at most 2^16
	// pointers, 512 KB.
	Dense = 1 << 28
)

// Table maps line numbers to values of T. The zero Table is empty and
// ready to use; it is not safe for concurrent use.
type Table[T any] struct {
	pages []*[PageLines]T
	far   map[uint64]*T
}

// Get returns line's value: the zero T when line was never touched
// through Ptr. It never allocates.
func (t *Table[T]) Get(line uint64) T {
	// Pages cover only lines below Dense and the far map only lines at
	// or above it, so a page index in range needs no bound check.
	if i := line >> pageBits; i < uint64(len(t.pages)) {
		if pg := t.pages[i]; pg != nil {
			return pg[line&(PageLines-1)]
		}
	} else if v, ok := t.far[line]; ok {
		return *v
	}
	var zero T
	return zero
}

// Ptr returns a pointer to line's value, allocating its page (or its
// far-map entry) on first touch. The pointer stays valid for the life of
// the table.
func (t *Table[T]) Ptr(line uint64) *T {
	if i := line >> pageBits; i < uint64(len(t.pages)) && t.pages[i] != nil {
		return &t.pages[i][line&(PageLines-1)]
	}
	return t.alloc(line)
}

// alloc is Ptr's first-touch path, kept out of line so Ptr stays small.
func (t *Table[T]) alloc(line uint64) *T {
	if line >= Dense {
		v, ok := t.far[line]
		if !ok {
			if t.far == nil {
				t.far = make(map[uint64]*T)
			}
			v = new(T)
			t.far[line] = v
		}
		return v
	}
	i := int(line >> pageBits)
	if i >= len(t.pages) {
		pages := make([]*[PageLines]T, min(max(i+1, 2*len(t.pages)), Dense/PageLines))
		copy(pages, t.pages)
		t.pages = pages
	}
	pg := new([PageLines]T)
	t.pages[i] = pg
	return &pg[line&(PageLines-1)]
}
