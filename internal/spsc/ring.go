// Package spsc provides a single-producer single-consumer ring buffer
// with batched, blocking semantics.
//
// Its one user is trace.Fanout, which feeds each of its workers through
// a ring: the producer publishes batches of items with one atomic store
// and at most one channel send per batch, and the consumer drains
// everything available with one atomic store on its side. Compared with
// a Go channel the per-item cost collapses from a lock acquisition to a
// slice copy, which is what lets a synchronization point amortize over
// many simulation blocks.
//
// Blocking uses two capacity-1 wake channels rather than spinning, so
// the ring is safe (and fair) under GOMAXPROCS=1: a producer that fills
// the ring parks until the consumer frees space, and an idle consumer
// parks until the producer publishes. A wake token can be pending from
// an earlier advance, so a woken side always re-checks the indices —
// tokens are hints, never state.
package spsc

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Ring is a bounded single-producer single-consumer queue. Send may only
// be called from one goroutine and Recv from one goroutine; Close belongs
// to the producer side. The zero value is not usable; construct with New.
type Ring[T any] struct {
	buf  []T
	mask uint64

	// head is the next slot to read (advanced only by the consumer);
	// tail is the next slot to write (advanced only by the producer).
	// Plain writes to buf are ordered by the atomic store/load pair.
	head atomic.Uint64
	tail atomic.Uint64

	closed atomic.Bool
	// work wakes a parked consumer after a publish (or Close); space
	// wakes a parked producer after a drain. Both are capacity 1 and
	// written with non-blocking sends: one pending token is enough,
	// because each side re-checks indices after waking.
	work  chan struct{}
	space chan struct{}
}

// New builds a ring with at least the requested capacity, rounded up to a
// power of two.
func New[T any](capacity int) (*Ring[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("spsc: capacity must be positive, got %d", capacity)
	}
	n := 1 << bits.Len(uint(capacity-1))
	return &Ring[T]{
		buf:   make([]T, n),
		mask:  uint64(n - 1),
		work:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}, nil
}

// Cap returns the ring's capacity in items.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len is a racy snapshot of the number of items buffered, for gauges.
func (r *Ring[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Send publishes items in order, blocking while the ring is full. It
// returns the number of times the producer had to park waiting for
// space (the backpressure stall count). Send after Close panics — the
// producer owns Close, so that is always a caller bug.
func (r *Ring[T]) Send(items []T) int {
	if r.closed.Load() {
		panic("spsc: Send after Close")
	}
	stalls := 0
	t := r.tail.Load()
	for len(items) > 0 {
		free := uint64(len(r.buf)) - (t - r.head.Load())
		if free == 0 {
			stalls++
			<-r.space
			continue
		}
		n := uint64(len(items))
		if n > free {
			n = free
		}
		for i := uint64(0); i < n; i++ {
			r.buf[(t+i)&r.mask] = items[i]
		}
		items = items[n:]
		t += n
		r.tail.Store(t)
		select {
		case r.work <- struct{}{}:
		default:
		}
	}
	return stalls
}

// Recv drains up to len(buf) buffered items into buf, blocking while the
// ring is empty and not closed. It returns the number of items copied
// and whether the ring is still open: (0, false) means closed and fully
// drained. Drained slots are zeroed so the ring never retains pointers
// past the handoff.
func (r *Ring[T]) Recv(buf []T) (int, bool) {
	if len(buf) == 0 {
		return 0, !r.closedAndDrained()
	}
	h := r.head.Load()
	var zero T
	for {
		if t := r.tail.Load(); t != h {
			n := t - h
			if n > uint64(len(buf)) {
				n = uint64(len(buf))
			}
			for i := uint64(0); i < n; i++ {
				slot := &r.buf[(h+i)&r.mask]
				buf[i] = *slot
				*slot = zero
			}
			r.head.Store(h + n)
			select {
			case r.space <- struct{}{}:
			default:
			}
			return int(n), true
		}
		if r.closed.Load() {
			// Re-check tail after observing closed: Close happens after
			// the producer's final Send, so an empty ring is final.
			if r.tail.Load() == h {
				return 0, false
			}
			continue
		}
		<-r.work
	}
}

func (r *Ring[T]) closedAndDrained() bool {
	return r.closed.Load() && r.tail.Load() == r.head.Load()
}

// Close marks the ring closed. The consumer drains whatever remains and
// then sees (0, false) from Recv. Close is idempotent and must be called
// from the producer side (after the final Send).
func (r *Ring[T]) Close() {
	if r.closed.Swap(true) {
		return
	}
	select {
	case r.work <- struct{}{}:
	default:
	}
}
