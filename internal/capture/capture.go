// Package capture deduplicates kernel executions across experiments by
// recording each (kernel, configuration) reference stream once and
// replaying the recording to every later consumer of the same stream.
//
// Several experiments drive the same deterministic kernel at the same
// configuration — fig6 and fig6dm both run Barnes-Hut on the identical
// Plummer system — and the kernel execution dominates their wall-clock.
// A Store keyed by the kernel's full configuration turns the second and
// later executions into replays of a pooled in-memory WST3 snapshot
// (the compressed framed trace format), which decode at memory
// bandwidth instead of re-simulating physics.
//
// Replays are epoch-prefix aware: a deterministic kernel traced for k
// epochs emits a byte-for-byte prefix of the same kernel traced for
// k' > k epochs (tracing is pass-through and steps only append), so one
// recording at the largest step count serves every shorter request, cut
// at the epoch boundary.
//
// The replayed stream is delivered through the caller's own sink — in
// the experiments that is the context trace guard feeding the memory
// systems — so cache statistics are bit-identical to a live run: same
// references, same order, same epoch placement. Only delivery
// granularity (block boundaries) may differ, exactly as for any other
// BlockConsumer (see that contract in internal/trace).
package capture

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// ErrReplay is wrapped by every *ReplayError, so callers (the result
// store's degradation logic, the suite's retry classifier) can identify
// capture-replay failures with errors.Is(err, ErrReplay).
var ErrReplay = errors.New("capture: snapshot replay failed")

// ReplayError reports that replaying a committed recording failed after
// the sink had already consumed part of the stream, so the Run could
// not fall back to re-recording (re-delivering the consumed prefix
// would double-count references). The broken entry has been dropped; a
// retry with a fresh sink records afresh.
type ReplayError struct {
	// Key identifies the recording that failed to replay.
	Key string
	// Delivered is how many references and epoch boundaries the sink
	// consumed before the failure.
	Delivered uint64
	// Err is the underlying failure (a *trace.CorruptError, usually).
	Err error
}

// Error renders the failure.
func (e *ReplayError) Error() string {
	return fmt.Sprintf("capture: replaying snapshot %q (%d records delivered): %v",
		e.Key, e.Delivered, e.Err)
}

// Unwrap ties the error to ErrReplay and the underlying cause.
func (e *ReplayError) Unwrap() []error { return []error{ErrReplay, e.Err} }

// Failpoints at the capture seams. capture.commit discards a recording
// at commit time (the live run already succeeded, so the only cost is
// re-recording later — the same graceful handling a failed Flush gets);
// capture.replay fails a replay before it delivers anything, which
// exercises the safe re-record fallthrough below.
var (
	fpCommit = fault.New("capture.commit")
	fpReplay = fault.New("capture.replay")
)

// DefaultMaxBytes bounds a Store's resident encoded-trace bytes. The
// delta encoding holds quick-scale kernel runs around two bytes per
// reference before compression, and WST3's DEFLATE framing shrinks that
// further, so the default comfortably fits every shareable stream in
// the suite.
const DefaultMaxBytes = 256 << 20

// Store is a concurrency-safe in-memory cache of encoded reference
// streams. A nil *Store is valid and disabled: Run executes the producer
// directly.
type Store struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*entry
	flights map[string]chan struct{}
}

// entry is one committed recording. The buffer is immutable after
// commit, so replays read it without holding the store lock; what the
// lock does guard is the entry's lifetime: pins counts in-progress
// replays, and the buffer's pooled chunks return to the pool only when
// an entry that has left the map (dead) reaches zero pins. Without the
// pin, a commit displacing this entry could recycle its chunks into a
// concurrent recording while a replay is still reading them.
type entry struct {
	buf    *buffer
	epochs int
	refs   uint64
	pins   int  // active replays, guarded by Store.mu
	dead   bool // removed from the map; free buf at pins == 0
}

// New builds a Store bounded to maxBytes of encoded trace (zero means
// DefaultMaxBytes). Recordings that would exceed the budget are
// discarded rather than evicting committed entries: the working set of
// shareable streams is small and known, so an over-budget recording
// signals a key that should not be captured at all.
func New(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{
		max:     maxBytes,
		entries: make(map[string]*entry),
		flights: make(map[string]chan struct{}),
	}
}

type ctxKey struct{}

// With attaches s to the context. An explicit nil disables capture for
// the subtree even when an outer layer would attach a store.
func With(ctx context.Context, s *Store) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns the attached Store, or nil when absent or disabled.
func From(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}

// Attached reports whether With was called on the context chain at all,
// including With(ctx, nil). Suite runners use it to attach a default
// store without overriding an explicit disable.
func Attached(ctx context.Context) bool {
	_, ok := ctx.Value(ctxKey{}).(*Store)
	return ok
}

// Keyf builds a capture key. The key must encode every input that
// affects the kernel's reference stream — sizes, processor count,
// tolerances, seeds — because two runs sharing a key are assumed
// stream-identical up to epoch count.
func Keyf(kernel, format string, args ...any) string {
	return kernel + "/" + fmt.Sprintf(format, args...)
}

// Run delivers the reference stream identified by key into sink: from
// the store when a recording with at least the requested epochs exists,
// otherwise by calling produce with a consumer that tees into a
// recorder, committing the recording when produce succeeds. Concurrent
// Runs of the same key are single-flighted — a follower waits for the
// leader's recording and replays it rather than re-running the kernel.
//
// epochs is the number of epoch boundaries the caller's run emits
// (its step count); replays of longer recordings stop at that boundary.
// On a nil or disabled store Run is exactly produce(sink).
//
// A replay that fails mid-stream (a corrupt snapshot) fails the Run
// with a *ReplayError: the sink has by then consumed a verified prefix,
// so re-delivering the stream into it would double-count references.
// The broken entry is dropped, so a retry with a fresh sink records and
// succeeds. A replay that fails before delivering anything — the first
// frame was already bad — leaves the sink untouched, so Run drops the
// entry and falls through to re-recording instead of failing (bounded,
// so a persistent fault still terminates).
func (s *Store) Run(ctx context.Context, key string, epochs int, sink trace.Consumer, produce func(trace.Consumer) error) error {
	if s == nil {
		return produce(sink)
	}
	rec := obs.From(ctx)
	rerecords := 0
	for {
		e, flight, leader := s.lookup(key, epochs)
		if e != nil {
			delivered, err := s.replay(ctx, rec, e, epochs, sink)
			if err == nil {
				s.unpin(e)
				return nil
			}
			// Replay verifies each frame's CRC as it streams, so by the
			// time a corrupt frame surfaces the sink has usually consumed
			// a verified prefix. Re-running the producer into the same
			// sink would deliver that prefix twice and silently skew the
			// caller's statistics, so with anything delivered the only
			// safe outcome is to fail this Run. The entry is dropped
			// either way; later Runs record afresh.
			s.drop(key, e)
			s.unpin(e)
			if delivered == 0 && rerecords < maxRerecords {
				rerecords++
				rec.Counter(obs.CaptureRerecords).Inc()
				continue
			}
			return &ReplayError{Key: key, Delivered: delivered, Err: err}
		}
		if !leader {
			select {
			case <-flight:
				continue // leader landed (or gave up): re-check the entry
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		break
	}
	defer s.land(key)
	rec.Counter(obs.CaptureMisses).Inc()

	buf := &buffer{}
	w, err := trace.NewWriter(buf)
	if err != nil {
		buf.free()
		return produce(sink)
	}
	r := &recorder{w: w}
	if err := produce(trace.Tee{r, sink}); err != nil {
		buf.free()
		return err
	}
	if err := w.Flush(); err != nil || w.Err() != nil {
		buf.free()
		return nil // the live run succeeded; only the recording is lost
	}
	if err := fpCommit.Inject(ctx); err != nil {
		buf.free() // injected commit fault: same shape as a failed Flush
		return nil
	}
	s.commit(rec, key, &entry{buf: buf, epochs: r.epochs, refs: r.refs})
	return nil
}

// maxRerecords bounds how many times one Run may fall through from a
// nothing-delivered replay failure to re-recording, so a persistently
// faulted store cannot spin a caller forever.
const maxRerecords = 3

// lookup returns a committed entry covering the requested epochs, or the
// in-flight recording to wait for, or (nil, nil, true) when the caller
// becomes the leader and must record (and later call land). A returned
// entry is pinned; the caller must unpin it when its replay finishes.
func (s *Store) lookup(key string, epochs int) (*entry, chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil && e.epochs >= epochs {
		e.pins++
		return e, nil, false
	}
	if fl := s.flights[key]; fl != nil {
		return nil, fl, false
	}
	s.flights[key] = make(chan struct{})
	return nil, nil, true
}

// land retires the caller's flight, waking followers.
func (s *Store) land(key string) {
	s.mu.Lock()
	fl := s.flights[key]
	delete(s.flights, key)
	s.mu.Unlock()
	if fl != nil {
		close(fl)
	}
}

// unpin releases a lookup's pin, freeing the buffer of an entry that
// has since been dropped or displaced once no replay reads it.
func (s *Store) unpin(e *entry) {
	s.mu.Lock()
	e.pins--
	free := e.dead && e.pins == 0
	s.mu.Unlock()
	if free {
		e.buf.free()
	}
}

// drop removes e (and only e) from the store. The buffer is freed here
// only when no replay is pinning it; otherwise the last unpin frees it.
func (s *Store) drop(key string, e *entry) {
	s.mu.Lock()
	var free bool
	if s.entries[key] == e {
		delete(s.entries, key)
		s.bytes -= e.buf.size()
		e.dead = true
		free = e.pins == 0
	}
	s.mu.Unlock()
	if free {
		e.buf.free()
	}
}

// commit installs a recording unless the byte budget forbids it or a
// longer recording landed concurrently.
func (s *Store) commit(rec *obs.Recorder, key string, e *entry) {
	size := e.buf.size()
	s.mu.Lock()
	old := s.entries[key]
	if old != nil && old.epochs >= e.epochs {
		s.mu.Unlock()
		e.buf.free()
		return
	}
	freed := int64(0)
	if old != nil {
		freed = old.buf.size()
	}
	if s.bytes+size-freed > s.max {
		s.mu.Unlock()
		e.buf.free()
		return
	}
	s.entries[key] = e
	s.bytes += size - freed
	var freeOld bool
	if old != nil {
		old.dead = true
		freeOld = old.pins == 0
	}
	s.mu.Unlock()
	if freeOld {
		old.buf.free()
	}
	rec.Counter(obs.CaptureBytes).Add(uint64(size))
}

// replay decodes e into sink, stopping at the requested epoch boundary.
// It reports how much the sink consumed (references plus epoch
// boundaries) so Run can tell a clean-sink failure from a mid-stream
// one.
func (s *Store) replay(ctx context.Context, rec *obs.Recorder, e *entry, epochs int, sink trace.Consumer) (uint64, error) {
	if err := fpReplay.Inject(ctx); err != nil {
		return 0, err
	}
	lim := &epochLimit{bc: trace.AdaptConsumer(sink), limit: epochs}
	lim.ec, _ = sink.(trace.EpochConsumer)
	if _, err := trace.Replay(e.buf.reader(), lim); err != nil {
		return lim.refs + uint64(lim.delivered), err
	}
	rec.Counter(obs.CaptureHits).Inc()
	rec.Counter(obs.CaptureReplayedRefs).Add(lim.refs)
	return lim.refs + uint64(lim.delivered), nil
}

// Len reports committed recordings, and Bytes their encoded size.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports the resident encoded-trace bytes.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// recorder tees the producer's stream into the compressed trace writer
// while counting what a commit needs.
type recorder struct {
	w      *trace.Writer
	epochs int
	refs   uint64
}

func (r *recorder) Ref(t trace.Ref) {
	r.refs++
	r.w.Ref(t)
}

func (r *recorder) Refs(block []trace.Ref) {
	r.refs += uint64(len(block))
	r.w.Refs(block)
}

func (r *recorder) BeginEpoch(n int) {
	r.epochs++
	r.w.BeginEpoch(n)
}

func (r *recorder) Err() error { return r.w.Err() }

// epochLimit forwards a replayed stream until the limit-th epoch
// boundary, then drops the tail — cutting a long recording down to the
// prefix a shorter run would have produced.
type epochLimit struct {
	bc        trace.BlockConsumer
	ec        trace.EpochConsumer
	limit     int
	seen      int
	done      bool
	refs      uint64
	delivered int // epoch boundaries actually forwarded to the sink
}

func (l *epochLimit) Ref(t trace.Ref) { l.Refs([]trace.Ref{t}) }

func (l *epochLimit) Refs(block []trace.Ref) {
	if l.done {
		return
	}
	l.refs += uint64(len(block))
	l.bc.Refs(block)
}

func (l *epochLimit) BeginEpoch(n int) {
	if l.done {
		return
	}
	if l.seen == l.limit {
		l.done = true
		return
	}
	l.seen++
	if l.ec != nil {
		l.ec.BeginEpoch(n)
		l.delivered++
	}
}

// buffer accumulates encoded bytes in pooled fixed-size chunks, so
// repeated record/free cycles (suite after suite in a serving process)
// reuse the same backing memory.
type buffer struct {
	chunks [][]byte
	last   int // bytes used in the final chunk
}

const chunkSize = 64 << 10

var chunkPool = sync.Pool{
	New: func() any { return make([]byte, chunkSize) },
}

func (b *buffer) size() int64 {
	if len(b.chunks) == 0 {
		return 0
	}
	return int64(len(b.chunks)-1)*chunkSize + int64(b.last)
}

func (b *buffer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(b.chunks) == 0 || b.last == chunkSize {
			b.chunks = append(b.chunks, chunkPool.Get().([]byte))
			b.last = 0
		}
		c := copy(b.chunks[len(b.chunks)-1][b.last:], p)
		b.last += c
		p = p[c:]
	}
	return n, nil
}

func (b *buffer) free() {
	for _, c := range b.chunks {
		chunkPool.Put(c)
	}
	b.chunks = nil
	b.last = 0
}

// reader streams the buffer's contents; the buffer must not be written
// or freed while a reader is live.
func (b *buffer) reader() io.Reader { return &chunkReader{buf: b} }

type chunkReader struct {
	buf *buffer
	i   int
	off int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	for {
		if r.i >= len(r.buf.chunks) {
			return 0, io.EOF
		}
		limit := chunkSize
		if r.i == len(r.buf.chunks)-1 {
			limit = r.buf.last
		}
		if r.off < limit {
			n := copy(p, r.buf.chunks[r.i][r.off:limit])
			r.off += n
			return n, nil
		}
		r.i++
		r.off = 0
	}
}
