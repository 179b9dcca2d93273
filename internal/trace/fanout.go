package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wsstudy/internal/obs"
	"wsstudy/internal/spsc"
)

// Fanout drives several independent consumers from one kernel execution
// through a sharded worker pool. Consumers are pinned to workers by
// affinity (consumer i on worker i mod W), each worker is fed by its own
// single-producer single-consumer ring (spsc.Ring), and the producer
// publishes batches of pooled blocks — one atomic store and at most one
// wakeup per batch — instead of a channel send per block per consumer.
//
// The sharded shape wins twice over the per-consumer-goroutine design it
// replaces. On many cores, W workers drain their rings concurrently and
// the sweep scales to the slowest shard. On few cores — including
// GOMAXPROCS=1 — the win is locality: a worker drains its ring and
// delivers it member-major in small chunks (a few blocks to consumer 0,
// the same blocks to consumer 1, ..., then the next chunk), so each
// simulator's working state stays hot for thousands of references
// instead of being evicted every block by the next consumer's state,
// the chunk's reference data stays cache-resident for the re-reads, and
// the synchronization cost amortizes over the publish batch.
//
// Each consumer still observes exactly the stream Tee would have given
// it: blocks in emission order with epoch boundaries between the same
// references (boundaries travel in-band through the rings). Only the
// interleaving BETWEEN consumers changes, which is safe precisely because
// the attached consumers are independent — they share no state, so
// nothing observes cross-consumer timing. Consumers that share state must
// stay on Tee.
//
// Blocks handed to workers are copies in refcounted pooled buffers: the
// producer's buffer is only valid during a Refs call (see BlockConsumer),
// and the copy is released back to the pool by whichever worker finishes
// with it last.
//
// The producer side (Ref, Refs, BeginEpoch, Flush, Close) must be called
// from a single goroutine — the kernel's — matching every other Consumer
// in this package. Close publishes everything pending, joins the workers,
// and reports the first failure; it is idempotent, and results must not
// be read from the attached consumers until it returns.
type Fanout struct {
	workers []*fanWorker
	wg      sync.WaitGroup
	buf     []Ref    // producer-side buffer for per-Ref input
	pending []fanMsg // producer-side batch awaiting publish
	closed  bool

	mu  sync.Mutex
	err error // first worker failure (cancellation, write error, panic)

	// Stage counters and gauges, live only after Instrument.
	mBlocks    *obs.Counter
	mEpochs    *obs.Counter
	mStalls    *obs.Counter
	mPublishes *obs.Counter
	gQueue     *obs.Gauge
}

// fanWorker is one shard: a ring plus the consumers pinned to it. The
// members slice is owned by the worker goroutine after start.
type fanWorker struct {
	ring    *spsc.Ring[fanMsg]
	members []fanMember
}

// fanMember is one consumer as seen by its worker, with the interface
// assertions hoisted out of the delivery loop.
type fanMember struct {
	idx    int // position in the original consumer list, for error text
	bc     BlockConsumer
	ec     EpochConsumer
	stop   Stopper
	failed bool
}

// Metric names recorded by an instrumented Fanout.
const (
	// MetricFanoutBlocks counts blocks fanned out (one per block, however
	// many consumers receive it).
	MetricFanoutBlocks = "trace.fanout.blocks"
	// MetricFanoutEpochs counts epoch boundaries fanned out.
	MetricFanoutEpochs = "trace.fanout.epochs"
	// MetricFanoutStalls counts producer parks on a full worker ring —
	// the producer blocked on simulator backpressure.
	MetricFanoutStalls = "trace.fanout.stalls"
	// MetricFanoutPublishes counts batch handoffs: synchronization points
	// at which the producer made pending messages visible to the shards.
	// blocks+epochs divided by publishes is the realized batch size.
	MetricFanoutPublishes = "trace.fanout.publishes"
	// MetricFanoutQueueDepth gauges the deepest shard ring observed at
	// each publish (its Max is the high-water mark across the run).
	MetricFanoutQueueDepth = "trace.fanout.queue.depth"
)

// Instrument attaches stage counters from rec: blocks, epochs and batch
// handoffs fanned out, backpressure stalls, and the shard queue-depth
// gauge. Call it before producing, from the producer goroutine; a nil rec
// leaves the fanout uninstrumented, which skips all metric work in the
// hot path.
func (f *Fanout) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	f.mBlocks = rec.Counter(MetricFanoutBlocks)
	f.mEpochs = rec.Counter(MetricFanoutEpochs)
	f.mStalls = rec.Counter(MetricFanoutStalls)
	f.mPublishes = rec.Counter(MetricFanoutPublishes)
	f.gQueue = rec.Gauge(MetricFanoutQueueDepth)
}

// fanMsg is one in-band message to a shard: a shared block or an epoch
// boundary.
type fanMsg struct {
	block   *fanBlock
	epoch   int
	isEpoch bool
}

// fanBlock is a pooled copy of a block shared by all workers; the last
// worker to finish releases it.
type fanBlock struct {
	refs []Ref
	rc   atomic.Int32
}

var fanBlockPool = sync.Pool{
	New: func() any { return &fanBlock{refs: make([]Ref, 0, DefaultBlockSize)} },
}

const (
	// fanoutRing is each worker's ring capacity in messages: deep enough
	// to decouple the producer from the slowest shard across several
	// batches, shallow enough that backpressure bounds in-flight pooled
	// blocks to a few hundred KB per shard.
	fanoutRing = 64
	// fanoutBatch is how many messages the producer accumulates per
	// publish. At 512-ref blocks one publish hands over ~8K references,
	// so the two atomic ring operations and one wakeup amortize to noise
	// against the simulation cost of the batch.
	fanoutBatch = 16
	// deliverChunk is how many drained messages a worker hands each
	// member before moving to the next member. At 512-ref blocks a chunk
	// is ~50KB of reference data — small enough to stay cache-resident
	// while every member on the shard re-reads it, large enough to cut
	// member state switches several-fold relative to per-block delivery.
	deliverChunk = 4
)

// NewFanout starts a sharded fanout: min(GOMAXPROCS, len(consumers))
// shard goroutines, each with its own ring, with consumer i pinned to
// worker i mod workers. At least one non-nil consumer is required.
func NewFanout(consumers ...Consumer) (*Fanout, error) {
	if len(consumers) == 0 {
		return nil, fmt.Errorf("%w: fanout needs at least one consumer", ErrInvalidConfig)
	}
	for i, c := range consumers {
		if c == nil {
			return nil, fmt.Errorf("%w: fanout consumer %d is nil", ErrInvalidConfig, i)
		}
	}
	w := min(runtime.GOMAXPROCS(0), len(consumers))

	f := &Fanout{
		workers: make([]*fanWorker, w),
		buf:     make([]Ref, 0, DefaultBlockSize),
		pending: make([]fanMsg, 0, fanoutBatch),
	}
	for i := range f.workers {
		r, err := spsc.New[fanMsg](fanoutRing)
		if err != nil {
			return nil, fmt.Errorf("%w: fanout ring: %v", ErrInvalidConfig, err)
		}
		f.workers[i] = &fanWorker{ring: r}
	}
	for i, c := range consumers {
		ec, _ := c.(EpochConsumer)
		stop, _ := c.(Stopper)
		w := f.workers[i%len(f.workers)]
		w.members = append(w.members, fanMember{
			idx: i, bc: AdaptConsumer(c), ec: ec, stop: stop,
		})
	}
	for _, w := range f.workers {
		f.wg.Add(1)
		go f.run(w)
	}
	return f, nil
}

// run drains one shard's ring. Each drained batch is delivered
// member-major in chunks of deliverChunk messages — a few blocks to one
// member, the same blocks to the next, then the following chunk — so a
// member's simulator state stays hot across several blocks while the
// chunk's reference data (a few tens of KB) stays resident for the
// members' re-reads. Delivering the entire drain member-major instead
// measures slower: a full ring of blocks re-streamed per member evicts
// more than the amortized state switches save. After a member fails
// (stop request, panic) that member stops receiving but the shard keeps
// draining, so the producer and the healthy members never block on the
// failure; the first failure is reported by Close and surfaces early
// through Err.
func (f *Fanout) run(w *fanWorker) {
	defer f.wg.Done()
	batch := make([]fanMsg, w.ring.Cap())
	for {
		n, open := w.ring.Recv(batch)
		msgs := batch[:n]
		for lo := 0; lo < n; lo += deliverChunk {
			hi := lo + deliverChunk
			if hi > n {
				hi = n
			}
			chunk := msgs[lo:hi]
			for mi := range w.members {
				m := &w.members[mi]
				if m.failed {
					continue
				}
				if err := f.deliver(m, chunk); err != nil {
					f.fail(err)
					m.failed = true
				}
			}
		}
		for _, msg := range msgs {
			if msg.block != nil {
				msg.block.release()
			}
		}
		if !open {
			return
		}
	}
}

// deliver hands a drained batch to one member in order, converting a
// panic into an error so a broken simulator cannot crash the process from
// a goroutine no caller can recover around.
func (f *Fanout) deliver(m *fanMember, msgs []fanMsg) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trace: fanout consumer %d panicked: %v", m.idx, p)
		}
	}()
	for _, msg := range msgs {
		if msg.isEpoch {
			if m.ec != nil {
				m.ec.BeginEpoch(msg.epoch)
			}
		} else {
			m.bc.Refs(msg.block.refs)
		}
		if m.stop != nil {
			if err := m.stop.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// release returns the block to the pool once every worker is done with it.
func (b *fanBlock) release() {
	if b.rc.Add(-1) == 0 {
		b.refs = b.refs[:0]
		fanBlockPool.Put(b)
	}
}

// fail records the first worker failure.
func (f *Fanout) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// enqueue appends one message to the pending batch, publishing at the
// batch boundary.
func (f *Fanout) enqueue(msg fanMsg) {
	f.pending = append(f.pending, msg)
	if len(f.pending) >= fanoutBatch {
		f.publish()
	}
}

// publish makes the pending batch visible to every shard: one ring send
// per worker, however many messages accumulated.
func (f *Fanout) publish() {
	if len(f.pending) == 0 {
		return
	}
	for _, w := range f.workers {
		if stalls := w.ring.Send(f.pending); stalls > 0 && f.mStalls != nil {
			f.mStalls.Add(uint64(stalls))
		}
	}
	f.mPublishes.Inc()
	if f.gQueue != nil {
		depth := 0
		for _, w := range f.workers {
			if d := w.ring.Len(); d > depth {
				depth = d
			}
		}
		f.gQueue.Set(int64(depth))
	}
	f.pending = f.pending[:0]
}

// Ref buffers one reference, forming a block when the buffer fills.
func (f *Fanout) Ref(r Ref) {
	f.buf = append(f.buf, r)
	if len(f.buf) == cap(f.buf) {
		f.flushBuf()
	}
}

// Refs fans a block out to every shard. Pending per-Ref input is flushed
// first so order is preserved.
func (f *Fanout) Refs(block []Ref) {
	f.flushBuf()
	f.sendBlock(block)
}

func (f *Fanout) sendBlock(block []Ref) {
	if len(block) == 0 || f.closed {
		return
	}
	fb := fanBlockPool.Get().(*fanBlock)
	fb.refs = append(fb.refs[:0], block...)
	fb.rc.Store(int32(len(f.workers)))
	f.enqueue(fanMsg{block: fb})
	f.mBlocks.Inc()
}

// BeginEpoch flushes pending references and places the boundary in-band,
// so every consumer sees it between the same two references.
func (f *Fanout) BeginEpoch(n int) {
	f.flushBuf()
	if f.closed {
		return
	}
	f.enqueue(fanMsg{epoch: n, isEpoch: true})
	f.mEpochs.Inc()
}

// flushBuf forms the pending per-Ref input into a block (without forcing
// a publish — the block rides the current batch).
func (f *Fanout) flushBuf() {
	if len(f.buf) > 0 {
		block := f.buf
		f.buf = f.buf[:0]
		f.sendBlock(block)
	}
}

// Flush forms the pending per-Ref input into a block and publishes the
// current batch, making everything emitted so far visible to the shards.
func (f *Fanout) Flush() {
	f.flushBuf()
	if !f.closed {
		f.publish()
	}
}

// Err reports the first worker failure so far, so kernels polling Canceled
// stop emitting soon after any attached consumer stops or breaks.
func (f *Fanout) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Close publishes everything pending, stops the shards, waits for them to
// finish, and returns the first failure. It is idempotent, and it is the
// barrier: only after Close returns may results be read from the attached
// consumers.
func (f *Fanout) Close() error {
	if !f.closed {
		f.flushBuf()
		f.publish()
		f.closed = true
		for _, w := range f.workers {
			w.ring.Close()
		}
		f.wg.Wait()
	}
	return f.Err()
}

var (
	_ BlockConsumer = (*Fanout)(nil)
	_ EpochConsumer = (*Fanout)(nil)
	_ Stopper       = (*Fanout)(nil)
)
