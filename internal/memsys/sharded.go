package memsys

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wsstudy/internal/cache"
	"wsstudy/internal/coherence"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/spsc"
	"wsstudy/internal/trace"
)

// Failpoints at the sharded engine's seams. memsys.shard.publish fires in
// the driver each time an op block is published to the worker rings;
// memsys.barrier fires at the head of every drain barrier (epoch
// boundaries and statistics reads). Neither ever skips the work it guards
// — an injected error poisons the run (recorded once, surfaced through
// Err and Close) while the block is still published and the barrier still
// completes, so the simulated state never diverges and the pipeline never
// wedges. Delay mode stalls the driver, exercising ring backpressure.
var (
	fpPublish = fault.New("memsys.shard.publish")
	fpBarrier = fault.New("memsys.barrier")
)

// Metric names recorded by an instrumented Sharded engine, alongside the
// serial System's. Counters are exact and deterministic; the queue-depth
// gauge is timing-dependent (it samples ring occupancy) and is therefore
// excluded from every determinism claim.
const (
	// MetricShardBlocks counts op blocks published to the shard pipeline.
	MetricShardBlocks = "memsys.shard.blocks"
	// MetricShardOps counts line-granular operations routed to directory
	// shards.
	MetricShardOps = "memsys.shard.ops"
	// MetricShardInvals counts cross-shard invalidation messages carried
	// from directory shards to cache workers through block mailboxes.
	MetricShardInvals = "memsys.shard.invals"
	// MetricShardStalls counts ring-full producer stalls across all rings.
	MetricShardStalls = "memsys.shard.stalls"
	// MetricBarriers counts drain barriers (epoch flips + stat reads).
	MetricBarriers = "memsys.barriers"
	// MetricShardQueueDepth samples ring occupancy at publish time; its
	// Max is the high-water mark. Timing-dependent, not deterministic.
	MetricShardQueueDepth = "memsys.shard.queue.depth"
)

const (
	// shardBlockSeqs is how many line-granular operations one op block
	// carries before the driver publishes it.
	shardBlockSeqs = 2048
	// shardRingCap bounds in-flight blocks per worker ring.
	shardRingCap = 8
)

// shardDirOp is one directory transaction routed to its owning shard.
type shardDirOp struct {
	line uint64
	seq  int32 // position in the block's global operation order
	pe   int32
	read bool
}

// shardEvent is one cache-worker event: the issuing PE's own access, or an
// invalidation message captured from a directory shard. Events are applied
// in (seq, pe) order, which provably reproduces the serial interleaving:
// one operation yields either an access for its issuer or invalidations
// for other PEs — never both for the same PE — so (seq, pe) is unique per
// target and totally orders each PE's event stream exactly as the serial
// engine would.
type shardEvent struct {
	addr uint64
	seq  int32
	pe   int32
	kind uint8
}

const (
	evRead uint8 = iota
	evWrite
	evInval
)

// opBlock is one pooled unit of pipeline work: per-directory-shard op
// lists, per-cache-worker access lists, and per-directory-shard
// invalidation mailboxes (written by shard w during phase one, read by
// cache workers in phase two; the dirDone WaitGroup is the happens-before
// edge between the phases). The last worker to release a block returns it
// to the engine's pool and closes the attached barrier, if any.
type opBlock struct {
	dirOps    [][]shardDirOp // len W, indexed by directory shard
	accOps    [][]shardEvent // len V, indexed by cache worker
	invals    [][]shardEvent // len W mailboxes, one writer each
	n         int32          // operations recorded (next seq)
	measuring bool           // snapshot; constant across a block by the barrier rule
	dirDone   sync.WaitGroup // counts down as directory shards finish phase one
	rc        atomic.Int32
	done      chan struct{} // non-nil on a drain barrier block
}

func (b *opBlock) reset() {
	for i := range b.dirOps {
		b.dirOps[i] = b.dirOps[i][:0]
	}
	for i := range b.accOps {
		b.accOps[i] = b.accOps[i][:0]
	}
	for i := range b.invals {
		b.invals[i] = b.invals[i][:0]
	}
	b.n = 0
}

// capInval is the per-(shard, PE) invalidation capturer: directory shard
// workers deliver invalidations through it instead of touching caches, and
// it records them — with the op's seq and the target PE — into the owning
// shard's mailbox slot of the current block. Only PEs with a cache,
// profiler or probe get a capturer, mirroring the serial engine's nil
// invalidator slots exactly (the directory counts invalidations
// regardless).
type capInval struct {
	w  *dirWorker
	pe int32
}

func (c *capInval) Invalidate(addr uint64) {
	c.w.cur.invals[c.w.id] = append(c.w.cur.invals[c.w.id], shardEvent{
		addr: addr, seq: c.w.seq, pe: c.pe, kind: evInval,
	})
}

// dirWorker owns one directory shard: a ring of blocks plus the capture
// cursor (cur, seq) its capInvals read during phase one.
type dirWorker struct {
	id   int
	ring *spsc.Ring[*opBlock]
	cur  *opBlock
	seq  int32
}

// cacheWorker owns the caches, profilers and probes of the PEs mapped to
// it (pe % V) and accumulates their measured miss classification in
// stats, of which pub is the part already published.
type cacheWorker struct {
	id      int
	ring    *spsc.Ring[*opBlock]
	scratch []shardEvent
	stats   Stats
	pub     Stats
	_       [4]uint64 // keep workers off each other's cache line
}

// Sharded is the region-partitioned engine: the driver (the goroutine
// feeding the trace) expands references into line-granular operations,
// routes each to the directory shard owning its line, and mirrors the
// issuer's access to the cache worker owning its PE. Directory shards
// apply transactions and capture invalidations into per-block mailboxes;
// cache workers wait for the block's directory phase, merge their PEs'
// accesses with the invalidations addressed to them in (seq, pe) order,
// and apply them. Every statistic is bit-identical to the serial System's
// (the equivalence and property suites prove it); only wall-clock
// behaviour changes with Shards.
//
// The producer side (Ref, Refs, BeginEpoch, statistics reads, Close) must
// be called from a single goroutine, the same contract as the serial
// engine's.
type Sharded struct {
	cfg   Config
	shift uint

	dir   *coherence.ShardedDirectory
	units units

	dirWorkers   []*dirWorker
	cacheWorkers []*cacheWorker
	wg           sync.WaitGroup

	pool   sync.Pool
	cur    *opBlock
	closed bool

	epoch     int
	measuring bool

	err  atomic.Pointer[error]
	ictx atomic.Pointer[context.Context]

	// Run-scope counters, live only after Instrument; nil-safe.
	mLocal      *obs.Counter
	mRemote     *obs.Counter
	mBlocks     *obs.Counter
	mOps        *obs.Counter
	mInvals     *obs.Counter
	mStalls     *obs.Counter
	mBarriers   *obs.Counter
	mQueueDepth *obs.Gauge
}

// newSharded builds the sharded engine; cfg is already normalized and
// cfg.Shards is positive. Cache workers number min(Shards, PEs-with-units)
// — more would idle, since a PE's events are pinned to one worker. Probes
// count as units, so a probe-only machine still gets a cache worker.
func newSharded(cfg Config) (*Sharded, error) {
	s := &Sharded{
		cfg:       cfg,
		shift:     uint(bits.TrailingZeros32(cfg.LineSize)),
		measuring: cfg.WarmupEpochs == 0,
	}
	bg := context.Background()
	s.ictx.Store(&bg)

	var err error
	s.units, err = buildPEs(cfg, s.measuring)
	if err != nil {
		return nil, err
	}
	attached := 0
	for _, inv := range s.units.inv {
		if inv != nil {
			attached++
		}
	}

	w := cfg.Shards
	v := min(w, attached)

	s.dirWorkers = make([]*dirWorker, w)
	for i := range s.dirWorkers {
		ring, rerr := spsc.New[*opBlock](shardRingCap)
		if rerr != nil {
			return nil, fmt.Errorf("%w: shard ring: %v", ErrInvalidConfig, rerr)
		}
		s.dirWorkers[i] = &dirWorker{id: i, ring: ring}
	}
	s.dir, err = coherence.NewShardedDirectory(cfg.PEs, cfg.LineSize, w, func(shard int) []coherence.Invalidator {
		inv := make([]coherence.Invalidator, cfg.PEs)
		for pe := range inv {
			if s.units.inv[pe] != nil {
				inv[pe] = &capInval{w: s.dirWorkers[shard], pe: int32(pe)}
			}
		}
		return inv
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}

	s.cacheWorkers = make([]*cacheWorker, v)
	for i := range s.cacheWorkers {
		ring, rerr := spsc.New[*opBlock](shardRingCap)
		if rerr != nil {
			return nil, fmt.Errorf("%w: cache ring: %v", ErrInvalidConfig, rerr)
		}
		s.cacheWorkers[i] = &cacheWorker{id: i, ring: ring}
	}

	s.pool.New = func() any {
		b := &opBlock{
			dirOps: make([][]shardDirOp, w),
			accOps: make([][]shardEvent, v),
			invals: make([][]shardEvent, w),
		}
		return b
	}

	for _, dw := range s.dirWorkers {
		s.wg.Add(1)
		go s.runDir(dw)
	}
	for _, cw := range s.cacheWorkers {
		s.wg.Add(1)
		go s.runCache(cw)
	}
	return s, nil
}

// fail records the run's first error; later ones are dropped. Workers keep
// applying their work after a failure so the pipeline always terminates
// and the simulated state never forks from the serial engine's.
func (s *Sharded) fail(err error) {
	if err == nil {
		return
	}
	s.err.CompareAndSwap(nil, &err)
}

// Err reports why the trace should stop, or nil; it makes the engine a
// trace.Stopper, so kernels polling trace.Canceled abort within one loop
// body of an injected failure.
func (s *Sharded) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Sharded) injectCtx() context.Context { return *s.ictx.Load() }

// runDir is phase one: apply this shard's transactions in block order,
// capturing invalidations into the block's mailbox, then signal dirDone
// and publish the shard's counters.
func (s *Sharded) runDir(w *dirWorker) {
	defer s.wg.Done()
	batch := make([]*opBlock, w.ring.Cap())
	shard := s.dir.Shard(w.id)
	for {
		n, open := w.ring.Recv(batch)
		for _, blk := range batch[:n] {
			s.fail(s.dir.CheckApply(s.injectCtx()))
			w.cur = blk
			for _, op := range blk.dirOps[w.id] {
				w.seq = op.seq
				if op.read {
					shard.ReadLine(int(op.pe), op.line)
				} else {
					shard.WriteLine(int(op.pe), op.line)
				}
			}
			s.mInvals.Add(uint64(len(blk.invals[w.id])))
			w.cur = nil
			blk.dirDone.Done()
			shard.Publish()
			blk.release(s)
		}
		if !open {
			return
		}
	}
}

// runCache is phase two: once a block's directory phase is complete, merge
// this worker's accesses with the invalidations addressed to its PEs in
// (seq, pe) order, apply them to the units it owns, and publish the
// worker's miss classification.
func (s *Sharded) runCache(w *cacheWorker) {
	defer s.wg.Done()
	batch := make([]*opBlock, w.ring.Cap())
	v := len(s.cacheWorkers)
	for {
		n, open := w.ring.Recv(batch)
		for _, blk := range batch[:n] {
			blk.dirDone.Wait()
			ev := w.scratch[:0]
			ev = append(ev, blk.accOps[w.id]...)
			for _, mail := range blk.invals {
				for _, e := range mail {
					if int(e.pe)%v == w.id {
						ev = append(ev, e)
					}
				}
			}
			sort.Slice(ev, func(i, j int) bool {
				if ev[i].seq != ev[j].seq {
					return ev[i].seq < ev[j].seq
				}
				return ev[i].pe < ev[j].pe
			})
			for _, e := range ev {
				if e.kind == evInval {
					s.units.inv[e.pe].Invalidate(e.addr)
					continue
				}
				miss := s.units.access(int(e.pe), e.addr, e.kind == evRead)
				if miss && blk.measuring {
					if homeOf(&s.cfg, s.shift, e.addr) == int(e.pe) {
						w.stats.LocalMisses++
					} else {
						w.stats.RemoteMisses++
					}
				}
			}
			w.scratch = ev[:0]
			w.stats.publish(&w.pub, s.mLocal, s.mRemote)
			blk.release(s)
		}
		if !open {
			return
		}
	}
}

// release returns the block to the pool once every worker is done with it,
// closing the attached barrier if this was a drain block.
func (b *opBlock) release(s *Sharded) {
	if b.rc.Add(-1) == 0 {
		done := b.done
		b.done = nil
		b.reset()
		s.pool.Put(b)
		if done != nil {
			close(done)
		}
	}
}

// record routes one line-granular operation, publishing the block when it
// fills.
func (s *Sharded) record(pe int, line uint64, read bool) {
	blk := s.cur
	if blk == nil {
		blk = s.pool.Get().(*opBlock)
		s.cur = blk
	}
	seq := blk.n
	blk.n++
	w := s.dir.ShardOf(line)
	blk.dirOps[w] = append(blk.dirOps[w], shardDirOp{line: line, seq: seq, pe: int32(pe), read: read})
	if s.units.inv[pe] != nil {
		kind := evWrite
		if read {
			kind = evRead
		}
		v := pe % len(s.cacheWorkers)
		blk.accOps[v] = append(blk.accOps[v], shardEvent{
			addr: line << s.shift, seq: seq, pe: int32(pe), kind: kind,
		})
	}
	if blk.n == shardBlockSeqs {
		s.publish(nil)
	}
}

// publish hands the current block to every directory shard and cache
// worker. The driver is the sole producer on all rings (the SPSC
// contract); directory shards never publish, which is what keeps block
// order identical on every ring.
func (s *Sharded) publish(done chan struct{}) {
	s.fail(fpPublish.Inject(s.injectCtx()))
	blk := s.cur
	s.cur = nil
	if blk == nil {
		if done == nil {
			return
		}
		blk = s.pool.Get().(*opBlock)
	}
	blk.measuring = s.measuring
	blk.done = done
	blk.dirDone.Add(len(s.dirWorkers))
	blk.rc.Store(int32(len(s.dirWorkers) + len(s.cacheWorkers)))
	s.mBlocks.Inc()
	s.mOps.Add(uint64(blk.n))
	one := [1]*opBlock{blk}
	stalls := 0
	depth := 0
	for _, dw := range s.dirWorkers {
		stalls += dw.ring.Send(one[:])
		if d := dw.ring.Len(); d > depth {
			depth = d
		}
	}
	for _, cw := range s.cacheWorkers {
		stalls += cw.ring.Send(one[:])
		if d := cw.ring.Len(); d > depth {
			depth = d
		}
	}
	s.mStalls.Add(uint64(stalls))
	s.mQueueDepth.Set(int64(depth))
}

// drain publishes everything pending plus a barrier block and waits until
// every worker has fully processed it. On return the pipeline is empty and
// every worker-side write is visible to the driver (the barrier channel
// close is the happens-before edge), so statistics reads and epoch flips
// see a consistent quiescent machine. The workers have published their
// counters by then; drain publishes the units' — the profilers' accesses
// and the caches' and probes' evictions — which no block-end publish
// walks.
func (s *Sharded) drain() {
	if s.closed {
		return
	}
	s.fail(fpBarrier.Inject(s.injectCtx()))
	s.mBarriers.Inc()
	done := make(chan struct{})
	s.publish(done)
	<-done
	s.units.publish()
}

// Ref consumes one reference.
func (s *Sharded) Ref(r trace.Ref) {
	if r.Size == 0 || s.closed {
		return
	}
	s.refOne(r)
}

// Refs consumes a block of references in emission order.
func (s *Sharded) Refs(block []trace.Ref) {
	if s.closed {
		return
	}
	for i := range block {
		if block[i].Size == 0 {
			continue
		}
		s.refOne(block[i])
	}
}

func (s *Sharded) refOne(r trace.Ref) {
	read := r.Kind == trace.Read
	first := r.Addr >> s.shift
	last := (r.Addr + uint64(r.Size) - 1) >> s.shift
	for line := first; ; line++ {
		s.record(r.PE, line, read)
		if line == last {
			break
		}
	}
}

// BeginEpoch advances the epoch counter; when measurement flips it drains
// the pipeline first, so the flip lands between exactly the same two
// references as on the serial engine, then applies the serial engine's
// flip verbatim against the quiescent machine.
func (s *Sharded) BeginEpoch(n int) {
	s.epoch = n
	on := n >= s.cfg.WarmupEpochs
	if on == s.measuring {
		return
	}
	s.drain()
	s.measuring = on
	s.units.setMeasuring(on)
	if on {
		s.dir.ResetStats()
		for _, cw := range s.cacheWorkers {
			cw.stats.publish(&cw.pub, s.mLocal, s.mRemote)
			cw.stats, cw.pub = Stats{}, Stats{}
		}
	}
}

// Instrument attaches run-scope counters from rec to the engine, its
// directory shards, and every cache, profiler and probe. It also rebinds the
// failpoint-injection context so fault-trigger counters land on rec. Call
// it before feeding references, from the driver goroutine.
//
// As on the serial engine, nothing on the per-line path touches a
// counter. Each directory shard's worker publishes the shard's
// transactions, and each cache worker its miss classification, at the end
// of every block; the profilers' accesses and the caches' and probes'
// evictions are published at every drain barrier (the warm-up flip, a
// statistics read, Close).
func (s *Sharded) Instrument(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	ictx := obs.With(context.Background(), rec)
	s.ictx.Store(&ictx)
	s.mLocal = rec.Counter(MetricLocalMisses)
	s.mRemote = rec.Counter(MetricRemoteMisses)
	s.mBlocks = rec.Counter(MetricShardBlocks)
	s.mOps = rec.Counter(MetricShardOps)
	s.mInvals = rec.Counter(MetricShardInvals)
	s.mStalls = rec.Counter(MetricShardStalls)
	s.mBarriers = rec.Counter(MetricBarriers)
	s.mQueueDepth = rec.Gauge(MetricShardQueueDepth)
	s.dir.Instrument(rec)
	s.units.instrument(rec)
}

// Home reports the processor whose local memory holds addr.
func (s *Sharded) Home(addr uint64) int { return homeOf(&s.cfg, s.shift, addr) }

// Measuring reports whether statistics are currently collected.
func (s *Sharded) Measuring() bool { return s.measuring }

// Profiler drains the pipeline and returns pe's profiler, or nil.
func (s *Sharded) Profiler(pe int) cache.Profiler {
	if s.units.profilers == nil {
		return nil
	}
	s.drain()
	return s.units.profilers[pe]
}

// Cache drains the pipeline and returns pe's concrete cache (nil in
// profile mode).
func (s *Sharded) Cache(pe int) cache.Cache {
	if s.units.caches == nil {
		return nil
	}
	s.drain()
	return s.units.caches[pe]
}

// CacheStats drains the pipeline and aggregates all concrete cache stats.
func (s *Sharded) CacheStats() cache.Stats {
	s.drain()
	var total cache.Stats
	for _, c := range s.units.caches {
		total.Add(c.Stats())
	}
	return total
}

// DirectoryStats drains the pipeline and aggregates the protocol
// statistics across every directory shard (a consistent post-barrier
// snapshot).
func (s *Sharded) DirectoryStats() coherence.Stats {
	s.drain()
	return s.dir.Stats()
}

// Stats drains the pipeline and returns the local/remote miss
// classification (summed across cache workers; uint64 sums are
// order-independent, so the totals are bit-identical to the serial
// engine's).
func (s *Sharded) Stats() Stats {
	s.drain()
	var total Stats
	for _, cw := range s.cacheWorkers {
		total.LocalMisses += cw.stats.LocalMisses
		total.RemoteMisses += cw.stats.RemoteMisses
	}
	return total
}

// PEs reports the processor count.
func (s *Sharded) PEs() int { return s.cfg.PEs }

// LineSize reports the configured line size.
func (s *Sharded) LineSize() uint32 { return s.cfg.LineSize }

// Shards reports the directory shard count W.
func (s *Sharded) Shards() int { return s.dir.Shards() }

// Close drains the pipeline, stops every worker, and reports the first
// error the run recorded (nil normally). It is idempotent; references
// consumed after Close are dropped.
func (s *Sharded) Close() error {
	if !s.closed {
		s.drain()
		s.closed = true
		for _, dw := range s.dirWorkers {
			dw.ring.Close()
		}
		for _, cw := range s.cacheWorkers {
			cw.ring.Close()
		}
		s.wg.Wait()
	}
	return s.Err()
}

// DefaultShards is the directory shard count experiments open the sharded
// engine with: enough to engage the pipeline without oversubscribing
// small hosts.
func DefaultShards() int {
	w := runtime.GOMAXPROCS(0) / 2
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	return w
}

var _ Machine = (*Sharded)(nil)
var _ trace.Stopper = (*Sharded)(nil)
