// Package store is the content-addressed experiment-result store that
// turns the deterministic simulator into a servable function: a result
// is identified by the SHA-256 of (experiment id, report schema
// version, canonical Options encoding), identical requests never
// recompute — concurrent ones coalesce onto a single in-flight run
// (singleflight), repeated ones hit the in-memory LRU or the optional
// on-disk rendering — and computation is bounded by a fixed number of
// compute slots with a bounded wait queue, so overload surfaces as
// ErrBusy instead of unbounded goroutine pile-up.
//
// The store leans on two properties proved elsewhere in this repo:
// experiments are pure functions of their configuration (the PR 2
// equivalence gate shows bit-identical statistics across delivery
// paths), and core.Options has a canonical, fingerprintable encoding.
// Together they make the key a true content address: equal key, equal
// statistics.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wsstudy/internal/breaker"
	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
)

// The store's failpoints sit at its three failure seams: reading a
// persisted rendering (error mode = an unreadable disk, corrupt mode =
// a damaged file that must quarantine), writing one (error mode = a
// full or read-only disk), and the computation itself (error mode fails
// the flight; arm a Transient err to exercise the compute retry).
var (
	fpDiskLoad = fault.New("store.disk.load")
	fpDiskSave = fault.New("store.disk.save")
	fpCompute  = fault.New("store.compute")
)

// Key is a result's content address: SHA-256 over the experiment id,
// the frozen report schema version, and the canonical Options encoding.
type Key [sha256.Size]byte

// KeyFor derives the content address of (experiment id, options).
// The derivation itself lives in core.ResultKey so the suite checkpoint
// journal keys cells identically; see its doc for the invariants.
func KeyFor(id string, opt core.Options) Key {
	return Key(core.ResultKey(id, opt))
}

// String is the lower-case hex form of the key (64 chars).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Result is one stored experiment outcome: the report itself plus its
// rendered v1 JSON, which is the byte-accounted, persisted form and
// exactly what the HTTP layer serves for JSON requests.
type Result struct {
	Key    Key
	ID     string // experiment id
	Report *core.Report
	JSON   []byte // Report rendered as FormatJSON (ReportV1)
}

// ErrBusy reports that every compute slot is occupied and the wait
// queue is full; the caller should shed load (the HTTP layer maps it to
// 429 with Retry-After) and retry.
var ErrBusy = errors.New("store: compute slots saturated")

// FillFunc is a fill-without-compute hook: given a key about to be
// computed, it may produce the finished Result from somewhere cheaper
// than running the experiment (the cluster layer fetches it from the
// key's ring owner). A true return short-circuits the compute — the
// result is persisted and cached exactly as a computed one would be; a
// false return falls through to core.Execute. The hook must only
// return results that already passed DecodeResult-grade validation:
// whatever it returns is served verbatim.
type FillFunc func(ctx context.Context, key Key, e core.Experiment, opt core.Options) (*Result, bool)

// ErrClosed reports a lookup against a store that has been Closed.
var ErrClosed = errors.New("store: closed")

// Config tunes a Store. The zero value is usable: 128 entries, 64 MiB,
// 2 compute slots (mirroring the suite runner's default worker count),
// a 4x slot wait queue, no disk persistence, no recorder.
type Config struct {
	// MaxEntries bounds the in-memory LRU entry count (0 = 128).
	MaxEntries int
	// MaxBytes bounds resident rendered-JSON bytes (0 = 64 MiB). The
	// most recently inserted entry is always retained, so one oversized
	// report does not wedge the store.
	MaxBytes int64
	// Slots bounds concurrent experiment computations, the same role
	// SuiteOptions.Workers plays for the batch runner (0 = 2).
	Slots int
	// MaxQueue bounds computations waiting for a free slot before new
	// ones are rejected with ErrBusy. 0 means 4x Slots; negative means
	// no waiting at all (saturated slots reject immediately).
	MaxQueue int
	// Dir, when non-empty, persists each result's rendered JSON as
	// <Dir>/<key>.json and revives it on a memory miss, so a restarted
	// server never recomputes what a previous process already ran.
	Dir string
	// Recorder receives the store's instrumentation (hit/miss/
	// coalesced/eviction counters, queue-depth and resident-bytes
	// gauges, compute-wall histogram) and is attached to every
	// computation's context, so experiment-level metrics fold into it
	// too. Nil disables instrumentation at the usual nil-handle cost.
	Recorder *obs.Recorder
	// ComputeRetries is how many extra attempts a retryably classified
	// compute failure gets under core.RetryPolicy before the flight
	// fails (0 = 1 extra attempt; negative = none).
	ComputeRetries int
	// ProbeInterval is how long degraded disk persistence is bypassed
	// before the next operation probes it again (0 = 30s).
	ProbeInterval time.Duration
}

// Store is a content-addressed cache in front of core.Execute. Safe for
// concurrent use.
type Store struct {
	cfg   Config
	slots chan struct{}

	// base is the computations' root context: detached from any single
	// request (so a coalesced computation survives its leader's client
	// disconnecting) and cancelled by Close to stop stragglers.
	base   context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	peerFill FillFunc
	entries  map[Key]*lruEntry
	head     *lruEntry // most recently used
	tail     *lruEntry // least recently used
	count    int
	bytes    int64
	flights  map[Key]*flight
	waiters  int
	inflight sync.WaitGroup

	// disk guards the optional persistence cache; nil means it is not
	// configured.
	disk *breaker.Breaker

	hits, misses, coalesced, evictions, diskHits *obs.Counter
	queueDepth, bytesGauge                       *obs.Gauge
	computeWall                                  *obs.Histogram
}

// lruEntry is a node of the intrusive LRU list.
type lruEntry struct {
	key        Key
	res        *Result
	size       int64
	prev, next *lruEntry
}

// flight is one in-progress computation that concurrent identical
// requests wait on.
type flight struct {
	done chan struct{} // closed when res/err are final
	res  *Result
	err  error
}

// New builds a Store. A non-empty Config.Dir is created if missing.
func New(cfg Config) (*Store, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 128
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.Slots
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating persistence dir: %w", err)
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 30 * time.Second
	}
	base, cancel := context.WithCancel(context.Background())
	rec := cfg.Recorder
	var disk *breaker.Breaker
	if cfg.Dir != "" {
		disk = breaker.New(cfg.ProbeInterval, rec.Counter(obs.StoreDegraded))
	}
	return &Store{
		cfg:         cfg,
		slots:       make(chan struct{}, cfg.Slots),
		base:        obs.With(base, rec),
		cancel:      cancel,
		entries:     make(map[Key]*lruEntry),
		flights:     make(map[Key]*flight),
		disk:        disk,
		hits:        rec.Counter(obs.StoreHits),
		misses:      rec.Counter(obs.StoreMisses),
		coalesced:   rec.Counter(obs.StoreCoalesced),
		evictions:   rec.Counter(obs.StoreEvictions),
		diskHits:    rec.Counter(obs.StoreDiskHits),
		queueDepth:  rec.Gauge(obs.StoreQueueDepth),
		bytesGauge:  rec.Gauge(obs.StoreBytes),
		computeWall: rec.Histogram(obs.StoreComputeWall),
	}, nil
}

// Get returns the result for (e, opt), computing it at most once no
// matter how many goroutines ask concurrently. The fast path is a
// mutex-guarded map lookup; a miss either joins the key's in-flight
// computation or becomes its leader — acquiring a compute slot (waiting
// in a bounded queue, ErrBusy beyond it), consulting the persisted
// rendering if Dir is set, and finally running core.Execute.
//
// ctx bounds this caller's wait only: a follower whose ctx expires
// leaves the flight (ctx.Err()) while the computation itself keeps
// running under the store's root context, bounded by opt.Timeout — so
// one impatient client can never kill a result that others (or a
// retry) are about to reuse. Errors are not cached; the flight's
// followers share the leader's error and the next request retries.
func (s *Store) Get(ctx context.Context, e core.Experiment, opt core.Options) (*Result, error) {
	key := KeyFor(e.ID, opt)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if ent, ok := s.entries[key]; ok {
		s.moveToFrontLocked(ent)
		res := ent.res
		s.mu.Unlock()
		s.hits.Inc()
		return res, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Inc()
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.inflight.Add(1)
	s.mu.Unlock()
	s.misses.Inc()

	f.res, f.err = s.compute(ctx, key, e, opt)

	s.mu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		s.insertLocked(key, f.res)
	}
	s.mu.Unlock()
	close(f.done)
	s.inflight.Done()
	return f.res, f.err
}

// Slots reports the store's compute-slot count, so front ends can size
// their fan-out to what the store will actually run in parallel.
func (s *Store) Slots() int { return s.cfg.Slots }

// SetPeerFill installs (or clears, with nil) the fill-without-compute
// hook consulted by flight leaders after the disk probe and before
// core.Execute. It is set after construction because the hook's owner
// (the cluster layer) is itself built around the store.
func (s *Store) SetPeerFill(f FillFunc) {
	s.mu.Lock()
	s.peerFill = f
	s.mu.Unlock()
}

// Load reports the compute pool's instantaneous occupancy: slots in
// use, leaders waiting for a slot, and the slot capacity. The
// precompute crawler uses it to confine warming to idle capacity.
func (s *Store) Load() (inUse, waiting, slots int) {
	s.mu.Lock()
	waiting = s.waiters
	s.mu.Unlock()
	return len(s.slots), waiting, s.cfg.Slots
}

// Cached reports whether key is resident in memory without touching
// LRU order, flights, or counters.
func (s *Store) Cached(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Peek revives a result for key without computing: from memory (bumps
// LRU and the hit counter) or from a schema-valid persisted rendering
// (counted as a disk hit and inserted into memory). It never takes a
// compute slot and never runs the experiment — the sweep scheduler uses
// it to revive content-addressed partials cheaply before deciding which
// cells still need compute. A false return means only that revival
// would require computing, not that the key is invalid.
func (s *Store) Peek(key Key, id string) (*Result, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	if ent, ok := s.entries[key]; ok {
		s.moveToFrontLocked(ent)
		res := ent.res
		s.mu.Unlock()
		s.hits.Inc()
		return res, true
	}
	s.mu.Unlock()

	res, ok := s.loadDisk(key, id)
	if !ok {
		return nil, false
	}
	s.diskHits.Inc()
	s.mu.Lock()
	if !s.closed {
		if _, dup := s.entries[key]; !dup {
			s.insertLocked(key, res)
		}
	}
	s.mu.Unlock()
	return res, true
}

// Len and Bytes report the resident entry count and rendered-byte total.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Bytes reports resident rendered-JSON bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// compute is the flight leader's path: slot acquisition with bounded
// queueing, the disk probe, and the experiment run itself.
func (s *Store) compute(ctx context.Context, key Key, e core.Experiment, opt core.Options) (*Result, error) {
	select {
	case s.slots <- struct{}{}:
	default:
		// All slots busy: join the bounded wait queue or shed.
		s.mu.Lock()
		if s.cfg.MaxQueue < 0 || s.waiters >= s.cfg.MaxQueue {
			s.mu.Unlock()
			return nil, ErrBusy
		}
		s.waiters++
		s.mu.Unlock()
		s.queueDepth.Add(1)
		defer func() {
			s.mu.Lock()
			s.waiters--
			s.mu.Unlock()
			s.queueDepth.Add(-1)
		}()
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.base.Done():
			return nil, ErrClosed
		}
	}
	defer func() { <-s.slots }()

	if res, ok := s.loadDisk(key, e.ID); ok {
		s.diskHits.Inc()
		return res, nil
	}

	// Fill-without-compute: before paying for core.Execute, ask the
	// installed hook (the cluster layer's peer-fill) for the finished
	// rendering. The hook runs detached from the leader's cancellation —
	// like the compute itself, its result outlives one impatient client —
	// but inherits the leader's deadline so a slow peer cannot stall the
	// request past its budget (the hook is expected to give up well
	// before then and let the local compute fit the remaining time).
	s.mu.Lock()
	fill := s.peerFill
	s.mu.Unlock()
	if fill != nil {
		fctx := s.base
		if dl, ok := ctx.Deadline(); ok {
			var cancel context.CancelFunc
			fctx, cancel = context.WithDeadline(s.base, dl)
			defer cancel()
		}
		if res, ok := fill(fctx, key, e, opt); ok {
			s.saveDisk(res)
			return res, nil
		}
	}

	// The run itself, under the shared RetryPolicy. Attempts execute on
	// the store's root context (a flight outlives its leader's client),
	// each bounded by opt.Timeout.
	attempts := s.cfg.ComputeRetries
	switch {
	case attempts == 0:
		attempts = 2
	case attempts < 0:
		attempts = 1
	default:
		attempts++
	}
	start := time.Now()
	var rep *core.Report
	_, err := core.RetryPolicy{MaxAttempts: attempts, Backoff: 50 * time.Millisecond}.Do(
		s.base, func(int) error {
			if err := fpCompute.Inject(s.base); err != nil {
				return err
			}
			r, err := core.Execute(s.base, e, opt)
			if err != nil {
				return err
			}
			rep = r
			return nil
		})
	s.computeWall.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf, core.FormatJSON); err != nil {
		return nil, fmt.Errorf("store: rendering %s: %w", e.ID, err)
	}
	res := &Result{Key: key, ID: e.ID, Report: rep, JSON: buf.Bytes()}
	s.saveDisk(res)
	return res, nil
}

// insertLocked adds a result at the LRU front and evicts from the tail
// until the entry and byte budgets hold again (never evicting the entry
// just inserted). s.mu must be held.
func (s *Store) insertLocked(key Key, res *Result) {
	if s.closed || s.entries[key] != nil {
		return
	}
	ent := &lruEntry{key: key, res: res, size: int64(len(res.JSON))}
	s.entries[key] = ent
	s.pushFrontLocked(ent)
	s.count++
	s.bytes += ent.size
	for (s.count > s.cfg.MaxEntries || s.bytes > s.cfg.MaxBytes) && s.count > 1 {
		victim := s.tail
		s.unlinkLocked(victim)
		delete(s.entries, victim.key)
		s.count--
		s.bytes -= victim.size
		s.evictions.Inc()
	}
	s.bytesGauge.Set(s.bytes)
}

func (s *Store) pushFrontLocked(ent *lruEntry) {
	ent.prev, ent.next = nil, s.head
	if s.head != nil {
		s.head.prev = ent
	}
	s.head = ent
	if s.tail == nil {
		s.tail = ent
	}
}

func (s *Store) unlinkLocked(ent *lruEntry) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		s.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		s.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

func (s *Store) moveToFrontLocked(ent *lruEntry) {
	if s.head == ent {
		return
	}
	s.unlinkLocked(ent)
	s.pushFrontLocked(ent)
}

// diskPath is where a key's rendered JSON persists.
func (s *Store) diskPath(key Key) string {
	return filepath.Join(s.cfg.Dir, key.String()+".json")
}

// loadDisk revives a persisted rendering: the JSON bytes are served
// verbatim and the Report is rebuilt from the v1 schema so text and CSV
// renderings still work. The failure handling distinguishes three
// cases: a missing file is a normal miss (and proof the disk answers —
// it heals a degraded subsystem), a read error degrades the disk
// subsystem (persistence is bypassed until a probe succeeds), and a
// file that reads fine but does not parse as the current schema is
// quarantined — renamed to <name>.quarantine so it stops shadowing the
// key but stays on disk for inspection — and the experiment recomputes.
func (s *Store) loadDisk(key Key, id string) (*Result, bool) {
	if !s.disk.Allow() {
		return nil, false
	}
	raw, err := os.ReadFile(s.diskPath(key))
	if err == nil {
		raw, err = fpDiskLoad.InjectBytes(s.base, raw)
	}
	if err != nil {
		if os.IsNotExist(err) {
			s.disk.Succeed()
			return nil, false
		}
		s.disk.Fail("load: " + err.Error())
		return nil, false
	}
	res, derr := DecodeResult(key, id, raw)
	if derr != nil {
		s.quarantine(key)
		return nil, false
	}
	s.disk.Succeed()
	return res, true
}

// DecodeResult validates raw as a servable ReportV1 rendering of key
// and rebuilds the full Result (Report included, so text and CSV
// renderings still work). Any schema version in [Min, Current] revives:
// newer versions only add optional fields, so an older document reads
// back losslessly (e.g. a version-1 report revives with a nil
// Sampling). Outside the range — unknown future versions or pre-v1
// junk — or on malformed JSON it returns an error. Disk revival and
// the cluster's peer-fill share this gate, so bytes from either source
// meet the same bar before they are served or cached.
func DecodeResult(key Key, id string, raw []byte) (*Result, error) {
	var v core.ReportV1
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", key, err)
	}
	if v.SchemaVersion < core.MinReportSchemaVersion || v.SchemaVersion > core.ReportSchemaVersion {
		return nil, fmt.Errorf("store: %s: schema version %d outside [%d, %d]",
			key, v.SchemaVersion, core.MinReportSchemaVersion, core.ReportSchemaVersion)
	}
	return &Result{Key: key, ID: id, Report: v.Report(), JSON: raw}, nil
}

// quarantine moves a corrupt or schema-stale persisted report aside so
// it stops shadowing its key. The rename is atomic on the same
// filesystem; a rename failure degrades the disk subsystem instead,
// which equally stops the file from being consulted. A rename that
// works proves the disk answers, so it settles a pending probe.
func (s *Store) quarantine(key Key) {
	path := s.diskPath(key)
	if err := os.Rename(path, path+".quarantine"); err != nil {
		s.disk.Fail("quarantine: " + err.Error())
		return
	}
	s.disk.Succeed()
	s.cfg.Recorder.Counter(obs.StoreQuarantined).Inc()
}

// saveDisk persists a result's rendering atomically (tmp + rename).
// Persistence is an optimization: a failure degrades the disk subsystem
// (skipping further writes until a probe heals it) but never fails the
// computation that produced res.
func (s *Store) saveDisk(res *Result) {
	if !s.disk.Allow() {
		return
	}
	if err := fpDiskSave.Inject(s.base); err != nil {
		s.disk.Fail("save: " + err.Error())
		return
	}
	tmp, err := os.CreateTemp(s.cfg.Dir, "tmp-*")
	if err != nil {
		s.disk.Fail("save: " + err.Error())
		return
	}
	_, werr := tmp.Write(res.JSON)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.disk.Fail(fmt.Sprintf("save: write %v, close %v", werr, cerr))
		return
	}
	if err := os.Rename(tmp.Name(), s.diskPath(res.Key)); err != nil {
		os.Remove(tmp.Name())
		s.disk.Fail("save: " + err.Error())
		return
	}
	s.disk.Succeed()
}

// Close drains the store: new Gets fail with ErrClosed, in-flight
// computations get until ctx expires to finish (graceful drain), and
// any still running after that are cancelled through the store's root
// context, stopping at their kernels' next cancellation poll. Close
// returns nil when the drain completed, otherwise ctx's error.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancel() // stop stragglers (and free the base context) either way
	if err != nil {
		// Give cancelled computations a moment to unwind so no goroutine
		// outlives Close even on a timed-out drain.
		<-done
	}
	return err
}
