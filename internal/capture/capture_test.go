package capture

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

// script emits a deterministic multi-epoch stream: `epochs` boundaries,
// each followed by a burst of references.
func script(epochs, perEpoch int) func(trace.Consumer) error {
	return func(sink trace.Consumer) error {
		ec, _ := sink.(trace.EpochConsumer)
		bc := trace.AdaptConsumer(sink)
		for e := 0; e < epochs; e++ {
			if ec != nil {
				ec.BeginEpoch(e)
			}
			block := make([]trace.Ref, perEpoch)
			for i := range block {
				block[i] = trace.Ref{
					PE: i % 4, Addr: uint64(e*perEpoch+i) * 8, Size: 8,
					Kind: trace.Read,
				}
			}
			bc.Refs(block)
		}
		return nil
	}
}

// eventLog records everything a sink sees, for stream comparison.
type eventLog struct {
	refs   []trace.Ref
	epochs []int
}

func (l *eventLog) Ref(r trace.Ref)  { l.refs = append(l.refs, r) }
func (l *eventLog) BeginEpoch(n int) { l.epochs = append(l.epochs, n) }
func (l *eventLog) equal(o *eventLog) bool {
	return reflect.DeepEqual(l.refs, o.refs) && reflect.DeepEqual(l.epochs, o.epochs)
}

func TestRunRecordsThenReplays(t *testing.T) {
	s := New(0)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)

	var live, replayed eventLog
	if err := s.Run(ctx, "k/a", 3, &live, script(3, 1000)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Bytes() == 0 {
		t.Fatalf("after record: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if err := s.Run(ctx, "k/a", 3, &replayed, func(trace.Consumer) error {
		t.Fatal("replay path ran the producer")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !replayed.equal(&live) {
		t.Errorf("replayed stream diverged: %d/%d refs, epochs %v vs %v",
			len(replayed.refs), len(live.refs), replayed.epochs, live.epochs)
	}
	m := rec.Snapshot()
	if m.Counters[obs.CaptureHits] != 1 || m.Counters[obs.CaptureMisses] != 1 {
		t.Errorf("hit/miss = %d/%d, want 1/1",
			m.Counters[obs.CaptureHits], m.Counters[obs.CaptureMisses])
	}
	if got := m.Counters[obs.CaptureReplayedRefs]; got != uint64(len(live.refs)) {
		t.Errorf("replayed refs counter = %d, want %d", got, len(live.refs))
	}
}

// TestEpochPrefixReplay proves the prefix property end to end: a 4-epoch
// recording replayed at 3 epochs matches a live 3-epoch run exactly.
func TestEpochPrefixReplay(t *testing.T) {
	s := New(0)
	ctx := context.Background()

	var full eventLog
	if err := s.Run(ctx, "k/p", 4, &full, script(4, 500)); err != nil {
		t.Fatal(err)
	}
	var short, prefix eventLog
	if err := script(3, 500)(&short); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ctx, "k/p", 3, &prefix, func(trace.Consumer) error {
		t.Fatal("prefix request should replay, not record")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !prefix.equal(&short) {
		t.Errorf("prefix replay diverged from live short run: %d refs vs %d, epochs %v vs %v",
			len(prefix.refs), len(short.refs), prefix.epochs, short.epochs)
	}

	// The other direction — asking for MORE epochs than recorded — must
	// re-record, never serve a truncated stream.
	ran := false
	if err := s.Run(ctx, "k/p", 5, &eventLog{}, func(sink trace.Consumer) error {
		ran = true
		return script(5, 500)(sink)
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("request beyond the recorded epochs did not re-run the kernel")
	}
}

func TestProducerErrorNotCommitted(t *testing.T) {
	s := New(0)
	boom := errors.New("boom")
	if err := s.Run(context.Background(), "k/e", 2, &eventLog{}, func(sink trace.Consumer) error {
		_ = script(1, 10)(sink) // partial stream, then failure
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("producer error not propagated: %v", err)
	}
	if s.Len() != 0 {
		t.Error("failed producer left a committed entry")
	}
	// The key must not stay poisoned: a later Run records normally.
	if err := s.Run(context.Background(), "k/e", 2, &eventLog{}, script(2, 10)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Error("recovery run did not commit")
	}
}

func TestNilAndDisabledStores(t *testing.T) {
	var s *Store
	var log eventLog
	if err := s.Run(context.Background(), "k", 1, &log, script(1, 10)); err != nil {
		t.Fatal(err)
	}
	if len(log.refs) != 10 {
		t.Errorf("nil store delivered %d refs, want 10", len(log.refs))
	}

	ctx := With(context.Background(), nil)
	if From(ctx) != nil {
		t.Error("From should return nil for an explicitly disabled context")
	}
	if !Attached(ctx) {
		t.Error("Attached should report the explicit disable")
	}
	if Attached(context.Background()) {
		t.Error("Attached on a bare context")
	}
}

func TestBudgetRejectsOversizedRecording(t *testing.T) {
	s := New(1) // one byte: nothing fits
	if err := s.Run(context.Background(), "k/big", 1, &eventLog{}, script(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("over-budget recording committed: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

// corruptMid flips a byte halfway through the recording for key, so a
// replay delivers the CRC-verified leading frames and then fails on a
// later one — the mid-stream failure mode Run must not paper over. The
// stream must span several 32 KB frames for the midpoint to sit behind
// at least one verified frame.
func corruptMid(t *testing.T, s *Store, key string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil || len(e.buf.chunks) == 0 {
		t.Fatal("no committed recording to corrupt")
	}
	off := e.buf.size() / 2
	e.buf.chunks[off/chunkSize][off%chunkSize] ^= 0xFF
}

// TestCorruptReplayFailsRun locks in the recovery contract: a replay
// that fails after delivering a verified prefix must fail the Run —
// re-producing into the same sink would double-count the prefix — and
// must drop the broken entry so a retry with a fresh sink re-records.
func TestCorruptReplayFailsRun(t *testing.T) {
	s := New(0)
	ctx := context.Background()

	// Big enough for several 32 KB frames, so the corrupt tail
	// frame sits behind verified ones.
	var live eventLog
	if err := s.Run(ctx, "k/c", 3, &live, script(3, 20000)); err != nil {
		t.Fatal(err)
	}
	corruptMid(t, s, "k/c")

	var partial eventLog
	produced := false
	err := s.Run(ctx, "k/c", 3, &partial, func(trace.Consumer) error {
		produced = true
		return nil
	})
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("corrupt replay: err = %v, want ErrCorrupt", err)
	}
	if produced {
		t.Error("Run re-ran the producer into a sink that already consumed a replay prefix")
	}
	if len(partial.refs) == 0 || len(partial.refs) >= len(live.refs) {
		t.Errorf("sink saw %d refs, want a proper prefix of %d (several frames should verify before the corrupt tail)",
			len(partial.refs), len(live.refs))
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("corrupt entry not dropped: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}

	// The key is not poisoned: a retry with a fresh sink re-records and
	// delivers the full stream exactly once.
	var retry eventLog
	if err := s.Run(ctx, "k/c", 3, &retry, script(3, 20000)); err != nil {
		t.Fatal(err)
	}
	if !retry.equal(&live) {
		t.Errorf("retry stream diverged: %d refs vs %d", len(retry.refs), len(live.refs))
	}
	if s.Len() != 1 {
		t.Error("retry did not commit a fresh recording")
	}
}

// TestDisplacedEntryPinnedDuringReplay proves a commit displacing an
// entry does not recycle its chunks while a replay still reads them:
// the buffer survives until the pin is released, then frees.
func TestDisplacedEntryPinnedDuringReplay(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	if err := s.Run(ctx, "k/pin", 2, &eventLog{}, script(2, 1000)); err != nil {
		t.Fatal(err)
	}

	e, _, leader := s.lookup("k/pin", 2) // pin, as a replaying Run would
	if e == nil || leader {
		t.Fatal("lookup did not return the committed entry")
	}

	// A longer run displaces the pinned entry.
	if err := s.Run(ctx, "k/pin", 3, &eventLog{}, script(3, 1000)); err != nil {
		t.Fatal(err)
	}
	if len(e.buf.chunks) == 0 {
		t.Fatal("displaced entry freed while a replay still holds a pin")
	}

	// The pinned snapshot still replays intact.
	var fromOld, want eventLog
	if err := script(2, 1000)(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.replay(ctx, obs.New(), e, 2, &fromOld); err != nil {
		t.Fatalf("replay of pinned displaced entry: %v", err)
	}
	if !fromOld.equal(&want) {
		t.Error("pinned displaced entry replayed a different stream")
	}

	s.unpin(e)
	if len(e.buf.chunks) != 0 {
		t.Error("last unpin of a displaced entry did not free its buffer")
	}
}

// TestConcurrentReplayAndDisplacement hammers one key with replays
// racing displacing commits; under -race this catches any recycling of
// pooled chunks out from under a live replay.
func TestConcurrentReplayAndDisplacement(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	var want eventLog
	if err := script(2, 2000)(&want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for ep := 2; ep <= 6; ep++ {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var log eventLog
				if err := s.Run(ctx, "k/race", 2, &log, script(2, 2000)); err != nil {
					t.Error(err)
				} else if !log.equal(&want) {
					t.Error("racing replay delivered a different stream")
				}
			}()
		}
		wg.Add(1)
		go func(ep int) {
			defer wg.Done()
			if err := s.Run(ctx, "k/race", ep, &eventLog{}, script(ep, 2000)); err != nil {
				t.Error(err)
			}
		}(ep)
	}
	wg.Wait()
}

// TestSingleflight races many Runs of one key and demands exactly one
// producer execution, with every caller receiving the full stream.
func TestSingleflight(t *testing.T) {
	s := New(0)
	var wg sync.WaitGroup
	const callers = 8
	logs := make([]eventLog, callers)
	var runs int32
	var mu sync.Mutex
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.Run(context.Background(), "k/sf", 2, &logs[i], func(sink trace.Consumer) error {
				mu.Lock()
				runs++
				mu.Unlock()
				return script(2, 2000)(sink)
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if runs != 1 {
		t.Errorf("producer ran %d times, want 1 (singleflight)", runs)
	}
	for i := 1; i < callers; i++ {
		if !logs[i].equal(&logs[0]) {
			t.Errorf("caller %d saw a different stream", i)
		}
	}
}
