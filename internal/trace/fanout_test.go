package trace

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// lockedRec is an eventRec safe to hand to a Fanout worker: the producer
// goroutine reads it only after Close, but the race detector wants the
// handoff explicit.
type lockedRec struct {
	mu sync.Mutex
	eventRec
}

func (l *lockedRec) Ref(r Ref) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.eventRec.Ref(r)
}

func (l *lockedRec) Refs(block []Ref) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.eventRec.Refs(block)
}

func (l *lockedRec) BeginEpoch(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.eventRec.BeginEpoch(n)
}

func (l *lockedRec) snapshot() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]event(nil), l.events...)
}

// failAfter is a Stopper that reports err once n references have arrived.
type failAfter struct {
	n    int
	seen int
	err  error
	mu   sync.Mutex
}

func (f *failAfter) Ref(Ref) {
	f.mu.Lock()
	f.seen++
	f.mu.Unlock()
}

func (f *failAfter) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen >= f.n {
		return f.err
	}
	return nil
}

// panicker explodes on the first reference.
type panicker struct{}

func (panicker) Ref(Ref) { panic("simulated consumer bug") }

// TestFanoutEquivalentToTee: every consumer behind a Fanout observes the
// exact sequence Tee would have delivered — references in order, epoch
// boundaries between the same references.
func TestFanoutEquivalentToTee(t *testing.T) {
	teeA, teeB := &eventRec{}, &eventRec{}
	b1 := NewBatcher(Tee{teeA, teeB})
	emitScript(b1)

	fanA, fanB := &lockedRec{}, &lockedRec{}
	fan, err := NewFanout(fanA, fanB)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBatcher(fan)
	emitScript(b2)
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := fanA.snapshot(), teeA.events; !reflect.DeepEqual(got, want) {
		t.Errorf("consumer A diverged\nfanout: %v\ntee:    %v", got, want)
	}
	if got, want := fanB.snapshot(), teeB.events; !reflect.DeepEqual(got, want) {
		t.Errorf("consumer B diverged\nfanout: %v\ntee:    %v", got, want)
	}
}

// TestFanoutCopiesBlocks: the producer's buffer may be reused immediately
// after Refs returns; workers must have their own copy.
func TestFanoutCopiesBlocks(t *testing.T) {
	rec := &lockedRec{}
	fan, err := NewFanout(rec)
	if err != nil {
		t.Fatal(err)
	}
	buf := []Ref{{Addr: 1}, {Addr: 2}}
	fan.Refs(buf)
	buf[0].Addr, buf[1].Addr = 99, 98 // producer reuses its buffer
	fan.Refs(buf)
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	want := []event{
		refEvent(Ref{Addr: 1}), refEvent(Ref{Addr: 2}),
		refEvent(Ref{Addr: 99}), refEvent(Ref{Addr: 98}),
	}
	if got := rec.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestFanoutErrorPropagation: a consumer's stop reason surfaces through
// Err and Close, and a failed worker does not block the producer — the
// healthy consumer still receives the full stream. The stream is four
// rings deep, so a failed member that stalled its shard would fill the
// ring and park the producer for good.
func TestFanoutErrorPropagation(t *testing.T) {
	stopErr := errors.New("budget exhausted")
	bad := &failAfter{n: 1, err: stopErr}
	good := &lockedRec{}
	fan, err := NewFanout(bad, good)
	if err != nil {
		t.Fatal(err)
	}
	const total = 4 * fanoutRing * DefaultBlockSize
	for i := 0; i < total; i++ {
		fan.Ref(Ref{Addr: uint64(i)})
	}
	if err := fan.Close(); !errors.Is(err, stopErr) {
		t.Errorf("Close() = %v, want %v", err, stopErr)
	}
	if err := fan.Err(); !errors.Is(err, stopErr) {
		t.Errorf("Err() = %v, want %v", err, stopErr)
	}
	if got := len(good.snapshot()); got != total {
		t.Errorf("healthy consumer got %d refs, want %d", got, total)
	}
}

// TestFanoutPanicIsolation: a panicking consumer becomes an error from
// Close, not a crashed process.
func TestFanoutPanicIsolation(t *testing.T) {
	good := &lockedRec{}
	fan, err := NewFanout(panicker{}, good)
	if err != nil {
		t.Fatal(err)
	}
	fan.Ref(Ref{Addr: 1})
	fan.Flush()
	err = fan.Close()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("Close() = %v, want consumer-panicked error", err)
	}
	if got := len(good.snapshot()); got != 1 {
		t.Errorf("healthy consumer got %d refs, want 1", got)
	}
}

// TestFanoutCloseIdempotent: double Close is safe and keeps returning the
// same verdict; sends after Close are dropped rather than panicking on a
// closed channel.
func TestFanoutCloseIdempotent(t *testing.T) {
	rec := &lockedRec{}
	fan, err := NewFanout(rec)
	if err != nil {
		t.Fatal(err)
	}
	fan.Ref(Ref{Addr: 1})
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fan.Close(); err != nil {
		t.Errorf("second Close() = %v", err)
	}
	fan.Ref(Ref{Addr: 2})
	fan.Flush()
	fan.Refs([]Ref{{Addr: 3}})
	fan.BeginEpoch(7)
	if got := len(rec.snapshot()); got != 1 {
		t.Errorf("consumer got %d events after close, want 1", got)
	}
}

// TestFanoutInvalidConfig: empty consumer lists and nil consumers are
// configuration errors.
func TestFanoutInvalidConfig(t *testing.T) {
	if _, err := NewFanout(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("no consumers: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewFanout(Discard, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil consumer: err = %v, want ErrInvalidConfig", err)
	}
}
