package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/obs"
)

func TestNilBreakerIsOff(t *testing.T) {
	var b *Breaker
	if b.Allow() {
		t.Error("a nil breaker allowed an operation")
	}
	b.Fail("ignored")
	b.Succeed()
	if got := b.Status(); got != (Status{State: StateOff}) {
		t.Errorf("nil breaker status = %+v, want off", got)
	}
}

// TestDegradeBypassHeal walks the whole state machine: healthy allows,
// a failure degrades (counted once however often it repeats) and
// bypasses, and a success heals.
func TestDegradeBypassHeal(t *testing.T) {
	rec := obs.New()
	b := New(time.Hour, rec.Counter("test.degraded"))
	if !b.Allow() || b.Status() != (Status{State: StateOK}) {
		t.Fatalf("new breaker: allow=%v status=%+v, want healthy", b.Allow(), b.Status())
	}
	b.Fail("first")
	b.Fail("second")
	if got := b.Status(); got != (Status{State: StateDegraded, Reason: "second"}) {
		t.Fatalf("status = %+v, want degraded with the latest reason", got)
	}
	if got := rec.Snapshot().Counter("test.degraded"); got != 1 {
		t.Errorf("degraded transitions = %d, want 1", got)
	}
	if b.Allow() {
		t.Error("a degraded breaker allowed an operation inside its cooldown")
	}
	b.Succeed()
	if !b.Allow() || b.Status() != (Status{State: StateOK}) {
		t.Fatalf("after Succeed: allow=%v status=%+v, want healthy", b.Allow(), b.Status())
	}
}

// TestOneProbePerCooldown: once the cooldown has passed, the first
// Allow takes the probe and every other caller keeps bypassing until
// that probe reports back.
func TestOneProbePerCooldown(t *testing.T) {
	b := New(100*time.Millisecond, nil)
	b.Fail("down")
	time.Sleep(130 * time.Millisecond)
	if first, second := b.Allow(), b.Allow(); !first || second {
		t.Fatalf("Allow after the cooldown = %v, %v; want true, false", first, second)
	}

	// A failed probe restarts the cooldown; the next window again admits
	// exactly one of many concurrent callers.
	b.Fail("still down")
	time.Sleep(130 * time.Millisecond)
	var allowed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				allowed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := allowed.Load(); got != 1 {
		t.Fatalf("%d concurrent callers took the probe, want 1", got)
	}
	b.Succeed()
	if !b.Allow() || !b.Allow() {
		t.Fatal("a healed breaker must allow every caller")
	}
}
