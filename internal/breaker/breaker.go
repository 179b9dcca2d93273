// Package breaker is the one degrade/bypass/probe/heal state machine a
// serving node runs in front of every dependency it can route around:
// the store's disk persistence and each cluster peer.
//
// A healthy breaker lets every operation through. A failure degrades
// it: callers bypass the dependency (computing without that cache, or
// locally instead of peer-filling) until the cooldown expires. The
// first Allow after the cooldown takes the probe and re-arms the
// cooldown, so every other caller keeps bypassing while that one
// operation runs; its Succeed heals the breaker and its Fail restarts
// the cooldown. A persistent failure therefore costs one probe per
// interval, never one failure per request.
package breaker

import (
	"sync"
	"time"

	"wsstudy/internal/obs"
)

// States reported by Status. "off" is a nil breaker: the dependency was
// never configured (no persistence dir).
const (
	StateOK       = "ok"
	StateDegraded = "degraded"
	StateOff      = "off"
)

// Status is a breaker's state at one instant, as /healthz reports it.
type Status struct {
	State  string `json:"state"` // "ok" | "degraded" | "off"
	Reason string `json:"reason,omitempty"`
}

// Breaker guards one dependency. Safe for concurrent use; a nil
// *Breaker is "off" — it never allows, and Fail and Succeed are no-ops.
type Breaker struct {
	cooldown time.Duration
	degraded *obs.Counter // shared by every breaker of one kind

	mu      sync.Mutex
	down    bool
	reason  string
	retryAt time.Time
}

// New builds a healthy breaker that bypasses its dependency for
// cooldown after each failure. degraded counts transitions into the
// degraded state — incidents, not skipped operations.
func New(cooldown time.Duration, degraded *obs.Counter) *Breaker {
	return &Breaker{cooldown: cooldown, degraded: degraded}
}

// Allow reports whether the next operation should use the dependency:
// always when healthy, and for exactly one caller per cooldown when
// degraded (the probe), which must then report Succeed or Fail.
func (b *Breaker) Allow() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.down {
		return true
	}
	now := time.Now()
	if now.Before(b.retryAt) {
		return false
	}
	b.retryAt = now.Add(b.cooldown)
	return true
}

// Fail degrades the breaker with reason, starting (or restarting) the
// bypass cooldown.
func (b *Breaker) Fail(reason string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	opened := !b.down
	b.down, b.reason, b.retryAt = true, reason, time.Now().Add(b.cooldown)
	b.mu.Unlock()
	if opened {
		b.degraded.Inc()
	}
}

// Succeed heals the breaker after a successful probe (or any
// successful operation).
func (b *Breaker) Succeed() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.down, b.reason = false, ""
	b.mu.Unlock()
}

// Status snapshots the breaker.
func (b *Breaker) Status() Status {
	if b == nil {
		return Status{State: StateOff}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return Status{State: StateDegraded, Reason: b.reason}
	}
	return Status{State: StateOK}
}
