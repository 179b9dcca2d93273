package store

import "wsstudy/internal/breaker"

// Health is the store's per-subsystem status, served by /healthz. A
// subsystem that is "off" was never configured (no persistence dir,
// capture disabled); "degraded" means recent operations failed and the
// store is bypassing it — computing without its cache — until a probe
// succeeds.
type Health struct {
	Disk    breaker.Status `json:"disk"`
	Capture breaker.Status `json:"capture"`
	Closed  bool           `json:"closed,omitempty"`
}

// Degraded reports whether either subsystem is currently degraded.
func (h Health) Degraded() bool {
	return h.Disk.State == breaker.StateDegraded || h.Capture.State == breaker.StateDegraded
}

// Health reports the store's per-subsystem status. A degraded
// subsystem means the store is still serving — computing results
// without that cache — and will probe it again after the configured
// ProbeInterval.
func (s *Store) Health() Health {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return Health{
		Disk:    s.disk.Status(),
		Capture: s.capt.Status(),
		Closed:  closed,
	}
}
