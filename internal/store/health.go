package store

import "wsstudy/internal/breaker"

// Health is the store's status, served by /healthz. Disk persistence is
// "off" when no persistence dir is configured, and "degraded" when
// recent disk operations failed and the store is bypassing it —
// serving from memory and computing — until a probe succeeds.
type Health struct {
	Disk   breaker.Status `json:"disk"`
	Closed bool           `json:"closed,omitempty"`
}

// Degraded reports whether disk persistence is currently degraded.
func (h Health) Degraded() bool {
	return h.Disk.State == breaker.StateDegraded
}

// Health reports the store's status. Degraded persistence means the
// store is still serving — computing results without the disk cache —
// and will probe it again after the configured ProbeInterval.
func (s *Store) Health() Health {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return Health{Disk: s.disk.Status(), Closed: closed}
}
