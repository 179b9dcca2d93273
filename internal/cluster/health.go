package cluster

import (
	"sort"

	"wsstudy/internal/breaker"
)

// StateSelf marks this node's own ring entry in Health (never fetched
// from). Remote peers report their breaker's state: "ok", or
// "degraded" when recent fetches failed and peer-fill is bypassing the
// peer — every owned-elsewhere miss computes locally — until the
// cooldown expires and one fetch probes it again.
const StateSelf = "self"

// peer is one remote member: its base URL and the breaker that decides
// whether peer-fill talks to it.
type peer struct {
	id   string
	addr string
	brk  *breaker.Breaker
}

// PeerStatus is one ring member's row in Health. The embedded Status
// carries State ("ok" | "degraded" | "self") and Reason (the last fetch
// failure of a degraded peer).
type PeerStatus struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	breaker.Status
	// Share is the member's exact fraction of the key space.
	Share float64 `json:"share"`
}

// Health is the cluster's ring and per-peer status, embedded in the
// /healthz document. A degraded peer does not degrade the node: every
// request still answers, at worst by computing locally.
type Health struct {
	Self   string       `json:"self"`
	VNodes int          `json:"vnodes"`
	Peers  []PeerStatus `json:"peers"`
}

// Health snapshots the ring and every member's state, sorted by id.
func (c *Cluster) Health() Health {
	shares := c.ring.Shares()
	h := Health{Self: c.cfg.Self, VNodes: c.ring.VNodes()}
	for _, id := range c.ring.Members() {
		ps := PeerStatus{ID: id, Share: shares[id]}
		if id == c.cfg.Self {
			ps.Addr, ps.State = c.cfg.Peers[id], StateSelf
		} else {
			p := c.peers[id]
			ps.Addr, ps.Status = p.addr, p.brk.Status()
		}
		h.Peers = append(h.Peers, ps)
	}
	sort.Slice(h.Peers, func(i, j int) bool { return h.Peers[i].ID < h.Peers[j].ID })
	return h
}

// Degraded reports whether any peer is currently degraded.
func (h Health) Degraded() bool {
	for _, p := range h.Peers {
		if p.State == breaker.StateDegraded {
			return true
		}
	}
	return false
}
