package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/store"
)

// maxHold caps how long the owner holds one internal request for a cold
// key, whatever the follower names. It is the followers' default
// per-attempt fetch budget: a follower never names more than three
// quarters of its budget, so only one configured with a longer budget
// is capped.
const maxHold = 2 * time.Second

// holdsPerSlot sizes the cap on concurrently held internal requests as a
// multiple of the store's compute slots, the same multiple as the
// store's default wait queue: a storm of cold keys pins at most that
// many handlers, and every request beyond the cap is answered 202 at
// once.
const holdsPerSlot = 4

// handleInternalReport is the peer-fill endpoint:
//
//	GET /v1/internal/reports/{key}?id=<experiment>&opt.<axis>=...
//
// A resident or persisted rendering answers 200 at once with the frozen
// ReportV1 bytes, a body digest header, and the same strong ETag the
// public endpoint uses. A cold key is held: the handler waits on the
// store's flight for the key — starting it if none is running — for the
// hold the request names in cluster.WaitHeader, capped at maxHold and
// by the request's own deadline, and answers 200 with the same bytes
// and headers as soon as the compute lands. In every other case — no
// hold named or a malformed or non-positive one, the hold cap full, the
// hold expired, the store busy or the compute failed — it answers 202 +
// Retry-After and the peer asks again; the flight keeps running either
// way, and the store's singleflight makes the whole cluster's interest
// in the key cost one compute. The {key} path element is authoritative:
// the owner re-derives the key from the explicit opt.* parameters and
// rejects a mismatch, so a version- or registry-skewed peer can never
// be served (or cache) bytes filed under the wrong address.
func (s *Server) handleInternalReport(w http.ResponseWriter, r *http.Request) {
	s.internalReqs.Inc()
	raw := r.PathValue("key")
	kb, err := hex.DecodeString(raw)
	if err != nil || len(kb) != len(store.Key{}) {
		writeError(w, http.StatusBadRequest, "malformed result key %q", raw)
		return
	}
	key := store.Key(kb)

	id := r.URL.Query().Get("id")
	e, ok := s.byID[id]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	opt := core.Options{Timeout: s.cfg.ComputeTimeout}
	for _, f := range core.AxisFields() {
		if v := r.URL.Query().Get("opt." + f); v != "" {
			if err := opt.SetAxis(f, v); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
	}
	if derived := store.KeyFor(id, opt); derived != key {
		writeError(w, http.StatusBadRequest,
			"key mismatch: request names %s but options derive %s", key, derived)
		return
	}

	etag := etagFor(key, core.FormatJSON)
	w.Header().Set("Etag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if res, ok := s.cfg.Store.Peek(key, id); ok {
		writeInternalResult(w, res)
		return
	}

	// Cold. Without a hold the window is zero: Get starts (or joins) the
	// key's flight and returns at once, so a follower that names no hold
	// never blocks. A flight started here takes the window's deadline,
	// which also bounds its own peer-fill hook: an owner whose ring
	// disagrees with the asker's computes instead of waiting on a third
	// node. A closed store fails Get with ErrClosed.
	window := holdWindow(r.Header.Get(cluster.WaitHeader))
	held := false
	if window > 0 {
		select {
		case s.holds <- struct{}{}:
			held = true
		default: // the hold cap is full
			window = 0
		}
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), window)
	res, err := s.cfg.Store.Get(ctx, e, opt)
	cancel()
	if held {
		<-s.holds
		s.holdWall.Observe(time.Since(start))
	}
	switch {
	case held && err == nil:
		writeInternalResult(w, res)
	case errors.Is(err, store.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
		s.internalComputing.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, struct {
			Status string `json:"status"`
			Key    string `json:"key"`
		}{Status: "computing", Key: key.String()})
	}
}

// holdWindow parses a cluster.WaitHeader value into the hold the owner
// grants: a positive count of milliseconds, clamped to maxHold (a value
// too large for int64 included). Anything else — an absent header, a
// malformed, zero or negative value — grants none.
func holdWindow(v string) time.Duration {
	ms, err := strconv.ParseInt(v, 10, 64)
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || ms <= 0 {
		return 0
	}
	if ms >= maxHold.Milliseconds() {
		return maxHold
	}
	return time.Duration(ms) * time.Millisecond
}

// writeInternalResult answers an internal request with a rendering —
// resident, revived or just computed alike: the frozen ReportV1 bytes,
// the key, and the digest a follower checks before it installs them.
// The caller has already set the Etag.
func writeInternalResult(w http.ResponseWriter, res *store.Result) {
	sum := sha256.Sum256(res.JSON)
	w.Header().Set("Content-Type", core.FormatJSON.ContentType())
	w.Header().Set("X-Wsstudy-Key", res.Key.String())
	w.Header().Set(cluster.DigestHeader, hex.EncodeToString(sum[:]))
	_, _ = w.Write(res.JSON)
}
