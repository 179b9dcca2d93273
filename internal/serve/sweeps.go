package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"wsstudy/internal/sweep"
)

// defaultGrainDataBytes is the total problem size the grain endpoint
// assumes when ?data_bytes= is absent: 1 GB, the paper's large-problem
// order of magnitude.
const defaultGrainDataBytes = 1 << 30

// sweepListEntry is one row of GET /v1/sweeps.
type sweepListEntry struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Total      int    `json:"total"`
	Completed  int    `json:"completed"`
	Failed     int    `json:"failed"`
	Done       bool   `json:"done"`
	Path       string `json:"path"`
}

// sweepListResponse is the GET /v1/sweeps document.
type sweepListResponse struct {
	Sweeps []sweepListEntry `json:"sweeps"`
}

// sweeps returns the engine, or answers 503: the sweep surface is
// present but unconfigured (no engine wired), which is an operational
// state, not a client error.
func (s *Server) sweeps(w http.ResponseWriter) *sweep.Engine {
	if s.cfg.Sweeps == nil {
		writeError(w, http.StatusServiceUnavailable, "sweep engine not configured")
		return nil
	}
	return s.cfg.Sweeps
}

// handleSweeps dispatches the collection endpoint: POST submits a
// lattice, GET lists known sweeps.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSweepPost(w, r)
	case http.MethodGet, http.MethodHead:
		s.handleSweepList(w, r)
	default:
		w.Header().Set("Allow", "GET, HEAD, POST")
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed for /v1/sweeps", r.Method)
	}
}

// handleSweepPost accepts a JSON lattice spec, submits it, and answers
// with the sweep's status: 202 while cells are landing, 200 when the
// submission was already complete (an idempotent re-POST of a finished
// sweep). The Location header names the status resource either way.
// Unknown JSON fields are rejected for the same reason unknown query
// parameters are: a misspelled axis must not silently shrink a lattice.
func (s *Server) handleSweepPost(w http.ResponseWriter, r *http.Request) {
	eng := s.sweeps(w)
	if eng == nil {
		return
	}
	if _, err := s.decodeRequestV1(r); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var spec sweep.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding sweep spec: %v", err)
		return
	}
	if spec.Scale == "" {
		spec.Scale = s.cfg.DefaultScale.String()
	}
	st, err := eng.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+st.ID)
	code := http.StatusAccepted
	if st.Done {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	eng := s.sweeps(w)
	if eng == nil {
		return
	}
	if _, err := s.decodeRequestV1(r); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := sweepListResponse{Sweeps: []sweepListEntry{}}
	for _, id := range eng.List() {
		st, ok := eng.Get(id)
		if !ok {
			continue
		}
		resp.Sweeps = append(resp.Sweeps, sweepListEntry{
			ID: st.ID, Experiment: st.Experiment,
			Total: st.Total, Completed: st.Completed, Failed: st.Failed,
			Done: st.Done, Path: "/v1/sweeps/" + st.ID,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweepGet serves a sweep's incremental aggregate — poll it
// while cells land; Done reports convergence.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	eng := s.sweeps(w)
	if eng == nil {
		return
	}
	if _, err := s.decodeRequestV1(r); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, ok := eng.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q (re-POST its spec to resume it)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSweepGrain answers §8 for a finished sweep: best node
// granularity per dollar over the measured lattice. ?data_bytes= sets
// the fixed total problem size (default 1 GB). A sweep still landing
// cells answers 409 — partial advice would silently prefer whatever
// happened to finish first.
func (s *Server) handleSweepGrain(w http.ResponseWriter, r *http.Request) {
	eng := s.sweeps(w)
	if eng == nil {
		return
	}
	if _, err := s.decodeRequestV1(r, "data_bytes"); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dataBytes := uint64(defaultGrainDataBytes)
	if raw := r.URL.Query().Get("data_bytes"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || v == 0 {
			writeError(w, http.StatusBadRequest, "data_bytes: %q is not a positive byte count", raw)
			return
		}
		dataBytes = v
	}
	id := r.PathValue("id")
	if _, ok := eng.Get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q (re-POST its spec to resume it)", id)
		return
	}
	adv, err := eng.Grain(id, dataBytes)
	switch {
	case errors.Is(err, sweep.ErrUnfinished):
		writeError(w, http.StatusConflict, "sweep still running; poll /v1/sweeps/%s until done", id)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, adv)
}
