// Package serve exposes the working-set study over a stable v1 HTTP
// API, backed by the content-addressed result store:
//
//	GET  /v1/experiments              list every experiment (id, title, ...)
//	GET  /v1/experiments/{id}/report  one experiment's Report
//	GET  /v1/suite                    every experiment, one summary document
//	POST /v1/sweeps                   submit a parameter-lattice sweep
//	GET  /v1/sweeps                   list known sweeps
//	GET  /v1/sweeps/{id}              one sweep's incremental aggregate
//	GET  /v1/sweeps/{id}/grain        §8 cost advice from a finished sweep
//	GET  /healthz                     liveness probe
//
// Query parameters flow through one typed decoder (RequestV1):
// ?format= picks the rendering (else the Accept header), ?opt.<axis>=
// sets any canonical Options axis (opt.scale, opt.cache, opt.line,
// opt.assoc, opt.pes, opt.problem, opt.sample), and unknown or repeated
// parameters — the retired bare ?scale= included — are rejected with
// 400. Every error, on every endpoint, is the same JSON envelope
// {error, status, retry_after?}.
//
// Because results are content-addressed, the report ETag is derived
// from the store key — known before any computation happens, so a
// matching If-None-Match answers 304 without touching the store at
// all. The suite ETag is the hash of its member keys, equally
// computable pre-compute. Saturated compute slots surface as 429 with
// Retry-After; per-request deadlines ride the request context;
// Shutdown drains in-flight runs.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
	"wsstudy/internal/sweep"
)

// fpReport sits at the head of the report endpoint's store lookup —
// the seam for exercising the 5xx mapping and error instrumentation
// without faulting the store itself.
var fpReport = fault.New("serve.report")

// Config tunes a Server.
type Config struct {
	// Store computes and caches results. Required.
	Store *store.Store
	// Sweeps runs parameter-lattice sweeps. Nil disables the
	// /v1/sweeps surface (503 on access).
	Sweeps *sweep.Engine
	// Registry is the experiment list to serve (nil = core.Registry()).
	Registry []core.Experiment
	// Recorder receives request instrumentation (latency histogram,
	// request/429/304/5xx counters). Nil disables it.
	Recorder *obs.Recorder
	// DefaultScale applies when a request has no ?opt.scale= parameter.
	// `wsstudy serve` sets ScaleQuick — interactive latency first;
	// clients opt into paper-scale runs with ?opt.scale=full.
	DefaultScale core.Scale
	// RequestTimeout, when positive, bounds each request's context; an
	// expired request answers 504 while the underlying computation
	// (bounded separately by ComputeTimeout) keeps warming the store.
	RequestTimeout time.Duration
	// ComputeTimeout, when positive, becomes Options.Timeout for every
	// computation, so runaway experiments end in DeadlineError instead
	// of holding a compute slot forever.
	ComputeTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses (0 = 1s).
	RetryAfter time.Duration
	// Cluster, when non-nil, reports the node's ring and per-peer
	// state in /healthz. The internal peer-fill endpoint is served
	// either way (it is just a Peek-or-warm view of the store), but
	// only clustered nodes have peers to call it.
	Cluster *cluster.Cluster
}

// Server is the v1 HTTP front of the result store.
type Server struct {
	cfg     Config
	byID    map[string]core.Experiment
	list    []core.Experiment
	handler http.Handler

	mu   sync.Mutex
	http *http.Server
	ln   net.Listener

	// warming tracks keys being computed in the background for peers
	// (the internal endpoint's 202 path), deduplicating the spawned
	// store.Get per key.
	warmMu  sync.Mutex
	warming map[store.Key]bool

	requests, busy, notModified, errs *obs.Counter
	internalReqs, internalComputing   *obs.Counter
	latency                           *obs.Histogram
}

// New builds a Server around cfg.Store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if cfg.Registry == nil {
		cfg.Registry = core.Registry()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	rec := cfg.Recorder
	s := &Server{
		cfg:               cfg,
		list:              cfg.Registry,
		byID:              make(map[string]core.Experiment, len(cfg.Registry)),
		warming:           make(map[store.Key]bool),
		requests:          rec.Counter(obs.ServeRequests),
		busy:              rec.Counter(obs.ServeBusy),
		notModified:       rec.Counter(obs.ServeNotModified),
		errs:              rec.Counter(obs.ServeErrors),
		internalReqs:      rec.Counter(obs.ClusterInternalRequests),
		internalComputing: rec.Counter(obs.ClusterInternalComputing),
		latency:           rec.Histogram(obs.ServeRequestWall),
	}
	for _, e := range cfg.Registry {
		s.byID[e.ID] = e
	}
	mux := http.NewServeMux()
	// Routes are registered without method patterns so that unknown
	// paths AND wrong methods both produce the v1 error envelope —
	// ServeMux's own 404/405 responses are text.
	route(mux, "/v1/experiments", "GET", s.handleList)
	route(mux, "/v1/experiments/{id}/report", "GET", s.handleReport)
	route(mux, "/v1/suite", "GET", s.handleSuite)
	mux.HandleFunc("/v1/sweeps", s.handleSweeps) // GET (list) and POST (submit)
	route(mux, "/v1/sweeps/{id}", "GET", s.handleSweepGet)
	route(mux, "/v1/sweeps/{id}/grain", "GET", s.handleSweepGrain)
	route(mux, cluster.InternalReportPath+"{key}", "GET", s.handleInternalReport)
	route(mux, "/healthz", "GET", s.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	s.handler = s.instrument(mux)
	return s, nil
}

// route registers a single-method handler that answers other methods
// with an enveloped 405.
func route(mux *http.ServeMux, pattern, method string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// HEAD rides every GET route: net/http discards the body, the
		// headers (ETag included) are what a HEAD caller is after.
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			allow := method
			if method == http.MethodGet {
				allow = "GET, HEAD"
			}
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed for %s", r.Method, pattern)
			return
		}
		h(w, r)
	})
}

// Handler returns the instrumented v1 API handler, for embedding or
// httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Start listens on addr (host:port; port 0 picks a free one), serves in
// a background goroutine, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.StartListener(ln), nil
}

// StartListener serves on an already-bound listener and returns its
// address. Cluster tests use it to hand every node a pre-bound port so
// the full peer map is known before any node boots.
func (s *Server) StartListener(ln net.Listener) string {
	hs := &http.Server{Handler: s.handler}
	s.mu.Lock()
	s.http, s.ln = hs, ln
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal Shutdown result; anything else
		// would already have surfaced to clients as connection errors.
		_ = hs.Serve(ln)
	}()
	return ln.Addr().String()
}

// Abort force-closes the HTTP side — listener and all live
// connections — without draining and without touching the store. It is
// the in-process stand-in for SIGKILLing a node: peers observe
// connection errors mid-request, exactly as the owner-death drill
// needs. The store keeps running; use Shutdown for a real drain.
func (s *Server) Abort() {
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs != nil {
		_ = hs.Close()
	}
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: the listener stops accepting, in-flight
// requests (and the computations they wait on) get until ctx expires to
// finish, then the store cancels any stragglers through their kernels'
// cancellation polls. The store is closed as part of shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	if cerr := s.cfg.Store.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with request metrics and the per-request
// deadline.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Inc()
		if s.cfg.Recorder != nil {
			// Request contexts carry the server recorder so seams that
			// count on the context — the handler failpoints, most
			// notably — land on the same recorder as the rest of the
			// serve metrics.
			r = r.WithContext(obs.With(r.Context(), s.cfg.Recorder))
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.latency.Observe(time.Since(start))
		switch {
		case sw.status == http.StatusTooManyRequests:
			s.busy.Inc()
		case sw.status == http.StatusNotModified:
			s.notModified.Inc()
		case sw.status >= 500:
			s.errs.Inc()
		}
	})
}

// apiError is the one v1 error envelope: every endpoint, every
// failure. The status echoes the HTTP code so a body that outlives
// its response (a log line, a proxy buffer) stays self-describing;
// retry_after (seconds) appears only on 429.
type apiError struct {
	Error      string `json:"error"`
	Status     int    `json:"status"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Status: status})
}

// writeBusy is the 429 variant: Retry-After rides both the header and
// the envelope.
func writeBusy(w http.ResponseWriter, retryAfter time.Duration) {
	secs := int((retryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, apiError{
		Error:      "compute slots saturated, retry shortly",
		Status:     http.StatusTooManyRequests,
		RetryAfter: secs,
	})
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
	ReportPath  string `json:"report_path"`
}

// listResponse is the GET /v1/experiments document.
type listResponse struct {
	SchemaVersion int              `json:"schema_version"`
	Experiments   []experimentInfo `json:"experiments"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	resp := listResponse{SchemaVersion: core.ReportSchemaVersion}
	for _, e := range s.list {
		resp.Experiments = append(resp.Experiments, experimentInfo{
			ID:          e.ID,
			Title:       e.Title,
			Description: e.Description,
			ReportPath:  "/v1/experiments/" + e.ID + "/report",
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is the GET /healthz document: an overall verdict plus
// the store's disk detail and, on a cluster node, the ring. "degraded"
// still answers 200 — the server is serving, just without its disk
// cache or a peer — so liveness probes don't restart a self-healing
// process; "down" (store closed) answers 503.
type healthResponse struct {
	Status string       `json:"status"` // "ok" | "degraded" | "down"
	Store  store.Health `json:"store"`
	// Cluster reports the ring and per-peer state on clustered nodes.
	// A degraded peer marks the node degraded-but-serving: requests
	// that would have peer-filled compute locally instead.
	Cluster *cluster.Health `json:"cluster,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.Store.Health()
	resp := healthResponse{Status: "ok", Store: h}
	status := http.StatusOK
	if h.Degraded() {
		resp.Status = "degraded"
	}
	if s.cfg.Cluster != nil {
		ch := s.cfg.Cluster.Health()
		resp.Cluster = &ch
		if ch.Degraded() {
			resp.Status = "degraded"
		}
	}
	if h.Closed {
		resp.Status = "down"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// etagFor derives the strong ETag of a response: the content address of
// the configuration plus the negotiated format (the same key rendered
// as CSV and JSON are different representations, so they must not share
// a validator).
func etagFor(key store.Key, f core.Format) string {
	return `"` + key.String() + "-" + f.String() + `"`
}

// etagMatches implements the If-None-Match comparison for strong ETags.
func etagMatches(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == etag || candidate == "*" {
			return true
		}
	}
	return false
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.byID[id]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	req, err := s.decodeRequestV1(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt, format := req.Options, req.Format

	key := store.KeyFor(e.ID, opt)
	etag := etagFor(key, format)
	w.Header().Set("Etag", etag)
	// The key is the content address of the request configuration, so a
	// revalidation needs no lookup at all: same key, same statistics
	// (experiments are deterministic — the equivalence gate's guarantee).
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if err := fpReport.Inject(r.Context()); err != nil {
		s.writeStoreError(w, err)
		return
	}
	res, err := s.cfg.Store.Get(r.Context(), e, opt)
	if err != nil {
		s.writeStoreError(w, err)
		return
	}
	w.Header().Set("Content-Type", format.ContentType())
	w.Header().Set("X-Wsstudy-Key", key.String())
	if format == core.FormatJSON {
		_, _ = w.Write(res.JSON)
		return
	}
	_ = res.Report.Render(w, format)
}

// writeStoreError maps store/compute failures to v1 status codes.
func (s *Server) writeStoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrBusy):
		writeBusy(w, s.cfg.RetryAfter)
	case errors.Is(err, store.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case errors.Is(err, core.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "experiment exceeded its deadline: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "computation cancelled: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// suiteResult is one experiment's row in GET /v1/suite.
type suiteResult struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	OK    bool   `json:"ok"`
	ETag  string `json:"etag,omitempty"`
	Error string `json:"error,omitempty"`
}

// suiteResponse is the GET /v1/suite document.
type suiteResponse struct {
	SchemaVersion int           `json:"schema_version"`
	Scale         string        `json:"scale"`
	Results       []suiteResult `json:"results"`
}

// suiteEtag derives the suite document's strong ETag: the hash of its
// member result keys (in registry order) plus the representation. Keys
// are computable before any result exists, so — exactly like the
// report endpoint — a matching If-None-Match answers 304 with zero
// store access, and any change to the registry, the schema version, or
// the canonical Options encoding changes the validator.
func suiteEtag(list []core.Experiment, opt core.Options) string {
	h := sha256.New()
	for _, e := range list {
		k := store.KeyFor(e.ID, opt)
		h.Write(k[:])
	}
	return `"` + hex.EncodeToString(h.Sum(nil)) + `-suite-json"`
}

// handleSuite computes (or re-serves) every experiment at the requested
// scale and returns one summary document. Fan-out concurrency is sized
// to the store's compute slots so one suite request fills the pool but
// never trips its own backpressure queue; singleflight makes the whole
// request cheap when the per-experiment endpoints already warmed the
// cache.
func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequestV1(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt := req.Options

	etag := suiteEtag(s.list, opt)
	w.Header().Set("Etag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	results := make([]suiteResult, len(s.list))
	sem := make(chan struct{}, s.cfg.Store.Slots())
	var wg sync.WaitGroup
	for i, e := range s.list {
		wg.Add(1)
		go func(i int, e core.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sr := suiteResult{ID: e.ID, Title: e.Title}
			if res, err := s.cfg.Store.Get(r.Context(), e, opt); err != nil {
				sr.Error = err.Error()
			} else {
				sr.OK = true
				sr.ETag = etagFor(res.Key, core.FormatJSON)
			}
			results[i] = sr
		}(i, e)
	}
	wg.Wait()
	for _, sr := range results {
		if !sr.OK {
			// A document with failed members must not be cached against
			// the pre-computed validator: the next request should retry,
			// not revalidate.
			w.Header().Del("Etag")
			break
		}
	}
	writeJSON(w, http.StatusOK, suiteResponse{
		SchemaVersion: core.ReportSchemaVersion,
		Scale:         opt.Scale.String(),
		Results:       results,
	})
}
