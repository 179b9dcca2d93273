package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/obs"
	"wsstudy/internal/store"
	"wsstudy/internal/sweep"
)

// envelope is the one JSON error shape every v1 failure uses.
type envelope struct {
	Error      string `json:"error"`
	Status     int    `json:"status"`
	RetryAfter int    `json:"retry_after"`
}

// decodeEnvelope demands the response body is a well-formed error
// envelope whose status field echoes the HTTP code.
func decodeEnvelope(t *testing.T, resp *http.Response) envelope {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var env envelope
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if env.Error == "" {
		t.Error("envelope has an empty error message")
	}
	if env.Status != resp.StatusCode {
		t.Errorf("envelope status = %d, HTTP status = %d", env.Status, resp.StatusCode)
	}
	return env
}

// TestErrorEnvelopeEverywhere sweeps the failure surface: every error —
// including the mux-level 404 and 405 that ServeMux would answer in
// text — must come back as the one JSON envelope.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)

	cases := []struct {
		name   string
		method string
		path   string
		want   int
	}{
		{"catch-all 404", http.MethodGet, "/nope", http.StatusNotFound},
		{"unknown experiment", http.MethodGet, "/v1/experiments/bogus/report", http.StatusNotFound},
		{"method not allowed", http.MethodPost, "/v1/experiments", http.StatusMethodNotAllowed},
		{"unknown parameter", http.MethodGet, "/v1/experiments/inst/report?speed=fast", http.StatusBadRequest},
		{"repeated parameter", http.MethodGet, "/v1/experiments/inst/report?opt.scale=quick&opt.scale=full", http.StatusBadRequest},
		{"bad axis value", http.MethodGet, "/v1/experiments/inst/report?opt.cache=lots", http.StatusBadRequest},
		{"sweep unconfigured", http.MethodGet, "/v1/sweeps", http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			decodeEnvelope(t, resp)
			if tc.want == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}
}

// TestHeadRidesGet: HEAD answers like GET (status and headers, ETag
// included) on every GET route — header-only revalidation probes
// (`curl -sI`) depend on it.
func TestHeadRidesGet(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)
	for _, path := range []string{
		"/v1/experiments",
		"/v1/experiments/inst/report?opt.scale=quick",
		"/v1/suite?opt.scale=quick",
		"/healthz",
	} {
		req, err := http.NewRequest(http.MethodHead, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s = %d, want 200", path, resp.StatusCode)
		}
		if strings.Contains(path, "report") && resp.Header.Get("Etag") == "" {
			t.Errorf("HEAD %s answered without an ETag", path)
		}
	}
}

// TestBareScaleRejected: the bare ?scale= alias is gone, so every route
// that decodes the v1 query answers it like any other unknown
// parameter, with a 400 envelope naming it, before any computation or
// sweep lookup runs.
func TestBareScaleRejected(t *testing.T) {
	hs, _ := newSweepServer(t, nil, t.TempDir())
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/experiments/gridlu/report?scale=quick"},
		{http.MethodGet, "/v1/suite?scale=quick"},
		{http.MethodGet, "/v1/sweeps?scale=quick"},
		{http.MethodPost, "/v1/sweeps?scale=quick"},
		{http.MethodGet, "/v1/sweeps/deadbeef?scale=quick"},
		{http.MethodGet, "/v1/sweeps/deadbeef/grain?scale=quick"},
	} {
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(sweepSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			body(t, resp)
			t.Errorf("%s %s = %d, want 400", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if env := decodeEnvelope(t, resp); !strings.Contains(env.Error, `unknown parameter "scale"`) {
			t.Errorf("%s %s: error %q does not name the unknown parameter", tc.method, tc.path, env.Error)
		}
	}
}

// TestSuiteETagConditional: the suite document carries a strong ETag
// over its member keys, and If-None-Match short-circuits to 304 before
// any member computes.
func TestSuiteETagConditional(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)

	resp := get(t, hs.URL+"/v1/suite?opt.scale=quick", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suite status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("suite answered without an ETag")
	}
	ran := execs.Load()

	cond := get(t, hs.URL+"/v1/suite?opt.scale=quick", map[string]string{"If-None-Match": etag})
	body(t, cond)
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional suite status = %d, want 304", cond.StatusCode)
	}
	if execs.Load() != ran {
		t.Errorf("304 recomputed members: executions %d -> %d", ran, execs.Load())
	}

	// A different scale is a different document: the ETag must miss.
	other := get(t, hs.URL+"/v1/suite?opt.scale=full", map[string]string{"If-None-Match": etag})
	body(t, other)
	if other.StatusCode != http.StatusOK {
		t.Fatalf("cross-scale conditional status = %d, want 200", other.StatusCode)
	}
	if got := other.Header.Get("Etag"); got == etag {
		t.Error("full and quick suites share an ETag")
	}
}

// newSweepServer wires a server whose sweep engine journals under dir.
func newSweepServer(t *testing.T, rec *obs.Recorder, dir string) (*httptest.Server, *sweep.Engine) {
	t.Helper()
	st, err := store.New(store.Config{Slots: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sweep.NewEngine(sweep.Config{Store: st, Dir: dir, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Sweeps: eng, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		eng.Close()
		st.Close(context.Background())
	})
	return hs, eng
}

// sweepSpecJSON is the lattice every sweep HTTP test submits.
const sweepSpecJSON = `{
	"experiment": "gridlu",
	"scale": "quick",
	"axes": [
		{"field": "cache", "values": ["4096", "16384"]},
		{"field": "pes", "values": ["16", "64"]}
	]
}`

// postSweep submits a spec and returns the decoded status.
func postSweep(t *testing.T, base, spec string) (sweep.Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st sweep.Status
	if err := json.Unmarshal([]byte(body(t, resp)), &st); err != nil {
		t.Fatalf("sweep status not JSON: %v", err)
	}
	return st, resp
}

// pollSweep polls the status resource until Done.
func pollSweep(t *testing.T, base, id string) sweep.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := get(t, base+"/v1/sweeps/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep poll status = %d", resp.StatusCode)
		}
		var st sweep.Status
		if err := json.Unmarshal([]byte(body(t, resp)), &st); err != nil {
			t.Fatalf("sweep status not JSON: %v", err)
		}
		if st.Done {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepHTTPFlow drives the whole resource lifecycle over HTTP:
// POST answers 202 with a Location, the status resource converges to
// Done, the grain endpoint scores the lattice, and the list endpoint
// names the sweep. Degenerate requests answer enveloped errors.
func TestSweepHTTPFlow(t *testing.T) {
	hs, _ := newSweepServer(t, nil, t.TempDir())

	st, resp := postSweep(t, hs.URL, sweepSpecJSON)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+st.ID {
		t.Errorf("Location = %q, want /v1/sweeps/%s", loc, st.ID)
	}
	if st.Total != 4 {
		t.Fatalf("total = %d, want 4", st.Total)
	}
	fin := pollSweep(t, hs.URL, st.ID)
	if fin.Completed != 4 || fin.Failed != 0 {
		t.Fatalf("finished sweep = %+v", fin)
	}

	// Grain: a 409 is impossible now (done), the advice must score the
	// 2x2 pes-cache lattice.
	gresp := get(t, hs.URL+"/v1/sweeps/"+st.ID+"/grain?data_bytes=1048576", nil)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("grain status = %d: %s", gresp.StatusCode, body(t, gresp))
	}
	var adv struct {
		Best struct {
			Design struct {
				P int `json:"p"`
			} `json:"design"`
		} `json:"best"`
		Evals []json.RawMessage `json:"evals"`
	}
	if err := json.Unmarshal([]byte(body(t, gresp)), &adv); err != nil {
		t.Fatalf("grain not JSON: %v", err)
	}
	if adv.Best.Design.P <= 0 || len(adv.Evals) != 4 {
		t.Errorf("grain advice = %+v, want a best design over 4 evals", adv)
	}

	list := get(t, hs.URL+"/v1/sweeps", nil)
	var ls sweepListResponse
	if err := json.Unmarshal([]byte(body(t, list)), &ls); err != nil {
		t.Fatalf("sweep list not JSON: %v", err)
	}
	if len(ls.Sweeps) != 1 || ls.Sweeps[0].ID != st.ID || !ls.Sweeps[0].Done {
		t.Errorf("sweep list = %+v", ls)
	}

	for _, bad := range []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"unknown sweep", func() *http.Response {
			return get(t, hs.URL+"/v1/sweeps/deadbeef", nil)
		}, http.StatusNotFound},
		{"unknown grain", func() *http.Response {
			return get(t, hs.URL+"/v1/sweeps/deadbeef/grain", nil)
		}, http.StatusNotFound},
		{"bad data_bytes", func() *http.Response {
			return get(t, hs.URL+"/v1/sweeps/"+st.ID+"/grain?data_bytes=banana", nil)
		}, http.StatusBadRequest},
		{"unknown spec field", func() *http.Response {
			resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json",
				strings.NewReader(`{"experiment":"gridlu","lattice":[]}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"bogus experiment", func() *http.Response {
			resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json",
				strings.NewReader(`{"experiment":"bogus","axes":[{"field":"cache","values":["1"]}]}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
	} {
		t.Run(bad.name, func(t *testing.T) {
			resp := bad.do()
			if resp.StatusCode != bad.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, bad.want)
			}
			decodeEnvelope(t, resp)
		})
	}
}

// TestSweepHTTPRestartResume is satellite four over the wire: finish a
// sweep, tear the whole serving stack down, bring up a fresh one over
// the same journal dir with a cold store, re-POST the identical spec,
// and demand every cell revives without recomputation.
func TestSweepHTTPRestartResume(t *testing.T) {
	dir := t.TempDir()

	first, eng1 := newSweepServer(t, nil, dir)
	st, _ := postSweep(t, first.URL, sweepSpecJSON)
	fin := pollSweep(t, first.URL, st.ID)
	if fin.Failed != 0 {
		t.Fatalf("first pass failed cells: %+v", fin)
	}
	first.Close()
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	second, _ := newSweepServer(t, rec, dir)
	st2, _ := postSweep(t, second.URL, sweepSpecJSON)
	if st2.ID != st.ID {
		t.Fatalf("identical spec mapped to %s, want %s", st2.ID, st.ID)
	}
	fin2 := pollSweep(t, second.URL, st2.ID)
	if fin2.Revived != fin2.Total || fin2.Failed != 0 {
		t.Fatalf("resumed sweep = %+v, want all %d cells revived", fin2, fin2.Total)
	}
	m := rec.Snapshot()
	if got := m.Counter(obs.SweepCellsRevived); got != uint64(fin2.Total) {
		t.Errorf("%s = %d, want %d", obs.SweepCellsRevived, got, fin2.Total)
	}
	if got := m.Counter(obs.SweepCellsComputed); got != 0 {
		t.Errorf("%s = %d, want 0 — resume recomputed journaled cells", obs.SweepCellsComputed, got)
	}
}
