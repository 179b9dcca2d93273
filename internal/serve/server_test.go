package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// testRegistry builds a tiny registry: "inst" counts executions, and
// "blocked" (when gate is non-nil) parks inside Run until released.
func testRegistry(execs *atomic.Int64, started chan<- struct{}, gate <-chan struct{}) []core.Experiment {
	reg := []core.Experiment{{
		ID:    "inst",
		Title: "instant experiment",
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			execs.Add(1)
			r := &core.Report{Title: "instant"}
			r.Tables = append(r.Tables, core.Table{
				Title: "t", Header: []string{"scale"}, Rows: [][]string{{opt.Scale.String()}},
			})
			return r, nil
		},
	}}
	if gate != nil {
		reg = append(reg, core.Experiment{
			ID:    "blocked",
			Title: "parks until released",
			Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
				if started != nil {
					started <- struct{}{}
				}
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return &core.Report{Title: "blocked"}, nil
			},
		})
	}
	return reg
}

// newTestServer wires a server + store over the given registry.
func newTestServer(t *testing.T, scfg store.Config, reg []core.Experiment, rec *obs.Recorder) (*Server, *httptest.Server) {
	t.Helper()
	scfg.Recorder = rec
	st, err := store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Registry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		st.Close(context.Background())
	})
	return srv, hs
}

func get(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	buf := make([]byte, 0, 4096)
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	return string(buf)
}

func TestListExperiments(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)
	resp := get(t, hs.URL+"/v1/experiments", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Experiments   []struct {
			ID         string `json:"id"`
			ReportPath string `json:"report_path"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &doc); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if doc.SchemaVersion != core.ReportSchemaVersion || len(doc.Experiments) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Experiments[0].ReportPath != "/v1/experiments/inst/report" {
		t.Errorf("report_path = %q", doc.Experiments[0].ReportPath)
	}
}

// TestReportJSONAndConditional covers the acceptance criterion: a first
// request computes and carries an ETag; repeating it is a store hit
// with the same ETag; revalidating with If-None-Match answers 304
// without executing anything.
func TestReportJSONAndConditional(t *testing.T) {
	var execs atomic.Int64
	rec := obs.New()
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), rec)
	url := hs.URL + "/v1/experiments/inst/report?opt.scale=quick"

	resp := get(t, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing/weak ETag %q", etag)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var v core.ReportV1
	if err := json.Unmarshal([]byte(body(t, resp)), &v); err != nil {
		t.Fatalf("report body not ReportV1 JSON: %v", err)
	}
	if v.SchemaVersion != core.ReportSchemaVersion || v.Title != "instant" {
		t.Errorf("report = %+v", v)
	}

	// Repeat: a store hit with a matching ETag.
	resp2 := get(t, url, nil)
	body(t, resp2)
	if resp2.Header.Get("Etag") != etag {
		t.Errorf("repeat ETag %q != %q", resp2.Header.Get("Etag"), etag)
	}
	if execs.Load() != 1 {
		t.Fatalf("repeat request recomputed (%d executions)", execs.Load())
	}
	if rec.Counter(obs.StoreHits).Value() != 1 {
		t.Errorf("store hits = %d, want 1", rec.Counter(obs.StoreHits).Value())
	}

	// Revalidation: 304, no body, nothing executed.
	resp3 := get(t, url, map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp3.StatusCode)
	}
	if b := body(t, resp3); b != "" {
		t.Errorf("304 carried a body: %q", b)
	}
	if execs.Load() != 1 {
		t.Errorf("revalidation executed the experiment")
	}
	if rec.Counter(obs.ServeNotModified).Value() != 1 {
		t.Errorf("304 not counted")
	}

	// A different scale is different content: different ETag.
	respFull := get(t, hs.URL+"/v1/experiments/inst/report?opt.scale=full", nil)
	body(t, respFull)
	if respFull.Header.Get("Etag") == etag {
		t.Errorf("quick and full share an ETag")
	}
}

// TestFormatNegotiation: ?format= and Accept drive the rendering, and
// CSV/JSON ETags differ (different representations).
func TestFormatNegotiation(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)
	base := hs.URL + "/v1/experiments/inst/report?opt.scale=quick"

	jsonETag := ""
	{
		resp := get(t, base, nil)
		jsonETag = resp.Header.Get("Etag")
		body(t, resp)
	}
	{
		resp := get(t, base+"&format=text", nil)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("text Content-Type = %q", ct)
		}
		if b := body(t, resp); !strings.Contains(b, "== instant ==") {
			t.Errorf("text body wrong:\n%s", b)
		}
	}
	{
		resp := get(t, base, map[string]string{"Accept": "text/csv"})
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("csv Content-Type = %q", ct)
		}
		if resp.Header.Get("Etag") == jsonETag {
			t.Errorf("csv and json share an ETag")
		}
		body(t, resp)
	}
	{
		resp := get(t, base+"&format=xml", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown format status = %d, want 400", resp.StatusCode)
		}
		body(t, resp)
	}
	{
		resp := get(t, hs.URL+"/v1/experiments/inst/report?opt.scale=mega", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown scale status = %d, want 400", resp.StatusCode)
		}
		body(t, resp)
	}
	{
		resp := get(t, hs.URL+"/v1/experiments/nosuch/report", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
		}
		body(t, resp)
	}
}

// TestBackpressure429: with the single slot held and no queue, a
// different key answers 429 with Retry-After.
func TestBackpressure429(t *testing.T) {
	var execs atomic.Int64
	rec := obs.New()
	started := make(chan struct{})
	gate := make(chan struct{})
	_, hs := newTestServer(t, store.Config{Slots: 1, MaxQueue: -1},
		testRegistry(&execs, started, gate), rec)

	blockedDone := make(chan int, 1)
	go func() {
		resp := get(t, hs.URL+"/v1/experiments/blocked/report", nil)
		body(t, resp)
		blockedDone <- resp.StatusCode
	}()
	<-started // the blocked run owns the only slot

	resp := get(t, hs.URL+"/v1/experiments/inst/report", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &e); err != nil || e.Error == "" {
		t.Errorf("429 body not a JSON error: %v", err)
	}
	if rec.Counter(obs.ServeBusy).Value() != 1 {
		t.Errorf("429 not counted")
	}

	close(gate)
	if code := <-blockedDone; code != http.StatusOK {
		t.Fatalf("blocked request finished %d", code)
	}
}

// TestSuiteEndpoint: one document summarizing every experiment, with
// per-result ETags that match the report endpoint's.
func TestSuiteEndpoint(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)
	resp := get(t, hs.URL+"/v1/suite?opt.scale=quick", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Scale   string `json:"scale"`
		Results []struct {
			ID   string `json:"id"`
			OK   bool   `json:"ok"`
			ETag string `json:"etag"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &doc); err != nil {
		t.Fatalf("suite not JSON: %v", err)
	}
	if doc.Scale != "quick" || len(doc.Results) != 1 || !doc.Results[0].OK {
		t.Fatalf("suite doc = %+v", doc)
	}

	rep := get(t, hs.URL+"/v1/experiments/inst/report?opt.scale=quick", nil)
	body(t, rep)
	if rep.Header.Get("Etag") != doc.Results[0].ETag {
		t.Errorf("suite etag %q != report etag %q", doc.Results[0].ETag, rep.Header.Get("Etag"))
	}
	// The suite warmed the cache; the report request reused it.
	if execs.Load() != 1 {
		t.Errorf("executions = %d, want 1", execs.Load())
	}
}

// TestGracefulShutdown: Shutdown drains an in-flight request (the
// response completes), then the store refuses further work.
func TestGracefulShutdown(t *testing.T) {
	var execs atomic.Int64
	rec := obs.New()
	st, err := store.New(store.Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	gate := make(chan struct{})
	srv, err := New(Config{Store: st, Registry: testRegistry(&execs, started, gate), Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", srv.Addr(), addr)
	}

	inflight := make(chan int, 1)
	go func() {
		resp := get(t, "http://"+addr+"/v1/experiments/blocked/report", nil)
		body(t, resp)
		inflight <- resp.StatusCode
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight run, not cut it off.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200 (drained)", code)
	}
	// New connections are refused after shutdown.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Errorf("post-shutdown request succeeded")
	}
}

func TestHealthz(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)
	resp := get(t, hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	body(t, resp)
}
