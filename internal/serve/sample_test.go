package serve

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"wsstudy/internal/store"
)

// Coverage for the opt.sample axis on the HTTP surface: validation
// through the one typed decoder, key separation, sweep-lattice
// acceptance, and query validation on the /v1/sweeps routes.

// TestOptSampleValidation: every malformed sample rate answers 400 with
// the standard envelope; a valid rate computes and caches under its own
// key.
func TestOptSampleValidation(t *testing.T) {
	var execs atomic.Int64
	_, hs := newTestServer(t, store.Config{}, testRegistry(&execs, nil, nil), nil)

	for _, bad := range []string{"3", "0", "-4", "banana", "12"} {
		resp := get(t, hs.URL+"/v1/experiments/inst/report?opt.sample="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("opt.sample=%s status = %d, want 400", bad, resp.StatusCode)
		}
		decodeEnvelope(t, resp)
	}
	if execs.Load() != 0 {
		t.Fatalf("rejected requests executed the experiment %d times", execs.Load())
	}

	resp := get(t, hs.URL+"/v1/experiments/inst/report?opt.sample=16&opt.scale=quick", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("opt.sample=16 status = %d, want 200", resp.StatusCode)
	}
	if execs.Load() != 1 {
		t.Fatalf("execs = %d, want 1", execs.Load())
	}
	// The sample rate is part of the result key: a different rate is a
	// different computation, the same rate is a cache hit.
	resp = get(t, hs.URL+"/v1/experiments/inst/report?opt.sample=64&opt.scale=quick", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusOK || execs.Load() != 2 {
		t.Fatalf("opt.sample=64: status %d execs %d, want 200/2", resp.StatusCode, execs.Load())
	}
	resp = get(t, hs.URL+"/v1/experiments/inst/report?opt.sample=16&opt.scale=quick", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusOK || execs.Load() != 2 {
		t.Fatalf("repeat opt.sample=16: status %d execs %d, want a cache hit", resp.StatusCode, execs.Load())
	}
	// Rate 1 is the exact profiler — the canonical form of the default.
	resp = get(t, hs.URL+"/v1/experiments/inst/report?opt.scale=quick", nil)
	body(t, resp)
	if execs.Load() != 3 {
		t.Fatalf("default-rate run: execs = %d, want 3", execs.Load())
	}
	resp = get(t, hs.URL+"/v1/experiments/inst/report?opt.sample=1&opt.scale=quick", nil)
	body(t, resp)
	if execs.Load() != 3 {
		t.Fatalf("opt.sample=1 must share the default's key; execs = %d", execs.Load())
	}
}

// TestSweepSampleAxis: the lattice accepts sample as a first-class axis
// and rejects invalid rates at submission, before any cell computes.
func TestSweepSampleAxis(t *testing.T) {
	hs, _ := newSweepServer(t, nil, t.TempDir())

	st, resp := postSweep(t, hs.URL, `{
		"experiment": "gridlu",
		"scale": "quick",
		"axes": [
			{"field": "cache", "values": ["4096"]},
			{"field": "sample", "values": ["1", "16"]}
		]
	}`)
	body(t, resp)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("sample-axis sweep status = %d", resp.StatusCode)
	}
	if st.Total != 2 {
		t.Fatalf("lattice size = %d, want 2", st.Total)
	}
	fin := pollSweep(t, hs.URL, st.ID)
	if fin.Failed != 0 || fin.Completed != 2 {
		t.Fatalf("sample-axis sweep finished %+v", fin)
	}

	badResp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(`{
		"experiment": "gridlu",
		"scale": "quick",
		"axes": [{"field": "sample", "values": ["3"]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sample=3 lattice status = %d, want 400", badResp.StatusCode)
	}
	decodeEnvelope(t, badResp)
}

// TestSweepRoutesValidateQuery: the /v1/sweeps routes run the one typed
// decoder, so unknown and malformed parameters fail loudly there
// instead of being ignored.
func TestSweepRoutesValidateQuery(t *testing.T) {
	hs, _ := newSweepServer(t, nil, t.TempDir())
	for _, q := range []string{"speed=fast", "opt.sample=3"} {
		resp := get(t, hs.URL+"/v1/sweeps?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s on /v1/sweeps status = %d, want 400", q, resp.StatusCode)
		}
		decodeEnvelope(t, resp)
	}
}
