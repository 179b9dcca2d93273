package serve

import (
	"net/http"
	"net/url"
	"testing"

	"wsstudy/internal/core"
	"wsstudy/internal/store"
)

// FuzzDecodeRequestV1 throws arbitrary query strings at the v1 request
// decoder, the trust boundary every report, suite and sweep request
// crosses. It must never panic; bare scale (the removed alias) and
// repeated parameters are always rejected; and a query it accepts must
// key the same result as the canonical re-encoding of the options it
// decoded, so two spellings of one configuration can never split the
// content-addressed store.
func FuzzDecodeRequestV1(f *testing.F) {
	for _, q := range []string{
		"",
		"opt.scale=quick",
		"opt.scale=FULL&opt.cache=4096&format=csv",
		"opt.sample=16&opt.pes=064&opt.line=+8",
		"opt.assoc=2&opt.problem=1&opt.cache=0",
		"scale=quick",
		"scale=",
		"opt.scale=quick&opt.scale=full",
		"opt.cache=lots",
		"opt.sample=3",
		"speed=fast",
		"format=xml",
		"opt.cache=%zz",
		"opt.scale=quick;opt.cache=1",
	} {
		f.Add(q)
	}
	s := &Server{}
	f.Fuzz(func(t *testing.T, query string) {
		r := &http.Request{URL: &url.URL{RawQuery: query}}
		req, err := s.decodeRequestV1(r)
		q := r.URL.Query()
		if _, bare := q["scale"]; bare && err == nil {
			t.Fatalf("query %q: bare scale accepted", query)
		}
		for k, vs := range q {
			if len(vs) > 1 && err == nil {
				t.Fatalf("query %q: repeated %q accepted", query, k)
			}
		}
		if err != nil {
			return
		}
		canon := url.Values{}
		for _, field := range core.AxisFields() {
			canon.Set("opt."+field, req.Options.AxisValue(field))
		}
		again, err := s.decodeRequestV1(&http.Request{URL: &url.URL{RawQuery: canon.Encode()}})
		if err != nil {
			t.Fatalf("query %q: canonical re-encoding %q rejected: %v", query, canon.Encode(), err)
		}
		if store.KeyFor("fuzz", again.Options) != store.KeyFor("fuzz", req.Options) {
			t.Fatalf("query %q and its re-encoding %q key different results", query, canon.Encode())
		}
	})
}
