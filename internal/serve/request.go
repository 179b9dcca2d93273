package serve

import (
	"fmt"
	"net/http"
	"strings"

	"wsstudy/internal/core"
)

// RequestV1 is the decoded form of a v1 query string — the one request
// surface the report, suite and sweep endpoints share. The recognized
// parameters are derived from the core Options axis registry
// (opt.<axis> for every core.AxisFields entry) plus format, so the
// request surface can never drift from the canonical encoding that
// keys results.
type RequestV1 struct {
	Options core.Options
	Format  core.Format
}

// recognizedParams names every query parameter the v1 surface accepts,
// beyond any endpoint-specific extras.
func recognizedParams() []string {
	out := []string{"format"}
	for _, f := range core.AxisFields() {
		out = append(out, "opt."+f)
	}
	return out
}

// decodeRequestV1 parses and validates a request's query string.
// Unknown and repeated parameters are rejected — a misspelled
// opt.cahce must fail loudly, not silently key a default-configured
// result. extra lists endpoint-specific parameters to accept (the grain
// endpoint's data_bytes); their values are read by the caller.
func (s *Server) decodeRequestV1(r *http.Request, extra ...string) (RequestV1, error) {
	q := r.URL.Query()
	known := map[string]bool{}
	for _, p := range recognizedParams() {
		known[p] = true
	}
	for _, p := range extra {
		known[p] = true
	}
	for k, vs := range q {
		if !known[k] {
			return RequestV1{}, fmt.Errorf("unknown parameter %q (recognized: %s)",
				k, strings.Join(append(recognizedParams(), extra...), ", "))
		}
		if len(vs) > 1 {
			return RequestV1{}, fmt.Errorf("parameter %q repeated", k)
		}
	}

	req := RequestV1{
		Options: core.Options{Scale: s.cfg.DefaultScale, Timeout: s.cfg.ComputeTimeout},
	}
	for _, f := range core.AxisFields() {
		if raw := q.Get("opt." + f); raw != "" {
			if err := req.Options.SetAxis(f, raw); err != nil {
				return RequestV1{}, err
			}
		}
	}
	format, err := negotiateFormat(r)
	if err != nil {
		return RequestV1{}, err
	}
	req.Format = format
	return req, nil
}

// negotiateFormat picks the rendering: an explicit ?format= wins, then
// the Accept header (text/csv, text/plain, application/json), then JSON.
func negotiateFormat(r *http.Request) (core.Format, error) {
	if raw := r.URL.Query().Get("format"); raw != "" {
		return core.ParseFormat(raw)
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "text/csv"):
		return core.FormatCSV, nil
	case strings.Contains(accept, "text/plain"):
		return core.FormatText, nil
	default:
		return core.FormatJSON, nil
	}
}
