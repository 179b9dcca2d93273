package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// canonVersion tags the canonical Options encoding; bump it whenever an
// existing encoding string could alias a semantically different new one,
// so stale fingerprints can never collide with new configurations.
// Version 2 added the design-space axes (cache, line, assoc, pes,
// problem), invalidating every v1 key at once. Appending a brand-new key
// (sample, PR 9) stays within v2: old strings lack the key entirely, so
// they cannot alias any new encoding — they simply stop being produced.
const canonVersion = 2

// Canonical returns the stable textual encoding of the Options used to
// key experiment results: `optv2;key=value;...` with keys sorted,
// defaults written out explicitly, and zero values normalized, so any
// two Options that would produce the same Report encode identically.
//
// Only result-affecting fields participate. Timeout is deliberately
// excluded: a deadline bounds how long a run may take, but experiments
// are deterministic, so it cannot change the content of a report that
// completes — and excluding it lets a request with a 30s budget reuse a
// result computed under a 5m one. Nothing about the host reaches a
// report either — TestShardedDeterminism holds one byte-identical at
// GOMAXPROCS=1 and 2 — so a result computed on one host is valid on any
// other.
func (o Options) Canonical() string {
	keys := AxisFields()
	var sb strings.Builder
	fmt.Fprintf(&sb, "optv%d", canonVersion)
	for _, k := range keys {
		sb.WriteByte(';')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(o.AxisValue(k))
	}
	return sb.String()
}

// The axis registry: every semantic Options field, by its canonical
// name. A sweep lattice's axes are validated against this set, and the
// HTTP layer derives its `opt.<axis>` query parameters from it, so the
// canonical encoding, the sweep surface and the request surface can
// never drift apart.
const (
	AxisScale   = "scale"
	AxisCache   = "cache"
	AxisLine    = "line"
	AxisAssoc   = "assoc"
	AxisPEs     = "pes"
	AxisProblem = "problem"
	AxisSample  = "sample"
)

// AxisFields lists the sweepable canonical Options fields in encoding
// order (sorted). The returned slice is the caller's to keep.
func AxisFields() []string {
	return []string{AxisAssoc, AxisCache, AxisLine, AxisPEs, AxisProblem, AxisSample, AxisScale}
}

// AxisValue reads the canonical string value of one axis field; ""
// for an unknown field name.
func (o Options) AxisValue(field string) string {
	switch field {
	case AxisScale:
		return o.Scale.String()
	case AxisCache:
		return strconv.FormatUint(o.CacheBytes, 10)
	case AxisLine:
		return strconv.Itoa(o.LineBytes)
	case AxisAssoc:
		return strconv.Itoa(o.Assoc)
	case AxisPEs:
		return strconv.Itoa(o.PEs)
	case AxisProblem:
		return strconv.Itoa(o.Problem)
	case AxisSample:
		// Zero (unset) normalizes to the exact profiler's rate 1, so
		// pre-sampling Options encode identically to an explicit exact run.
		if o.SampleRate <= 1 {
			return "1"
		}
		return strconv.Itoa(o.SampleRate)
	}
	return ""
}

// SetAxis sets the named canonical field from its string form — the
// inverse of AxisValue, used by the sweep lattice and the HTTP request
// decoder. Numeric axes accept non-negative integers (bytes for cache
// and line); scale accepts "quick" and "full". Unknown fields and
// malformed values are errors.
func (o *Options) SetAxis(field, value string) error {
	switch field {
	case AxisScale:
		s, err := ParseScale(value)
		if err != nil {
			return err
		}
		o.Scale = s
		return nil
	case AxisCache:
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("core: axis %s: %q is not a non-negative byte count", field, value)
		}
		o.CacheBytes = v
		return nil
	case AxisLine, AxisAssoc, AxisPEs, AxisProblem:
		v, err := strconv.Atoi(value)
		if err != nil || v < 0 {
			return fmt.Errorf("core: axis %s: %q is not a non-negative integer", field, value)
		}
		switch field {
		case AxisLine:
			o.LineBytes = v
		case AxisAssoc:
			o.Assoc = v
		case AxisPEs:
			o.PEs = v
		case AxisProblem:
			o.Problem = v
		}
		return nil
	case AxisSample:
		v, err := strconv.Atoi(value)
		if err != nil || v < 1 || v&(v-1) != 0 {
			return fmt.Errorf("core: axis %s: %q is not a power-of-two sampling rate ≥ 1", field, value)
		}
		o.SampleRate = v
		return nil
	}
	return fmt.Errorf("core: unknown options axis %q (valid: %s)",
		field, strings.Join(AxisFields(), ", "))
}

// Fingerprint returns the hex SHA-256 of the canonical encoding — the
// stable identity the CLI, the result store, and tests all use to key a
// configuration. Equal Options always fingerprint equally; Options that
// differ only in non-semantic fields (Timeout) do too.
func (o Options) Fingerprint() string {
	sum := sha256.Sum256([]byte(o.Canonical()))
	return hex.EncodeToString(sum[:])
}

// resultKeySchema is the schema tag frozen into ResultKey derivation.
// It deliberately does NOT track ReportSchemaVersion: additive schema
// evolutions (new optional fields, like ReportV1's sampling block) keep
// old persisted reports revivable, so their content addresses must stay
// stable too. Bump this only for a breaking schema change that really
// must orphan every persisted rendering at once.
const resultKeySchema = 1

// ResultKey derives the content address of one (experiment id, Options)
// result: SHA-256 over the experiment id, the frozen result-key schema
// tag, and the canonical Options encoding. Options that canonicalize
// identically — regardless of Timeout or field order — always map to the
// same key. The result store and the suite checkpoint journal both key
// by this, so a journaled cell and a cached report for the same
// configuration can never disagree about identity.
func ResultKey(id string, o Options) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "wsstudy.result;schema=%d;experiment=%s;%s",
		resultKeySchema, id, o.Canonical())
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// ParseScale parses a scale name as used by the CLI and the HTTP API:
// "full" (or "") and "quick", case-insensitively.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "", "full":
		return ScaleFull, nil
	case "quick":
		return ScaleQuick, nil
	}
	return 0, fmt.Errorf("core: unknown scale %q (valid: full, quick)", s)
}
