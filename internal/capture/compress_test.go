package capture

import (
	"context"
	"encoding/binary"
	"io"
	"testing"

	"wsstudy/internal/trace"
)

// The store records WST3 (compressed) snapshots. These tests pin that
// choice and its failure modes: the snapshot really is the compressed
// format, it replays bit-identically, and corruption at the head of the
// stream — where nothing has been delivered yet — degrades to a safe
// re-record rather than a failed Run (the mid-stream case is
// TestCorruptReplayFailsRun).

// snapshot reads the committed recording's bytes.
func snapshot(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		t.Fatal("no committed recording")
	}
	b, err := io.ReadAll(e.buf.reader())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotIsCompressed(t *testing.T) {
	s := New(0)
	var live eventLog
	if err := s.Run(context.Background(), "k/wst3", 2, &live, script(2, 20000)); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, s, "k/wst3")
	if got := string(snap[:4]); got != "WST3" {
		t.Fatalf("snapshot magic = %q, want WST3", got)
	}
	// The DEFLATEd frames must undercut the record bytes they carry; each
	// frame header states both lengths.
	var compressed, raw int
	for off := 4; ; {
		plen := int(binary.LittleEndian.Uint32(snap[off:]))
		if plen == 0 {
			break
		}
		compressed += plen
		raw += int(binary.LittleEndian.Uint32(snap[off+4:]))
		off += 16 + plen
	}
	if compressed >= raw {
		t.Fatalf("compressed frames %d bytes >= %d record bytes", compressed, raw)
	}
	// And it replays the identical stream.
	var replayed eventLog
	if err := s.Run(context.Background(), "k/wst3", 2, &replayed, func(trace.Consumer) error {
		t.Fatal("replay path ran the producer")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !replayed.equal(&live) {
		t.Errorf("compressed replay diverged: %d refs vs %d", len(replayed.refs), len(live.refs))
	}
}

// TestCorruptHeadRerecords: damage inside the FIRST chunk means the
// replay fails before delivering anything (chunks verify before
// delivery), so Run may safely fall through to re-recording into the
// same sink — the graceful-degradation path, with real corruption
// rather than an injected fault driving it.
func TestCorruptHeadRerecords(t *testing.T) {
	s := New(0)
	var live eventLog
	if err := s.Run(context.Background(), "k/head", 2, &live, script(2, 20000)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	e := s.entries["k/head"]
	e.buf.chunks[0][30] ^= 0xFF // inside the first chunk's payload (magic 4 + frame header 16)
	s.mu.Unlock()

	var got eventLog
	produced := false
	if err := s.Run(context.Background(), "k/head", 2, &got, func(sink trace.Consumer) error {
		produced = true
		return script(2, 20000)(sink)
	}); err != nil {
		t.Fatalf("head corruption should re-record, not fail: %v", err)
	}
	if !produced {
		t.Error("fallthrough did not re-run the producer")
	}
	if !got.equal(&live) {
		t.Error("re-recorded stream diverged")
	}
	if s.Len() != 1 {
		t.Error("re-record did not commit a fresh recording")
	}
}
