package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// WST3 coverage: the compressed framed format must round-trip exactly,
// shrink the records it carries, and fail as loudly as WST2 under
// truncation and bit damage — the CRC covers the uncompressed bytes, so
// storage corruption is caught whether it breaks the DEFLATE stream or
// survives decompression.

// frameSizes walks a WST3 stream's frame headers and totals the
// compressed payload bytes and the record bytes they inflate to.
func frameSizes(t *testing.T, enc []byte) (compressed, raw int) {
	t.Helper()
	if !bytes.HasPrefix(enc, magicV3[:]) {
		t.Fatalf("magic %q, want WST3", enc[:4])
	}
	for off := 4; ; {
		plen := int(binary.LittleEndian.Uint32(enc[off:]))
		if plen == 0 {
			return compressed, raw
		}
		compressed += plen
		raw += int(binary.LittleEndian.Uint32(enc[off+4:]))
		off += 16 + plen
	}
}

// shortLength returns a copy of a WST3 stream whose first frame declares
// one byte less than it inflates to.
func shortLength(enc []byte) []byte {
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(bad[8:12], binary.LittleEndian.Uint32(bad[8:12])-1)
	return bad
}

func TestCompressedRoundTrip(t *testing.T) {
	in := genRefs(60000) // spans several chunks
	enc := encode(t, in)
	var out collect
	n, err := Replay(bytes.NewReader(enc), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) {
		t.Fatalf("replayed %d refs, want %d", n, len(in))
	}
	for i := range in {
		if out.refs[i] != in[i] {
			t.Fatalf("ref %d: got %+v want %+v", i, out.refs[i], in[i])
		}
	}
	if want := (len(in) + 99) / 100; len(out.epochs) != want {
		t.Fatalf("epochs = %d, want %d", len(out.epochs), want)
	}
}

// TestCompressedSmaller pins the point of WST3: a strided stream's frames
// carry less than half the bytes of the delta-varint records inside
// them. Strided kernel traces are the common case, and their records
// compress well.
func TestCompressedSmaller(t *testing.T) {
	var refs []Ref
	for i := 0; i < 100000; i++ {
		refs = append(refs, Ref{PE: i / 25000, Addr: uint64(i%25000) * 8, Size: 8, Kind: Read})
	}
	enc := encode(t, refs)
	if compressed, raw := frameSizes(t, enc); compressed >= raw/2 {
		t.Fatalf("frames carry %d bytes for %d record bytes: compression buys less than 2x on a strided stream", compressed, raw)
	}
	var out collect
	if _, err := Replay(bytes.NewReader(enc), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.refs) != len(refs) {
		t.Fatalf("replayed %d refs, want %d", len(out.refs), len(refs))
	}
	for i := range refs {
		if out.refs[i] != refs[i] {
			t.Fatalf("ref %d: got %+v want %+v", i, out.refs[i], refs[i])
		}
	}
}

func TestCompressedTruncated(t *testing.T) {
	in := genRefs(60000)
	enc := encode(t, in)
	for _, cut := range []int{
		len(enc) - 4,  // end-of-trace marker gone
		len(enc) / 2,  // mid-chunk
		len(enc) - 10, // inside the final chunk
		6,             // inside the first chunk header
	} {
		var out collect
		_, err := Replay(bytes.NewReader(enc[:cut]), &out)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cut at %d: err = %v, want *CorruptError", cut, err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err does not match ErrCorrupt", cut)
		}
		if ce.Records != uint64(len(out.refs)) {
			t.Fatalf("cut at %d: error says %d records, sink saw %d",
				cut, ce.Records, len(out.refs))
		}
		for i, r := range out.refs {
			if r != in[i] {
				t.Fatalf("cut at %d: delivered ref %d corrupted", cut, i)
			}
		}
	}
}

// TestCompressedBitFlip: damage anywhere in a WST3 stream — frame
// header, DEFLATE payload, end marker — must yield a typed corruption
// error, and only verified-chunk prefixes may reach the sink.
func TestCompressedBitFlip(t *testing.T) {
	in := genRefs(60000)
	enc := encode(t, in)
	for _, pos := range []int{4 + 16 + 10, len(enc) / 3, 2 * len(enc) / 3} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x10
		var out collect
		_, err := Replay(bytes.NewReader(bad), &out)
		if err == nil {
			t.Fatalf("flip at %d: corruption not detected", pos)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			continue // a header flip may misparse first; any error is fine
		}
		if ce.Records != uint64(len(out.refs)) {
			t.Fatalf("flip at %d: error says %d records, sink saw %d",
				pos, ce.Records, len(out.refs))
		}
		for i, r := range out.refs {
			if r != in[i] {
				t.Fatalf("flip at %d: delivered ref %d corrupted", pos, i)
			}
		}
	}
}

// TestCompressedShortLength: a frame that declares one byte less than it
// inflates to lies about its content, and must fail as corrupt before
// any of its records reach the sink.
func TestCompressedShortLength(t *testing.T) {
	var out collect
	_, err := Replay(bytes.NewReader(shortLength(encode(t, genRefs(1000)))), &out)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "declared length") {
		t.Fatalf("err = %v, want a CorruptError about the declared length", err)
	}
	if len(out.refs) != 0 {
		t.Fatalf("%d refs delivered from a frame that failed verification", len(out.refs))
	}
}
