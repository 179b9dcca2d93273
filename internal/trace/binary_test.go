package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

// collect gathers refs and epochs for comparison.
type collect struct {
	refs   []Ref
	epochs []int
}

func (c *collect) Ref(r Ref)        { c.refs = append(c.refs, r) }
func (c *collect) BeginEpoch(n int) { c.epochs = append(c.epochs, n) }

// fixture reads a trace from testdata. Nothing writes WST1 or WST2; these
// fixtures were recorded by the writers of those formats and keep their
// decoders under test, because traces already on disk use them:
//
//	wst1.trace       BeginEpoch(0), then genRefs(3000)
//	wst2.trace       genRefs(12000), BeginEpoch(i/100) before every 100th ref
//	fuzz-wst1.trace  300 strided refs (FuzzReplay's WST1 seed)
//	fuzz-wst2.trace  BeginEpoch(0), then 300 strided refs (its WST2 seed)
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinaryRoundTripBasic(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []Ref{
		{PE: 0, Addr: 0x1000, Size: 8, Kind: Read},
		{PE: 0, Addr: 0x1008, Size: 8, Kind: Write},
		{PE: 2, Addr: 0x2000, Size: 16, Kind: Read},
		{PE: 0, Addr: 0x0ff8, Size: 8, Kind: Read}, // negative delta
	}
	w.BeginEpoch(0)
	for _, r := range in {
		w.Ref(r)
	}
	w.BeginEpoch(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != uint64(len(in)) {
		t.Fatalf("records = %d", w.Records())
	}

	var out collect
	n, err := Replay(&buf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) {
		t.Fatalf("replayed %d refs, want %d", n, len(in))
	}
	for i, r := range in {
		if out.refs[i] != r {
			t.Fatalf("ref %d: got %+v want %+v", i, out.refs[i], r)
		}
	}
	if len(out.epochs) != 2 || out.epochs[0] != 0 || out.epochs[1] != 1 {
		t.Fatalf("epochs = %v", out.epochs)
	}
}

// TestBinaryRoundTripProperty fuzzes random traces through the codec.
func TestBinaryRoundTripProperty(t *testing.T) {
	check := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		rng := rand.New(rand.NewSource(seed))
		in := make([]Ref, n)
		for i := range in {
			kind := Read
			if rng.Intn(2) == 0 {
				kind = Write
			}
			in[i] = Ref{
				PE:   rng.Intn(8),
				Addr: uint64(rng.Int63n(1 << 40)),
				Size: uint32(1 + rng.Intn(64)),
				Kind: kind,
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for i, r := range in {
			if i%100 == 0 {
				w.BeginEpoch(i / 100)
			}
			w.Ref(r)
		}
		if w.Flush() != nil {
			return false
		}
		var out collect
		cnt, err := Replay(&buf, &out)
		if err != nil || cnt != uint64(n) {
			return false
		}
		for i := range in {
			if out.refs[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryCompactness(t *testing.T) {
	// A strided per-PE stream should encode near 2 bytes per reference
	// (header + 1-byte delta) before compression.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const refs = 10000
	for i := 0; i < refs; i++ {
		// Bursty per-PE phases, as kernels emit them.
		w.Ref(Ref{PE: i / 2500, Addr: uint64(i%2500) * 8, Size: 8, Kind: Read})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, raw := frameSizes(t, buf.Bytes())
	if perRef := float64(raw) / refs; perRef > 2.1 {
		t.Fatalf("%.2f record bytes/ref, want ~2 (delta coding broken?)", perRef)
	}
}

func TestReplayErrors(t *testing.T) {
	// Bad magic.
	if _, err := Replay(strings.NewReader("nope"), Discard); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream after a header byte.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Ref(Ref{PE: 1, Addr: 64, Size: 8, Kind: Read})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := Replay(bytes.NewReader(trunc), Discard); err == nil {
		t.Error("truncated stream accepted")
	}
	// Empty stream (magic only) is a valid zero-length trace.
	var empty bytes.Buffer
	w2, _ := NewWriter(&empty)
	w2.Flush()
	if n, err := Replay(&empty, Discard); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
}

// encode writes refs (an epoch every 100) with NewWriter and returns
// the bytes.
func encode(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		if i%100 == 0 {
			w.BeginEpoch(i / 100)
		}
		w.Ref(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genRefs makes a deterministic stream of refs large enough to span
// multiple 32 KB chunks when n is big.
func genRefs(n int) []Ref {
	rng := rand.New(rand.NewSource(7))
	refs := make([]Ref, n)
	for i := range refs {
		kind := Read
		if rng.Intn(3) == 0 {
			kind = Write
		}
		refs[i] = Ref{
			PE:   rng.Intn(16),
			Addr: uint64(rng.Int63n(1 << 44)),
			Size: uint32(1 + rng.Intn(128)),
			Kind: kind,
		}
	}
	return refs
}

// TestBinaryMultiChunk verifies that decoder delta state survives chunk
// boundaries: a stream far larger than one chunk round-trips exactly.
func TestBinaryMultiChunk(t *testing.T) {
	in := genRefs(60000) // ~8 bytes/ref >> 32 KB chunk target
	enc := encode(t, in)
	if len(enc) < 2*chunkTarget {
		t.Fatalf("trace only %d bytes; does not exercise multiple chunks", len(enc))
	}
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
}

// TestReplayV2Fixture: a trace the WST2 writer recorded replays to
// exactly the references and epochs it was given.
func TestReplayV2Fixture(t *testing.T) {
	in := genRefs(12000)
	var out collect
	n, err := Replay(bytes.NewReader(fixture(t, "wst2.trace")), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) || len(out.refs) != len(in) {
		t.Fatalf("replayed %d refs (delivered %d), want %d", n, len(out.refs), len(in))
	}
	for i := range in {
		if out.refs[i] != in[i] {
			t.Fatalf("ref %d: got %+v want %+v", i, out.refs[i], in[i])
		}
	}
	if len(out.epochs) != len(in)/100 {
		t.Fatalf("%d epochs, want %d", len(out.epochs), len(in)/100)
	}
	for i, e := range out.epochs {
		if e != i {
			t.Fatalf("epoch %d numbered %d", i, e)
		}
	}
}

func TestReplayTruncatedV2(t *testing.T) {
	in := genRefs(12000)
	enc := fixture(t, "wst2.trace")
	for _, cut := range []int{
		len(enc) - 4,  // end-of-trace marker gone
		len(enc) / 2,  // mid-chunk
		len(enc) - 20, // inside the final chunk's frame
		5,             // inside the very first chunk header
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
		if ce.Offset < 0 || ce.Offset > int64(cut) {
			t.Fatalf("cut at %d: implausible offset %d", cut, ce.Offset)
		}
		// Whatever was delivered before the error must be a correct prefix.
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

func TestReplayBitFlipV2(t *testing.T) {
	in := genRefs(12000)
	enc := fixture(t, "wst2.trace")
	// Flip one bit inside each of a few chunk payloads. Offsets beyond the
	// first chunk land mid-stream; all must be caught by the CRC before any
	// ref from the damaged chunk is delivered.
	for _, pos := range []int{4 + 12 + 10, len(enc) / 3, 2 * len(enc) / 3} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x10
		var out collect
		_, err := Replay(bytes.NewReader(bad), &out)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			// A flip can also land in a frame header; still must error.
			if err == nil {
				t.Fatalf("flip at %d: corruption not detected", pos)
			}
			continue
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

func TestReplayV1Compat(t *testing.T) {
	in := genRefs(3000)
	enc := fixture(t, "wst1.trace")
	if !bytes.HasPrefix(enc, []byte("WST1")) {
		t.Fatalf("fixture magic %q, want WST1", enc[:4])
	}

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
			t.Fatalf("ref %d mismatch", i)
		}
	}
	if len(out.epochs) != 1 || out.epochs[0] != 0 {
		t.Fatalf("epochs = %v, want [0]", out.epochs)
	}

	// Mid-record truncation of a legacy stream is still a typed error with
	// the decoded count.
	var out2 collect
	_, err = Replay(bytes.NewReader(enc[:len(enc)-3]), &out2)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated V1 err = %v, want *CorruptError", err)
	}
	if ce.Records != uint64(len(out2.refs)) {
		t.Fatalf("V1 truncation: error says %d records, sink saw %d",
			ce.Records, len(out2.refs))
	}
}

func TestWriterAfterFlush(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Ref(Ref{PE: 0, Addr: 8, Size: 8, Kind: Read})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Ref(Ref{PE: 0, Addr: 16, Size: 8, Kind: Read})
	if w.Err() == nil {
		t.Fatal("Ref after Flush should set the writer error")
	}
}

func TestCorruptErrorRendering(t *testing.T) {
	err := &CorruptError{Offset: 42, Records: 7, Reason: "checksum mismatch"}
	msg := err.Error()
	for _, want := range []string{"42", "7", "checksum mismatch"} {
		if !strings.Contains(msg, want) {
			t.Errorf("CorruptError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Error("CorruptError must unwrap to ErrCorrupt")
	}
}

// FuzzReplay throws arbitrary bytes at the decoder: it must never panic,
// and it must never deliver a ref that CRC framing did not cover
// (checked implicitly by not crashing; integrity is covered by the
// directed tests above).
func FuzzReplay(f *testing.F) {
	// WST2 and WST1 as their writers recorded them: valid, truncated and
	// bit-flipped.
	v2 := fixture(f, "fuzz-wst2.trace")
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	flipped := append([]byte(nil), v2...)
	flipped[len(v2)/2] ^= 0x40
	f.Add(flipped)
	v1 := fixture(f, "fuzz-wst1.trace")
	f.Add(v1)
	f.Add(v1[:len(v1)-2])
	flipped1 := append([]byte(nil), v1...)
	flipped1[len(v1)/3] ^= 0x04
	f.Add(flipped1)
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte("WST2"))
	f.Add([]byte("WST1"))
	f.Add([]byte("nope"))
	// WST3 as NewWriter writes it: valid, truncated, bit-flipped, and a
	// frame declaring one byte less than it inflates to.
	var v3 bytes.Buffer
	w, _ := NewWriter(&v3)
	w.BeginEpoch(0)
	for i := 0; i < 300; i++ {
		w.Ref(Ref{PE: i % 4, Addr: uint64(i) * 8, Size: 8, Kind: Kind(i % 2)})
	}
	w.Flush()
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:v3.Len()/2])
	flipped3 := append([]byte(nil), v3.Bytes()...)
	flipped3[v3.Len()/2] ^= 0x40
	f.Add(flipped3)
	f.Add(shortLength(v3.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		var out collect
		n, err := Replay(bytes.NewReader(data), &out)
		if err == nil && n != uint64(len(out.refs)) {
			t.Fatalf("returned count %d but delivered %d refs", n, len(out.refs))
		}
		var ce *CorruptError
		if errors.As(err, &ce) && ce.Records != uint64(len(out.refs)) {
			t.Fatalf("CorruptError says %d records, sink saw %d",
				ce.Records, len(out.refs))
		}
	})
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
}
