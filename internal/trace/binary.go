package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"wsstudy/internal/fault"
)

// Binary trace serialization. Kernel runs at paper scale produce hundreds
// of millions of references; capturing them once and replaying into many
// simulator configurations (different line sizes, associativities,
// coherence settings) beats re-running the kernel each time.
//
// Records use a compact delta-varint encoding shared by both format
// versions:
//
//	per record:
//	  header byte: bit0 = kind (0 read / 1 write),
//	               bit1 = PE changed, bit2 = size changed,
//	               bit3 = epoch marker (bits 0-2 ignored)
//	  [epoch varint]  when bit3
//	  [pe varint]     when bit1
//	  [size varint]   when bit2
//	  addr zig-zag varint delta from the same PE's previous address
//
// Per-PE address deltas make strided kernels almost free to encode.
//
// WST1 (legacy) is magic "WST1" followed by a bare record stream; end of
// file is the only terminator, so a trace truncated at a record boundary is
// indistinguishable from a complete one, and corruption inside a varint can
// silently misdecode into garbage references.
//
// WST2 fixes both: magic "WST2" followed by CRC-framed chunks,
//
//	[4] payload length (uint32 LE); 0 = end-of-trace marker
//	[4] reference count in this chunk (uint32 LE; epoch markers excluded)
//	[4] CRC-32C (Castagnoli) of the payload (uint32 LE)
//	[payload] record stream as above
//
// and a mandatory zero-length end marker. A chunk's records reach the
// consumer only after its checksum verifies, so a flipped bit or a
// truncated tail yields a typed *CorruptError — carrying the byte offset of
// the failure and the count of references already delivered — never a
// silent misdecode.
//
// WST3 keeps WST2's record encoding and framing discipline but DEFLATEs
// each chunk payload, shrinking resident captures severalfold at
// paper-scale reference counts. Its frame adds the uncompressed length
// so replay can allocate exactly:
//
//	[4] compressed payload length (uint32 LE); 0 = end-of-trace marker
//	[4] uncompressed payload length (uint32 LE)
//	[4] reference count in this chunk (uint32 LE; epoch markers excluded)
//	[4] CRC-32C (Castagnoli) of the UNCOMPRESSED payload (uint32 LE)
//	[payload] DEFLATE stream of the record bytes
//
// The checksum covers the uncompressed bytes, so it detects both storage
// damage and a decompressor disagreement. NewWriter emits WST3, the one
// format still written; Replay reads all three versions, because traces
// already on disk use WST1 and WST2.

var (
	magicV1 = [4]byte{'W', 'S', 'T', '1'}
	magicV2 = [4]byte{'W', 'S', 'T', '2'}
	magicV3 = [4]byte{'W', 'S', 'T', '3'}
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	// chunkTarget is the payload size at which the writer seals a chunk.
	chunkTarget = 32 << 10
	// maxChunkPayload bounds the length field Replay will believe, so a
	// corrupted length cannot drive a gigantic allocation.
	maxChunkPayload = 1 << 20
)

// ErrCorrupt is wrapped by every *CorruptError, so callers can classify
// trace integrity failures with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("trace: corrupt trace")

// Failpoints at the framing seams, evaluated once per ~32 KiB
// chunk (never per reference, so the disarmed cost stays off the hot
// path). fpWriteChunk fires after the CRC is computed, so corrupt and
// partial modes produce exactly what bad storage would: a frame whose
// checksum no longer matches, or a torn tail. fpReplayChunk damages the
// freshly read payload before verification, proving the CRC catches it.
var (
	fpWriteChunk  = fault.New("trace.write.chunk")
	fpReplayChunk = fault.New("trace.replay.chunk")
)

// CorruptError reports a deterministic integrity failure while decoding a
// binary trace: truncation, a checksum mismatch, or a malformed frame.
type CorruptError struct {
	// Offset is the byte offset (from the start of the stream, including
	// the magic) at which the corruption was detected.
	Offset int64
	// Records is how many references were successfully decoded and
	// delivered to the consumer before the failure.
	Records uint64
	// Reason describes the specific failure.
	Reason string
}

// Error renders the failure with its location and the salvaged prefix.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt trace at byte %d (%d records decoded): %s",
		e.Offset, e.Records, e.Reason)
}

// Unwrap ties the error to the ErrCorrupt sentinel.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Writer streams references to an io.Writer as a WST3 binary trace. It
// implements Consumer and EpochConsumer, so it can sit anywhere a
// simulator can — including inside a Tee next to one. Call Flush when
// done and check its error (or Err at any point): a full disk or closed
// pipe otherwise truncates the trace silently.
type Writer struct {
	w        *bufio.Writer
	fw       *flate.Writer // reused across chunks
	comp     bytes.Buffer  // compressed payload scratch
	chunk    []byte        // pending chunk payload (uncompressed records)
	chunkRec uint32        // references (not epochs) in the pending chunk
	lastAddr map[int]uint64
	curPE    int
	curSize  uint32
	started  bool
	finished bool
	err      error
	records  uint64
}

// NewWriter starts a WST3 binary trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magicV3[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	t := &Writer{w: bw, lastAddr: make(map[int]uint64), curPE: -1}
	// BestSpeed: the delta-varint records are already dense with
	// repeated header bytes and small deltas, so the fast setting
	// captures most of the ratio at a fraction of the CPU.
	fw, err := flate.NewWriter(&t.comp, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("trace: flate init: %w", err)
	}
	t.fw = fw
	return t, nil
}

// Records reports how many references have been written.
func (t *Writer) Records() uint64 { return t.records }

// Err reports the first write error, if any. Writer implements Stopper, so
// kernels polling Canceled on a sink chain that ends in a Writer stop as
// soon as the underlying file goes bad.
func (t *Writer) Err() error { return t.err }

// Ref encodes one reference.
func (t *Writer) Ref(r Ref) {
	if t.err != nil {
		return
	}
	if t.finished {
		t.err = errors.New("trace: write after Flush")
		return
	}
	t.encode(r)
}

// Refs encodes a block of references with the error and lifecycle checks
// hoisted out of the per-record loop. The byte stream is identical to
// per-Ref encoding; only chunk boundaries may differ, and frames are
// transparent to Replay.
func (t *Writer) Refs(block []Ref) {
	if t.err != nil {
		return
	}
	if t.finished {
		t.err = errors.New("trace: write after Flush")
		return
	}
	for i := range block {
		if t.err != nil {
			return
		}
		t.encode(block[i])
	}
}

// encode writes one record; callers have already checked err and finished.
func (t *Writer) encode(r Ref) {
	var hdr byte
	if r.Kind == Write {
		hdr |= 1
	}
	if r.PE != t.curPE || !t.started {
		hdr |= 2
	}
	if r.Size != t.curSize || !t.started {
		hdr |= 4
	}
	t.started = true
	t.chunk = append(t.chunk, hdr)
	if hdr&2 != 0 {
		t.chunk = binary.AppendUvarint(t.chunk, uint64(r.PE))
		t.curPE = r.PE
	}
	if hdr&4 != 0 {
		t.chunk = binary.AppendUvarint(t.chunk, uint64(r.Size))
		t.curSize = r.Size
	}
	prev := t.lastAddr[r.PE]
	delta := int64(r.Addr) - int64(prev)
	t.chunk = binary.AppendUvarint(t.chunk, zigzag(delta))
	t.lastAddr[r.PE] = r.Addr
	t.records++
	t.chunkRec++
	t.maybeSealChunk()
}

// BeginEpoch encodes an epoch boundary.
func (t *Writer) BeginEpoch(n int) {
	if t.err != nil {
		return
	}
	if t.finished {
		t.err = errors.New("trace: write after Flush")
		return
	}
	t.chunk = append(t.chunk, 8)
	t.chunk = binary.AppendUvarint(t.chunk, uint64(n))
	t.maybeSealChunk()
}

// Flush finalizes the trace — the pending chunk and the end-of-trace
// marker are written — and drains buffered output. Call it exactly once
// when done and check its error; a stream without its end marker
// replays as truncated, which is the point.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	if !t.finished {
		t.sealChunk()
		var zero [4]byte
		if _, err := t.w.Write(zero[:]); err != nil {
			t.err = err
			return t.err
		}
	}
	t.finished = true
	if err := t.w.Flush(); err != nil {
		t.err = err
	}
	return t.err
}

func (t *Writer) maybeSealChunk() {
	if len(t.chunk) >= chunkTarget {
		t.sealChunk()
	}
}

// sealChunk frames and writes the pending payload: compressed length,
// uncompressed length, record count, CRC-32C of the uncompressed bytes,
// then the DEFLATE payload.
func (t *Writer) sealChunk() {
	if t.err != nil || len(t.chunk) == 0 {
		return
	}
	t.comp.Reset()
	t.fw.Reset(&t.comp)
	if _, err := t.fw.Write(t.chunk); err != nil {
		t.err = err
		return
	}
	if err := t.fw.Close(); err != nil {
		t.err = err
		return
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(t.comp.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(t.chunk)))
	binary.LittleEndian.PutUint32(hdr[8:12], t.chunkRec)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(t.chunk, crcTable))
	// Injected write faults: the header (with its already-computed CRC)
	// still goes out, then the payload is corrupted, truncated, or the
	// write errors — the storage failures the framing exists to catch.
	payload, ferr := fpWriteChunk.InjectBytes(nil, t.comp.Bytes())
	if ferr != nil {
		t.err = ferr
		return
	}
	if _, err := t.w.Write(hdr[:]); err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(payload); err != nil {
		t.err = err
		return
	}
	t.chunk = t.chunk[:0]
	t.chunkRec = 0
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeState carries the cross-record decoder context; it persists across
// chunk boundaries because the writer's delta state does too.
type decodeState struct {
	lastAddr map[int]uint64
	curPE    int
	curSize  uint32
}

func newDecodeState() *decodeState {
	return &decodeState{lastAddr: make(map[int]uint64), curPE: -1}
}

// byteCounter is an io.ByteReader that tracks its offset, so legacy WST1
// decode errors can still report where they happened.
type byteCounter struct {
	br  *bufio.Reader
	off int64
}

func (b *byteCounter) ReadByte() (byte, error) {
	c, err := b.br.ReadByte()
	if err == nil {
		b.off++
	}
	return c, err
}

// Replay decodes a binary trace from r and delivers it to sink (epoch
// markers go to sink's BeginEpoch when it implements EpochConsumer). It
// returns the number of references replayed.
//
// Framed streams (WST2, WST3) are integrity-checked chunk by chunk:
// truncation, checksum mismatches and malformed frames return a
// *CorruptError (matching
// errors.Is(err, ErrCorrupt)) carrying the byte offset of the failure and
// the number of references already delivered. A corrupt chunk delivers
// nothing — references reach sink only after their chunk's CRC verifies.
// Legacy WST1 streams replay with their historical best-effort semantics
// (EOF at a record boundary ends the trace); mid-record truncation is
// reported as a *CorruptError there too.
func Replay(r io.Reader, sink Consumer) (uint64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if n, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, &CorruptError{Offset: int64(n), Reason: "truncated magic"}
		}
		return 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch magic {
	case magicV1:
		return replayV1(br, sink)
	case magicV2:
		return replayV2(br, sink, false)
	case magicV3:
		return replayV2(br, sink, true)
	default:
		return 0, &CorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q", magic[:])}
	}
}

// replayV1 decodes the legacy unframed stream. Decoded references are
// delivered in blocks; the pending block is flushed before any return
// (epoch boundary, end of stream, or error), so delivery order relative
// to BeginEpoch and CorruptError.Records — references delivered before
// the failure — both match the historical per-Ref behavior.
func replayV1(br *bufio.Reader, sink Consumer) (uint64, error) {
	ec, _ := sink.(EpochConsumer)
	st := newDecodeState()
	in := &byteCounter{br: br, off: 4}
	var count uint64
	block := make([]Ref, 0, DefaultBlockSize)
	flush := func() {
		Deliver(sink, block)
		block = block[:0]
	}
	corrupt := func(reason string, err error) (uint64, error) {
		flush()
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return count, fmt.Errorf("trace: %s: %w", reason, err)
		}
		return count, &CorruptError{Offset: in.off, Records: count, Reason: "truncated " + reason}
	}
	for {
		hdr, err := in.ReadByte()
		if err == io.EOF {
			flush()
			return count, nil
		}
		if err != nil {
			flush()
			return count, err
		}
		if hdr&8 != 0 {
			n, err := binary.ReadUvarint(in)
			if err != nil {
				return corrupt("epoch", err)
			}
			flush()
			if ec != nil {
				ec.BeginEpoch(int(n))
			}
			continue
		}
		r, cerr, err := decodeRef(in, hdr, st)
		if cerr != "" || err != nil {
			return corrupt(cerr, err)
		}
		block = append(block, r)
		count++
		if len(block) == cap(block) {
			flush()
		}
	}
}

// decodeRef reads one non-epoch record body following hdr. It returns a
// short field name when the input ended inside the record.
func decodeRef(in io.ByteReader, hdr byte, st *decodeState) (Ref, string, error) {
	if hdr&2 != 0 {
		pe, err := binary.ReadUvarint(in)
		if err != nil {
			return Ref{}, "pe", err
		}
		st.curPE = int(pe)
	}
	if hdr&4 != 0 {
		sz, err := binary.ReadUvarint(in)
		if err != nil {
			return Ref{}, "size", err
		}
		st.curSize = uint32(sz)
	}
	if st.curPE < 0 {
		return Ref{}, "record before any PE header", nil
	}
	du, err := binary.ReadUvarint(in)
	if err != nil {
		return Ref{}, "addr", err
	}
	addr := uint64(int64(st.lastAddr[st.curPE]) + unzigzag(du))
	st.lastAddr[st.curPE] = addr
	kind := Read
	if hdr&1 != 0 {
		kind = Write
	}
	return Ref{PE: st.curPE, Addr: addr, Size: st.curSize, Kind: kind}, "", nil
}

// replayV2 decodes the CRC-framed chunk stream (WST2, and with
// compressed set, WST3's DEFLATE-payload variant). Like replayV1 it
// buffers decoded references into blocks, flushing before epoch
// boundaries and before every return so Records still counts exactly
// the references delivered to the consumer.
func replayV2(br *bufio.Reader, sink Consumer, compressed bool) (uint64, error) {
	ec, _ := sink.(EpochConsumer)
	st := newDecodeState()
	offset := int64(4)
	hdrLen := 12
	if compressed {
		hdrLen = 16
	}
	var count uint64
	var payload, raw []byte
	var inflate io.ReadCloser
	hdr := make([]byte, hdrLen)
	block := make([]Ref, 0, DefaultBlockSize)
	flush := func() {
		Deliver(sink, block)
		block = block[:0]
	}
	for {
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			flush()
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: "truncated before end-of-trace marker"}
			}
			return count, err
		}
		plen := binary.LittleEndian.Uint32(hdr[:4])
		if plen == 0 {
			flush()
			return count, nil // end-of-trace marker
		}
		if plen > maxChunkPayload {
			flush()
			return count, &CorruptError{Offset: offset, Records: count,
				Reason: fmt.Sprintf("implausible chunk length %d", plen)}
		}
		if _, err := io.ReadFull(br, hdr[4:]); err != nil {
			flush()
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: "truncated chunk header"}
			}
			return count, err
		}
		var ulen, wantRecs, wantCRC uint32
		if compressed {
			ulen = binary.LittleEndian.Uint32(hdr[4:8])
			wantRecs = binary.LittleEndian.Uint32(hdr[8:12])
			wantCRC = binary.LittleEndian.Uint32(hdr[12:16])
			if ulen == 0 || ulen > maxChunkPayload {
				flush()
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: fmt.Sprintf("implausible uncompressed chunk length %d", ulen)}
			}
		} else {
			wantRecs = binary.LittleEndian.Uint32(hdr[4:8])
			wantCRC = binary.LittleEndian.Uint32(hdr[8:12])
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			flush()
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: "truncated chunk payload"}
			}
			return count, err
		}
		// Injected read faults damage the payload after it left the
		// source, exactly like a bad sector or a DMA bit-flip: corrupt
		// mode is then caught below (by the decompressor or the CRC), and
		// error mode surfaces as the CorruptError a failed read would
		// produce.
		payload, ferr := fpReplayChunk.InjectBytes(nil, payload)
		if ferr != nil {
			flush()
			return count, &CorruptError{Offset: offset, Records: count,
				Reason: ferr.Error()}
		}
		if compressed {
			if inflate == nil {
				inflate = flate.NewReader(bytes.NewReader(payload))
			} else if err := inflate.(flate.Resetter).Reset(bytes.NewReader(payload), nil); err != nil {
				flush()
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: fmt.Sprintf("resetting decompressor: %v", err)}
			}
			if cap(raw) < int(ulen) {
				raw = make([]byte, ulen)
			}
			raw = raw[:ulen]
			if _, err := io.ReadFull(inflate, raw); err != nil {
				flush()
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: fmt.Sprintf("chunk decompression failed: %v", err)}
			}
			// The frame's uncompressed length must be exact: trailing
			// bytes mean the frame lies about its content.
			if n, _ := inflate.Read(make([]byte, 1)); n != 0 {
				flush()
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: "chunk decompresses past its declared length"}
			}
			payload = raw
		}
		if got := crc32.Checksum(payload, crcTable); got != wantCRC {
			flush()
			return count, &CorruptError{Offset: offset, Records: count,
				Reason: fmt.Sprintf("checksum mismatch (have %08x, frame says %08x)", got, wantCRC)}
		}
		// The checksum verified, so decode-and-deliver in one pass; any
		// inconsistency past this point is a malformed frame, not payload
		// damage, and still reports deterministically.
		in := bytes.NewReader(payload)
		var chunkRecs uint32
		for in.Len() > 0 {
			hb, _ := in.ReadByte()
			if hb&8 != 0 {
				n, err := binary.ReadUvarint(in)
				if err != nil {
					flush()
					return count, &CorruptError{Offset: offset, Records: count,
						Reason: "malformed epoch record in verified chunk"}
				}
				flush()
				if ec != nil {
					ec.BeginEpoch(int(n))
				}
				continue
			}
			r, cerr, err := decodeRef(in, hb, st)
			if cerr != "" || err != nil {
				flush()
				return count, &CorruptError{Offset: offset, Records: count,
					Reason: "malformed record in verified chunk"}
			}
			block = append(block, r)
			count++
			chunkRecs++
			if len(block) == cap(block) {
				flush()
			}
		}
		if chunkRecs != wantRecs {
			flush()
			return count, &CorruptError{Offset: offset, Records: count,
				Reason: fmt.Sprintf("chunk decoded %d records, frame says %d", chunkRecs, wantRecs)}
		}
		offset += int64(hdrLen) + int64(plen)
	}
}
