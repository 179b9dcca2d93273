package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wsstudy/internal/fault"
)

// Failpoint coverage for the trace layer: the frame write and replay
// chunk seams and the kernel cancellation poll.

func writeRefs(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.Ref(Ref{PE: i % 4, Addr: uint64(i) * 2654435761, Size: 8})
	}
}

// TestWriteChunkFaultCorrupts: a storage fault while sealing a frame —
// injected after the CRC header is computed — yields a stream whose
// replay fails with ErrCorrupt instead of silently delivering damaged
// references.
func TestWriteChunkFaultCorrupts(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	if err := fault.Arm("trace.write.chunk", fault.Trigger{Mode: fault.ModeCorrupt, Count: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	writeRefs(t, w, 20000) // several 32 KB frames
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var sink countingConsumer
	if _, err := Replay(&buf, &sink); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of a write-faulted stream: err = %v, want ErrCorrupt", err)
	}
}

// TestWriteChunkFaultError: an I/O-class write fault surfaces through
// the writer's sticky error, like a real failed underlying write.
func TestWriteChunkFaultError(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	boom := errors.New("device gone")
	if err := fault.Arm("trace.write.chunk", fault.Trigger{Mode: fault.ModeError, Err: boom, Count: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	writeRefs(t, w, 20000)
	ferr := w.Flush()
	if !errors.Is(ferr, boom) && !errors.Is(w.Err(), boom) {
		t.Fatalf("write fault not surfaced: Flush=%v Err=%v", ferr, w.Err())
	}
}

// TestReplayChunkFault: damage injected into a frame as replay reads it
// — corrupt bytes or a failed read — fails the replay with ErrCorrupt
// after delivering exactly the verified frames before it.
func TestReplayChunkFault(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	writeRefs(t, w, 20000) // several 32 KB frames
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []fault.Trigger{
		{Mode: fault.ModeCorrupt, After: 1},
		{Mode: fault.ModeError, Err: errors.New("read failed"), After: 1},
	} {
		t.Run(tr.Mode.String(), func(t *testing.T) {
			t.Cleanup(fault.DisarmAll)
			if err := fault.Arm("trace.replay.chunk", tr); err != nil {
				t.Fatal(err)
			}
			var sink countingConsumer
			n, err := Replay(bytes.NewReader(buf.Bytes()), &sink)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("replay with a damaged second frame: err = %v, want a CorruptError", err)
			}
			if n == 0 || n >= 20000 || uint64(sink.refs) != n || ce.Records != n {
				t.Errorf("delivered %d refs, replay reported %d, error %d: want the first frame's verified prefix",
					sink.refs, n, ce.Records)
			}
		})
	}
}

// TestPollFault: the guard's cancellation poll is the kernels' one
// cooperative stop seam; an armed trace.poll failpoint stops a kernel
// there exactly as an expired deadline would.
func TestPollFault(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink countingConsumer
	g := WithContext(ctx, &sink).(*Guard)
	if err := g.Err(); err != nil {
		t.Fatalf("unarmed poll: %v", err)
	}
	boom := errors.New("injected stop")
	if err := fault.Arm("trace.poll", fault.Trigger{Mode: fault.ModeError, Err: boom, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Err(); !errors.Is(err, boom) {
		t.Fatalf("armed poll: err = %v, want the injected stop reason", err)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("poll after the one-shot trigger: %v", err)
	}
}

// countingConsumer counts refs and epochs, nothing more.
type countingConsumer struct {
	refs, epochs int
}

func (c *countingConsumer) Ref(Ref)        { c.refs++ }
func (c *countingConsumer) BeginEpoch(int) { c.epochs++ }
