package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
)

// journalExp builds a small deterministic experiment for journal tests:
// the report depends only on (id, scale), like the real registry.
func journalExp(id string) Experiment {
	return Experiment{
		ID:    id,
		Title: "journal " + id,
		Run: func(ctx context.Context, opt Options) (*Report, error) {
			r := &Report{Title: "journal " + id}
			r.Tables = append(r.Tables, Table{
				Title:  "cells",
				Header: []string{"id", "scale"},
				Rows:   [][]string{{id, opt.Scale.String()}},
			})
			r.AddNote("id=%s scale=%s", id, opt.Scale)
			return r, nil
		},
	}
}

func TestJournalRecordLookupReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	quick := Options{Scale: ScaleQuick}
	full := Options{}
	rep, _ := journalExp("a").Run(context.Background(), quick)
	if err := j.Record("a", quick, rep); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", quick, rep); err != nil { // duplicate: no-op
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j.Len())
	}
	if _, ok := j.Lookup("a", full); ok {
		t.Error("a full-scale lookup revived a quick-scale cell")
	}
	if _, ok := j.Lookup("b", quick); ok {
		t.Error("a different experiment id revived the cell")
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.Lookup("a", quick)
	if !ok {
		t.Fatal("reopened journal lost the cell")
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("revived report differs:\n got %+v\nwant %+v", got, rep)
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	quick := Options{Scale: ScaleQuick}
	for _, id := range []string{"a", "b"} {
		rep, _ := journalExp(id).Run(context.Background(), quick)
		if err := j.Record(id, quick, rep); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// A crash mid-append leaves a torn frame: a plausible header whose
	// payload never made it.
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xEE, 0x02, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 'p', 'a', 'r', 't'})
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open over a torn tail: %v", err)
	}
	if j2.Len() != 2 {
		t.Errorf("Len = %d after torn-tail recovery, want 2", j2.Len())
	}
	// The tail is gone from disk, and appending resumes cleanly.
	if data, _ := os.ReadFile(path); len(data) != len(intact) {
		t.Errorf("file is %d bytes after recovery, want %d", len(data), len(intact))
	}
	rep, _ := journalExp("c").Run(context.Background(), quick)
	if err := j2.Record("c", quick, rep); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 {
		t.Errorf("Len = %d after post-recovery append, want 3", j3.Len())
	}
}

func TestJournalCorruptFrameStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	quick := Options{Scale: ScaleQuick}
	var ends []int64
	for _, id := range []string{"a", "b"} {
		rep, _ := journalExp(id).Run(context.Background(), quick)
		if err := j.Record(id, quick, rep); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(path)
		ends = append(ends, st.Size())
	}
	j.Close()

	// Flip a byte inside the second frame's payload: its CRC fails, so
	// replay keeps cell one and truncates from the damage on.
	data, _ := os.ReadFile(path)
	data[ends[0]+12] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("Len = %d after corrupt second frame, want 1", j2.Len())
	}
	if _, ok := j2.Lookup("a", quick); !ok {
		t.Error("intact first cell lost")
	}
	if st, _ := os.Stat(path); st.Size() != ends[0] {
		t.Errorf("file is %d bytes, want truncation to %d", st.Size(), ends[0])
	}
}

// TestJournalForeignFileUntouched: OpenJournal refuses a file that is
// not a journal and leaves its bytes exactly as they were, so a -resume
// path naming the wrong file destroys nothing. An empty file, or one
// holding only the start of the magic (a torn first write), still opens
// as a fresh journal.
func TestJournalForeignFileUntouched(t *testing.T) {
	for _, tc := range []struct {
		name    string
		data    string
		foreign bool
	}{
		{"foreign", "this is not a journal", true},
		{"magic with a wrong last byte", journalMagic[:len(journalMagic)-1] + "2", true},
		{"empty", "", false},
		{"torn magic", journalMagic[:5], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "suite.journal")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path)
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.foreign {
				if err == nil {
					j.Close()
					t.Fatal("OpenJournal accepted a file that is not a journal")
				}
				if string(after) != tc.data {
					t.Fatalf("OpenJournal changed a foreign file: %q, was %q", after, tc.data)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if string(after) != journalMagic || j.Len() != 0 {
				t.Fatalf("fresh journal holds %d cells in %q, want none in the bare magic", j.Len(), after)
			}
		})
	}
}

// stripMetrics clears the Metrics field of every report so the remaining
// comparison covers exactly what the study reads: figures, tables, notes.
// A revived report carries no metrics; a computed one does.
func stripMetrics(reps []*Report) []*Report {
	out := make([]*Report, len(reps))
	for i, r := range reps {
		cp := *r
		cp.Metrics = nil
		out[i] = &cp
	}
	return out
}

// TestSuiteResumesFromJournal is the in-process resume path: a second
// RunSuite over the same journal revives every cell, runs nothing, and
// produces the same reports.
func TestSuiteResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.journal")
	exps := []Experiment{journalExp("a"), journalExp("b"), journalExp("c")}
	opt := SuiteOptions{Options: Options{Scale: ScaleQuick}, Workers: 2}

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j1
	first := RunSuite(context.Background(), exps, opt)
	j1.Close()
	if s := first.FailureSummary(); s != "" {
		t.Fatal(s)
	}

	var runs atomic.Int32
	reran := make([]Experiment, len(exps))
	for i, e := range exps {
		run := e.Run
		e.Run = func(ctx context.Context, o Options) (*Report, error) {
			runs.Add(1)
			return run(ctx, o)
		}
		reran[i] = e
	}
	rec := obs.New()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opt.Journal = j2
	second := RunSuite(obs.With(context.Background(), rec), reran, opt)
	if n := runs.Load(); n != 0 {
		t.Errorf("resumed suite ran %d experiments, want 0", n)
	}
	for _, r := range second.Results {
		if !r.Revived || r.Err != nil {
			t.Errorf("%s: revived=%v err=%v, want a revived cell", r.ID, r.Revived, r.Err)
		}
	}
	if got := rec.Snapshot().Counter(obs.SuiteRevived); got != 3 {
		t.Errorf("suite.cells.revived = %d, want 3", got)
	}
	if !reflect.DeepEqual(stripMetrics(second.Reports()), stripMetrics(first.Reports())) {
		t.Error("resumed reports differ from the original run")
	}
}

// TestSuiteSurvivesJournalAppendFault: checkpoint loss is not cell
// loss — the suite completes, counts the failures, and simply isn't
// resumable for those cells.
func TestSuiteSurvivesJournalAppendFault(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	path := filepath.Join(t.TempDir(), "suite.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := fault.Arm("core.journal.append", fault.Trigger{
		Mode: fault.ModeError, Err: errors.New("disk full"),
	}); err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	rep := RunSuite(obs.With(context.Background(), rec), []Experiment{journalExp("a"), journalExp("b")},
		SuiteOptions{Options: Options{Scale: ScaleQuick}, Workers: 1, Journal: j})
	if s := rep.FailureSummary(); s != "" {
		t.Fatalf("journal faults failed cells:\n%s", s)
	}
	m := rec.Snapshot()
	if m.Counter(obs.SuiteJournalErrors) != 2 {
		t.Errorf("suite.journal.errors = %d, want 2", m.Counter(obs.SuiteJournalErrors))
	}
	if j.Len() != 0 {
		t.Errorf("faulted appends still journaled %d cells", j.Len())
	}
}

// crashSuite is the experiment set the SIGKILL child and the resuming
// parent share. Order matters: with one worker, cells complete in
// slice order, so the delay failpoint's After count pins exactly where
// the child stalls.
func crashSuite() []Experiment {
	return []Experiment{
		journalExp("crash-a"), journalExp("crash-b"),
		journalExp("crash-c"), journalExp("crash-d"),
	}
}

// TestCrashResumeSIGKILL is the crash-resume proof from the issue: a
// child process runs the suite with a checkpoint journal and a delay
// failpoint that stalls the third cell; the parent SIGKILLs it
// mid-stall — no deferred cleanup, no flushing, the exact kill -9
// case — then resumes the suite in-process over the recovered journal
// and demands the completed cells revive and the merged report match a
// fault-free baseline bit for bit.
func TestCrashResumeSIGKILL(t *testing.T) {
	path := os.Getenv("WSS_CRASH_JOURNAL")
	if os.Getenv("WSS_CRASH_CHILD") == "1" {
		if err := fault.ArmFromEnv(os.Getenv); err != nil {
			fmt.Fprintln(os.Stderr, "child: arming failpoints:", err)
			os.Exit(2)
		}
		j, err := OpenJournal(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "child: opening journal:", err)
			os.Exit(2)
		}
		// Stalls on the third cell until the parent kills us.
		RunSuite(context.Background(), crashSuite(), SuiteOptions{
			Options: Options{Scale: ScaleQuick}, Workers: 1, Journal: j,
		})
		os.Exit(0) // only reached if the parent never kills us
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "crash.journal")
	cmd := exec.Command(exe, "-test.run", "^TestCrashResumeSIGKILL$", "-test.v")
	cmd.Env = append(os.Environ(),
		"WSS_CRASH_CHILD=1",
		"WSS_CRASH_JOURNAL="+path,
		fault.EnvVar+"=core.execute=delay(120s)@2",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the journal holds both completed cells (the child is
	// then stalled inside cell three), then SIGKILL: no cleanup runs.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("child never journaled the first two cells")
		}
		probe, err := OpenJournal(copyFile(t, path))
		if err == nil {
			n := probe.Len()
			probe.Close()
			if n >= 2 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Resume in-process over the journal the kill left behind.
	rec := obs.New()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("opening journal after SIGKILL: %v", err)
	}
	defer j.Close()
	revivable := j.Len()
	if revivable < 2 {
		t.Fatalf("journal revived %d cells after SIGKILL, want >= 2", revivable)
	}
	resumed := RunSuite(obs.With(context.Background(), rec), crashSuite(), SuiteOptions{
		Options: Options{Scale: ScaleQuick}, Workers: 1, Journal: j,
	})
	if s := resumed.FailureSummary(); s != "" {
		t.Fatalf("resumed suite failed:\n%s", s)
	}
	if got := rec.Snapshot().Counter(obs.SuiteRevived); got != uint64(revivable) {
		t.Errorf("suite.cells.revived = %d, want %d", got, revivable)
	}

	// The merged report must be indistinguishable from a run that never
	// crashed.
	baseline := RunSuite(context.Background(), crashSuite(), SuiteOptions{
		Options: Options{Scale: ScaleQuick}, Workers: 1,
	})
	if !reflect.DeepEqual(stripMetrics(resumed.Reports()), stripMetrics(baseline.Reports())) {
		t.Error("resumed merged report differs from the fault-free baseline")
	}
}

// copyFile snapshots src so the parent can probe the child's live
// journal without OpenJournal's tail-truncation racing the child's
// appends.
func copyFile(t *testing.T, src string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		data = nil
	}
	dst := filepath.Join(t.TempDir(), "probe.journal")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// FuzzOpenJournal writes arbitrary bytes to a journal file and opens it.
// Opening is the decoder of an untrusted file: it must never panic, and
// it only ever cuts a journal back — the file it leaves is an intact
// prefix of the input, or the bare magic when the input is empty or a
// torn magic. Any other input is not a journal: opening it must fail and
// leave the file byte-for-byte unchanged. A second open is idempotent
// (same cells, same size), and a cell recorded after the open survives a
// reopen. The seeds are the magic alone, one valid frame, that frame
// torn, its CRC flipped, a frame header claiming more than
// journalMaxFrame bytes, and a file that is not a journal.
func FuzzOpenJournal(f *testing.F) {
	quick := Options{Scale: ScaleQuick}
	seedPath := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	rep, _ := journalExp("seed").Run(context.Background(), quick)
	if err := j.Record("seed", quick, rep); err != nil {
		f.Fatal(err)
	}
	j.Close()
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(journalMagic)+4] ^= 0xFF
	huge := binary.LittleEndian.AppendUint32([]byte(journalMagic), journalMaxFrame+1)
	huge = append(huge, 0, 0, 0, 0, '{', '}')
	for _, seed := range [][]byte{[]byte(journalMagic), valid, valid[:len(valid)-5], flipped, huge, []byte("not a journal")} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "suite.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(journalMagic)) && !bytes.HasPrefix([]byte(journalMagic), data) {
			if j, err := OpenJournal(path); err == nil {
				j.Close()
				t.Fatal("OpenJournal accepted a file that is not a journal")
			}
			if on, err := os.ReadFile(path); err != nil || !bytes.Equal(on, data) {
				t.Fatalf("open of a non-journal changed the file (read err %v)", err)
			}
			return
		}
		open := func() (*Journal, []byte) {
			t.Helper()
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			on, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return j, on
		}

		j, first := open()
		cells := j.Len()
		j.Close()
		if bytes.HasPrefix(data, []byte(journalMagic)) {
			if !bytes.HasPrefix(data, first) || len(first) < len(journalMagic) {
				t.Fatalf("open left %d bytes that are not a prefix of the %d-byte journal", len(first), len(data))
			}
		} else if string(first) != journalMagic {
			t.Fatalf("open of an empty file or torn magic left %q, want the bare magic", first)
		}

		j, second := open()
		if j.Len() != cells || len(second) != len(first) {
			t.Fatalf("second open: %d cells in %d bytes, want %d in %d", j.Len(), len(second), cells, len(first))
		}
		_, had := j.Lookup("fuzz", quick)
		rep, _ := journalExp("fuzz").Run(context.Background(), quick)
		if err := j.Record("fuzz", quick, rep); err != nil {
			t.Fatalf("Record after open: %v", err)
		}
		j.Close()

		j, _ = open()
		defer j.Close()
		if _, ok := j.Lookup("fuzz", quick); !ok {
			t.Fatal("a cell recorded after the open did not survive a reopen")
		}
		want := cells + 1
		if had {
			want = cells
		}
		if j.Len() != want {
			t.Fatalf("reopen holds %d cells, want %d", j.Len(), want)
		}
	})
}
