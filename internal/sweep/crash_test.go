package sweep

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

// crashSpec is the lattice the SIGKILL child and the resuming parent
// share: a 3-axis, eight-cell gridlu lattice (the acceptance shape).
// With Workers=1 cells land in canonical order, so the delay
// failpoint's After count pins exactly where the child stalls.
func crashSpec() Spec {
	return Spec{Experiment: "gridlu", Scale: "quick", Axes: []Axis{
		{Field: "cache", Values: []string{"4096", "16384"}},
		{Field: "line", Values: []string{"64", "128"}},
		{Field: "pes", Values: []string{"16", "64"}},
	}}
}

// TestSweepCrashResumeSIGKILL is the sweep half of the crash-resume
// proof (the suite half lives in core): a child process runs a sweep
// with a checkpoint journal and a delay failpoint stalling the third
// cell's computation; the parent SIGKILLs it mid-stall — no deferred
// cleanup, no flushing — then re-submits the identical spec in-process
// over a fresh engine and a cold, memory-only store. Every journaled
// cell must revive (sweep.cells.revived), only the missing ones may
// compute, and the finished lattice must match a fault-free baseline.
func TestSweepCrashResumeSIGKILL(t *testing.T) {
	dir := os.Getenv("WSS_SWEEP_CRASH_DIR")
	if os.Getenv("WSS_SWEEP_CRASH_CHILD") == "1" {
		if err := fault.ArmFromEnv(os.Getenv); err != nil {
			fmt.Fprintln(os.Stderr, "child: arming failpoints:", err)
			os.Exit(2)
		}
		st, err := store.New(store.Config{Slots: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "child: store:", err)
			os.Exit(2)
		}
		eng, err := NewEngine(Config{Store: st, Dir: dir, Workers: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "child: engine:", err)
			os.Exit(2)
		}
		// Stalls inside cell three's compute until the parent kills us.
		if _, err := eng.Submit(crashSpec()); err != nil {
			fmt.Fprintln(os.Stderr, "child: submit:", err)
			os.Exit(2)
		}
		time.Sleep(5 * time.Minute)
		os.Exit(0) // only reached if the parent never kills us
	}

	cspec, err := crashSpec().Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	id := cspec.ID()
	total := len(cspec.Cells())

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	cmd := exec.Command(exe, "-test.run", "^TestSweepCrashResumeSIGKILL$", "-test.v")
	cmd.Env = append(os.Environ(),
		"WSS_SWEEP_CRASH_CHILD=1",
		"WSS_SWEEP_CRASH_DIR="+dir,
		fault.EnvVar+"=sweep.cell.compute=delay(120s)@2",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the sweep's journal holds two landed cells (the child
	// is then stalled inside cell three), then SIGKILL: no cleanup runs.
	path := filepath.Join(dir, id+".journal")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("child never journaled the first two cells")
		}
		probe, err := core.OpenJournal(copyJournal(t, path))
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

	probe, err := core.OpenJournal(copyJournal(t, path))
	if err != nil {
		t.Fatalf("opening journal after SIGKILL: %v", err)
	}
	revivable := probe.Len()
	probe.Close()
	if revivable < 2 || revivable >= total {
		t.Fatalf("journal holds %d cells after SIGKILL, want in [2, %d)", revivable, total)
	}

	// Resume in-process: fresh engine, cold memory-only store, the
	// identical spec. Revival can only come from the journal the kill
	// left behind.
	rec := obs.New()
	st := newTestStore(t, rec, "")
	defer closeStore(t, st)
	eng, err := NewEngine(Config{Store: st, Dir: dir, Recorder: rec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := eng.Submit(crashSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != id {
		t.Fatalf("re-submitted spec mapped to %s, want %s", s.ID, id)
	}
	fin := waitDone(t, eng, id)
	if fin.Failed != 0 {
		t.Fatalf("resumed sweep failed %d cells: %+v", fin.Failed, fin.Cells)
	}
	if fin.Revived != revivable {
		t.Errorf("status revived = %d, want %d", fin.Revived, revivable)
	}
	m := rec.Snapshot()
	if got := m.Counter(obs.SweepCellsRevived); got != uint64(revivable) {
		t.Errorf("%s = %d, want %d", obs.SweepCellsRevived, got, revivable)
	}
	if got := m.Counter(obs.SweepCellsComputed); got != uint64(total-revivable) {
		t.Errorf("%s = %d, want %d", obs.SweepCellsComputed, got, total-revivable)
	}

	// The finished lattice must be indistinguishable from a sweep that
	// never crashed (modulo which cells say "revived").
	baseRec := obs.New()
	baseSt := newTestStore(t, baseRec, "")
	defer closeStore(t, baseSt)
	baseEng, err := NewEngine(Config{Store: baseSt, Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer baseEng.Close()
	bs, err := baseEng.Submit(crashSpec())
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitDone(t, baseEng, bs.ID)
	if !reflect.DeepEqual(stripRevived(fin.Cells), stripRevived(baseline.Cells)) {
		t.Errorf("resumed lattice differs from the fault-free baseline:\n%+v\n%+v",
			fin.Cells, baseline.Cells)
	}
}

// stripRevived clears the revival marker so resumed and fault-free
// lattices compare on content alone.
func stripRevived(cells []CellStatus) []CellStatus {
	out := make([]CellStatus, len(cells))
	copy(out, cells)
	for i := range out {
		out[i].Revived = false
	}
	return out
}

// copyJournal snapshots src so the parent can probe the child's live
// journal without OpenJournal's tail-truncation racing the child's
// appends.
func copyJournal(t *testing.T, src string) string {
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
