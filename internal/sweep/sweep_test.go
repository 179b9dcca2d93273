package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"wsstudy/internal/core"
	"wsstudy/internal/obs"
	"wsstudy/internal/store"
)

func newTestStore(t *testing.T, rec *obs.Recorder, dir string) *store.Store {
	t.Helper()
	s, err := store.New(store.Config{
		MaxEntries: 256, Slots: 4, Dir: dir, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecCanonicalization pins the lattice normal form: axis and
// value order don't matter, values are canonicalized and deduped, and
// equivalent specs share an id.
func TestSpecCanonicalization(t *testing.T) {
	a := Spec{Experiment: "gridlu", Scale: "quick", Axes: []Axis{
		{Field: "pes", Values: []string{"64", "16"}},
		{Field: "cache", Values: []string{"8192", "4096", "8192"}},
	}}
	b := Spec{Experiment: "gridlu", Scale: "quick", Axes: []Axis{
		{Field: "cache", Values: []string{"4096", "8192"}},
		{Field: "pes", Values: []string{"16", "64"}},
	}}
	ca, err := a.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if ca.Canonical() != cb.Canonical() || ca.ID() != cb.ID() {
		t.Errorf("equivalent specs diverge:\n%s\n%s", ca.Canonical(), cb.Canonical())
	}
	want := "sweepv1;experiment=gridlu;scale=quick;axis=cache:4096,8192;axis=pes:16,64"
	if ca.Canonical() != want {
		t.Errorf("canonical = %q, want %q", ca.Canonical(), want)
	}
	if cells := ca.Cells(); len(cells) != 4 {
		t.Errorf("4 cells expected, got %d", len(cells))
	}

	for _, bad := range []Spec{
		{Experiment: "nope", Axes: []Axis{{Field: "cache", Values: []string{"1"}}}},
		{Experiment: "gridlu"},
		{Experiment: "gridlu", Axes: []Axis{{Field: "cache", Values: nil}}},
		{Experiment: "gridlu", Axes: []Axis{{Field: "bogus", Values: []string{"1"}}}},
		{Experiment: "gridlu", Axes: []Axis{{Field: "cache", Values: []string{"x"}}}},
		{Experiment: "gridlu", Axes: []Axis{
			{Field: "cache", Values: []string{"1"}}, {Field: "cache", Values: []string{"2"}}}},
		{Experiment: "gridlu", Scale: "huge", Axes: []Axis{{Field: "cache", Values: []string{"1"}}}},
	} {
		if _, err := bad.Canonicalize(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

// FuzzSpecCanonicalize decodes arbitrary request bodies the way the
// HTTP layer's sweep POST does and canonicalizes the spec. Canonicalize
// must never panic. A spec it accepts must come back unchanged, with the
// same ID, from a second Canonicalize; must keep its ID when its axes,
// and each axis's values, arrive in reverse order; and must enumerate
// exactly the product of its axis lengths in cells, never more than
// MaxCells.
func FuzzSpecCanonicalize(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"gridlu","scale":"quick","axes":[{"field":"pes","values":["64","16"]},{"field":"cache","values":["8192","4096","8192"]}]}`,
		`{"experiment":"gridbh","axes":[{"field":"cache","values":["4096","016384"]},{"field":"sample","values":["1","16"]},{"field":"scale","values":["full","quick"]}]}`,
		`{"experiment":"gridlu","axes":[{"field":"line","values":["8","64"]},{"field":"assoc","values":["0","1","4"]},{"field":"problem","values":["0"]}]}`,
		`{"experiment":"gridlu","axes":[{"field":"cache","values":[]}]}`,
		`{"experiment":"gridlu","axes":[{"field":"cache","values":["1"]},{"field":"cache","values":["2"]}]}`,
		`{"experiment":"gridlu","axes":[{"field":"cache","values":["1"]}],"extra":1}`,
		`{"experiment":"nope","axes":[{"field":"cache","values":["1"]}]}`,
		`{}`, `null`, `[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.Scale == "" {
			spec.Scale = core.ScaleQuick.String() // as the server fills in its default scale
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return
		}
		again, err := canon.Canonicalize()
		if err != nil || !reflect.DeepEqual(again, canon) || again.ID() != canon.ID() {
			t.Fatalf("canonical spec %+v re-canonicalizes to %+v (err %v)", canon, again, err)
		}
		rev := Spec{Experiment: spec.Experiment, Scale: spec.Scale}
		for _, ax := range slices.Backward(spec.Axes) {
			vals := slices.Clone(ax.Values)
			slices.Reverse(vals)
			rev.Axes = append(rev.Axes, Axis{Field: ax.Field, Values: vals})
		}
		if crev, err := rev.Canonicalize(); err != nil || crev.ID() != canon.ID() {
			t.Fatalf("reversed spec %+v canonicalizes to %+v (err %v), want %+v", rev, crev, err, canon)
		}
		want := 1
		for _, ax := range canon.Axes {
			want *= len(ax.Values)
		}
		if n := len(canon.Cells()); n != want || n > MaxCells {
			t.Fatalf("spec %+v enumerates %d cells, want %d (at most %d)", canon, n, want, MaxCells)
		}
	})
}

// waitDone polls a sweep until Done (the engine has no blocking wait —
// the HTTP surface is poll-based by design).
func waitDone(t *testing.T, e *Engine, id string) Status {
	t.Helper()
	for i := 0; i < 2000; i++ {
		st, ok := e.Get(id)
		if !ok {
			t.Fatalf("sweep %s unknown", id)
		}
		if st.Done {
			return st
		}
		testSleep()
	}
	t.Fatalf("sweep %s never finished", id)
	return Status{}
}

// TestSweepRunsAndResumes is the engine's core contract: a sweep
// lands every cell; a second engine over the same journal dir and a
// re-submitted equivalent spec revives every cell without recompute.
func TestSweepRunsAndResumes(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Experiment: "gridlu", Scale: "quick", Axes: []Axis{
		{Field: "cache", Values: []string{"4096", "16384"}},
		{Field: "pes", Values: []string{"16", "64"}},
		{Field: "problem", Values: []string{"500", "1000"}},
	}}

	rec1 := obs.New()
	st1 := newTestStore(t, rec1, "")
	e1, err := NewEngine(Config{Store: st1, Dir: dir, Recorder: rec1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 8 {
		t.Fatalf("total = %d, want 8", s.Total)
	}
	fin := waitDone(t, e1, s.ID)
	if fin.Completed != 8 || fin.Failed != 0 {
		t.Fatalf("first pass: %+v", fin)
	}
	m1 := rec1.Snapshot()
	if got := m1.Counter(obs.SweepCellsComputed); got != 8 {
		t.Errorf("computed = %d, want 8", got)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// A new engine (fresh process, fresh store) resumes from the journal.
	rec2 := obs.New()
	st2 := newTestStore(t, rec2, "")
	e2, err := NewEngine(Config{Store: st2, Dir: dir, Recorder: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Same lattice, different submission order: same id.
	spec.Axes[0], spec.Axes[2] = spec.Axes[2], spec.Axes[0]
	s2, err := e2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID != s.ID {
		t.Fatalf("resubmission changed id: %s vs %s", s2.ID, s.ID)
	}
	fin2 := waitDone(t, e2, s2.ID)
	if fin2.Completed != 8 || fin2.Revived != 8 {
		t.Fatalf("resume pass: %+v", fin2)
	}
	m2 := rec2.Snapshot()
	if got := m2.Counter(obs.SweepCellsRevived); got != 8 {
		t.Errorf("revived = %d, want 8", got)
	}
	if got := m2.Counter(obs.SweepCellsComputed); got != 0 {
		t.Errorf("resume computed %d cells", got)
	}
	for i, c := range fin2.Cells {
		if c.Key != fin.Cells[i].Key || c.Summary == nil || c.Summary.MissRate <= 0 {
			t.Errorf("cell %d mismatch: %+v vs %+v", i, c, fin.Cells[i])
		}
	}
}

// TestSweepGrain checks the §8 hand-off: a finished pes × cache sweep
// yields cost advice with a best design drawn from the lattice.
func TestSweepGrain(t *testing.T) {
	rec := obs.New()
	st := newTestStore(t, rec, "")
	e, err := NewEngine(Config{Store: st, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := Spec{Experiment: "gridlu", Scale: "quick", Axes: []Axis{
		{Field: "cache", Values: []string{"16384", "262144"}},
		{Field: "pes", Values: []string{"64", "256", "1024"}},
	}}
	s, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, e, s.ID)
	if fin.Failed != 0 {
		t.Fatalf("sweep failed cells: %+v", fin)
	}
	adv, err := e.Grain(s.ID, 800<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Evals) != 6 {
		t.Errorf("evals = %d, want 6", len(adv.Evals))
	}
	if adv.Best.Design.P == 0 || adv.Best.PerfPerKiloUSD <= 0 {
		t.Errorf("best = %+v", adv.Best)
	}
	if adv.WithinFactor < 1 {
		t.Errorf("within factor %v < 1", adv.WithinFactor)
	}

	if _, err := e.Grain("deadbeef", 1<<30); err == nil {
		t.Error("unknown sweep id accepted")
	}
}
