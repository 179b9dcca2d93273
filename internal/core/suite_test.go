package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"wsstudy/internal/obs"
)

// okExp returns a trivially succeeding experiment.
func okExp(id string) Experiment {
	return Experiment{
		ID: id, Title: id,
		Run: func(ctx context.Context, o Options) (*Report, error) {
			return &Report{Title: id}, nil
		},
	}
}

// panicExp panics mid-run.
func panicExp(id string) Experiment {
	return Experiment{
		ID: id, Title: id,
		Run: func(ctx context.Context, o Options) (*Report, error) {
			panic("kaboom: " + id)
		},
	}
}

// deadlineExp assembles a partial report, then blocks until its context
// expires — the shape of a kernel whose cancellation poll fires.
func deadlineExp(id string) Experiment {
	return Experiment{
		ID: id, Title: id,
		Run: func(ctx context.Context, o Options) (*Report, error) {
			r := &Report{Title: "partial " + id}
			r.AddNote("model figure computed before the simulation timed out")
			<-ctx.Done()
			return r, ctx.Err()
		},
	}
}

func TestExecutePanicIsolation(t *testing.T) {
	rep, err := Execute(context.Background(), panicExp("boom"), Options{})
	if rep != nil {
		t.Fatal("panicking experiment returned a report")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.ID != "boom" || pe.Value != "kaboom: boom" {
		t.Fatalf("PanicError = %+v", pe)
	}
	if pe.Stack == "" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("PanicError.Stack not captured: %q", pe.Stack)
	}
}

func TestExecuteDeadlinePartialReport(t *testing.T) {
	rep, err := Execute(context.Background(), deadlineExp("slow"),
		Options{Timeout: 20 * time.Millisecond})
	if rep != nil {
		t.Fatal("timed-out experiment returned a non-error report")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("deadline error must also match context.DeadlineExceeded")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if de.Partial == nil || de.Partial.Title != "partial slow" {
		t.Fatalf("DeadlineError.Partial = %+v, want the partial report", de.Partial)
	}
	if de.Timeout != 20*time.Millisecond {
		t.Fatalf("DeadlineError.Timeout = %v", de.Timeout)
	}
}

// TestSuiteGracefulDegradation is the issue's acceptance scenario: a suite
// holding one panicking and one deadline-exceeding experiment still returns
// every other experiment's Report, with typed errors for the failures.
func TestSuiteGracefulDegradation(t *testing.T) {
	exps := []Experiment{
		okExp("a"),
		panicExp("p"),
		deadlineExp("d"),
		okExp("b"),
	}
	report := RunSuite(context.Background(), exps, SuiteOptions{
		Options: Options{Timeout: 30 * time.Millisecond},
		Workers: 4,
	})
	if got := len(report.Reports()); got != 2 {
		t.Fatalf("successful reports = %d, want 2", got)
	}
	if report.Results[0].Report == nil || report.Results[3].Report == nil {
		t.Fatal("healthy experiments lost their reports")
	}
	var pe *PanicError
	if !errors.As(report.Results[1].Err, &pe) || pe.Stack == "" {
		t.Fatalf("panic result = %v, want *PanicError with stack", report.Results[1].Err)
	}
	var de *DeadlineError
	if !errors.As(report.Results[2].Err, &de) || de.Partial == nil {
		t.Fatalf("deadline result = %v, want *DeadlineError with partial", report.Results[2].Err)
	}
	summary := report.FailureSummary()
	if !strings.Contains(summary, "2 of 4") ||
		!strings.Contains(summary, "p:") || !strings.Contains(summary, "d:") {
		t.Fatalf("FailureSummary = %q", summary)
	}
}

// TestSuiteReportsElapsed pins SuiteResult.Elapsed, which `wsstudy all`
// prints as "completed in": an experiment that sleeps 50 ms reports at
// least that.
func TestSuiteReportsElapsed(t *testing.T) {
	const nap = 50 * time.Millisecond
	sleeper := Experiment{
		ID: "sleeper", Title: "sleeper",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			time.Sleep(nap)
			return &Report{Title: "sleeper"}, nil
		},
	}
	report := RunSuite(context.Background(), []Experiment{sleeper}, SuiteOptions{Workers: 1})
	if res := report.Results[0]; res.Err != nil || res.Elapsed < nap {
		t.Fatalf("sleeper: err %v, elapsed %v, want nil and at least %v", res.Err, res.Elapsed, nap)
	}
}

func TestSuiteCancellationStopsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	blocker := Experiment{
		ID: "block", Title: "block",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	exps := make([]Experiment, 8)
	for i := range exps {
		exps[i] = blocker
	}
	done := make(chan *SuiteReport)
	go func() {
		done <- RunSuite(ctx, exps, SuiteOptions{Workers: 2})
	}()
	<-started // at least one experiment is in flight
	cancel()
	select {
	case report := <-done:
		for i, r := range report.Results {
			if r.Err == nil {
				t.Errorf("result %d: cancelled suite produced a success", i)
			} else if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("result %d: err = %v, want context.Canceled", i, r.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled suite did not return promptly")
	}
}

func TestSuiteTransientRetry(t *testing.T) {
	var calls int
	flaky := Experiment{
		ID: "flaky", Title: "flaky",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			calls++
			if calls < 3 {
				return nil, Transient(errors.New("resource pressure"))
			}
			return &Report{Title: "flaky"}, nil
		},
	}
	report := RunSuite(context.Background(), []Experiment{flaky}, SuiteOptions{
		Retries: 3, Backoff: time.Millisecond,
	})
	res := report.Results[0]
	if res.Err != nil {
		t.Fatalf("flaky experiment failed after retries: %v", res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	if report.FailureSummary() != "" {
		t.Fatalf("clean suite has failure summary %q", report.FailureSummary())
	}
}

func TestTransientClassification(t *testing.T) {
	if IsTransient(nil) || Transient(nil) != nil {
		t.Fatal("nil handling broken")
	}
	base := errors.New("x")
	if !IsTransient(Transient(base)) {
		t.Fatal("Transient not detected")
	}
	if IsTransient(base) {
		t.Fatal("unwrapped error classified transient")
	}
	if !errors.Is(Transient(base), base) {
		t.Fatal("Transient must preserve errors.Is to the cause")
	}
	if IsTransient(&DeadlineError{ID: "x"}) || IsTransient(&PanicError{ID: "x"}) {
		t.Fatal("deadline/panic errors must never be transient")
	}
}

// TestRunContextCancelledSweep verifies a cancelled context stops a real
// experiment sweep (fig2's LU factorization polls inside its K loop) and
// the cancellation surfaces as context.Canceled.
func TestRunContextCancelledSweep(t *testing.T) {
	e, ok := Find("fig2")
	if !ok {
		t.Fatal("fig2 missing from registry")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first kernel poll must abort
	start := time.Now()
	rep, err := Execute(ctx, e, Options{Scale: ScaleQuick})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (rep=%v)", err, rep != nil)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled experiment still ran %v", elapsed)
	}
}

// TestExecuteAttachesMetrics verifies the Recorder plumbing through
// Execute: the run happens under a child recorder, the child folds back
// into the parent, the Report carries the snapshot, and the parent records
// wall time and the current-experiment label.
func TestExecuteAttachesMetrics(t *testing.T) {
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	counting := Experiment{
		ID: "counting", Title: "counting",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			obs.From(ctx).Counter("test.widgets").Add(7)
			return &Report{Title: "counting"}, nil
		},
	}
	rep, err := Execute(ctx, counting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("Execute under a Recorder left Report.Metrics nil")
	}
	if got := rep.Metrics.Counters["test.widgets"]; got != 7 {
		t.Errorf("report counter = %d, want 7", got)
	}
	parent := rec.Snapshot()
	if got := parent.Counters["test.widgets"]; got != 7 {
		t.Errorf("folded parent counter = %d, want 7", got)
	}
	if ws := parent.Durations[obs.ExperimentWall]; ws.Count != 1 {
		t.Errorf("%s count = %d, want 1", obs.ExperimentWall, ws.Count)
	}
	if got := parent.Labels[obs.LabelExperiment]; got != "counting" {
		t.Errorf("experiment label = %q, want counting", got)
	}

	// Without a Recorder the report must stay metric-free.
	rep, err = Execute(context.Background(), counting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Error("Execute without a Recorder attached metrics")
	}
}

// TestExecuteMetricsOnDeadlinePartial verifies a timed-out run still folds
// its child recorder into the partial report.
func TestExecuteMetricsOnDeadlinePartial(t *testing.T) {
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	slow := Experiment{
		ID: "slow", Title: "slow",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			obs.From(ctx).Counter("test.before.deadline").Inc()
			r := &Report{Title: "partial slow"}
			<-ctx.Done()
			return r, ctx.Err()
		},
	}
	_, err := Execute(ctx, slow, Options{Timeout: 20 * time.Millisecond})
	var de *DeadlineError
	if !errors.As(err, &de) || de.Partial == nil {
		t.Fatalf("err = %v, want *DeadlineError with partial", err)
	}
	if de.Partial.Metrics == nil || de.Partial.Metrics.Counters["test.before.deadline"] != 1 {
		t.Fatalf("partial report metrics = %+v, want the pre-deadline counter", de.Partial.Metrics)
	}
}

// TestSuiteRecordsSchedulingMetrics verifies the suite-level counters:
// total/done/failed, retries, and peak worker occupancy.
func TestSuiteRecordsSchedulingMetrics(t *testing.T) {
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	var calls int
	flaky := Experiment{
		ID: "flaky", Title: "flaky",
		Run: func(ctx context.Context, o Options) (*Report, error) {
			calls++
			if calls < 2 {
				return nil, Transient(errors.New("pressure"))
			}
			return &Report{Title: "flaky"}, nil
		},
	}
	exps := []Experiment{okExp("a"), panicExp("p"), flaky}
	report := RunSuite(ctx, exps, SuiteOptions{
		Workers: 1, Retries: 2, Backoff: time.Millisecond,
	})
	if got := len(report.Reports()); got != 2 {
		t.Fatalf("successful reports = %d, want 2", got)
	}
	m := rec.Snapshot()
	checks := []struct {
		name string
		want uint64
	}{
		{obs.SuiteTotal, 3},
		{obs.SuiteDone, 3},
		{obs.SuiteFailed, 1},
		{obs.SuiteRetries, 1},
	}
	for _, c := range checks {
		if got := m.Counters[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if g := m.Gauges[obs.WorkersBusy]; g.Max != 1 || g.Value != 0 {
		t.Errorf("%s = %+v, want max 1 and settled 0", obs.WorkersBusy, g)
	}
	if ws := m.Durations[obs.ExperimentWall]; ws.Count < 3 {
		t.Errorf("%s count = %d, want >= 3 (one per attempt)", obs.ExperimentWall, ws.Count)
	}
}

// TestRenderIncludesMetrics verifies the text and CSV renderings surface a
// report's metrics section.
func TestRenderIncludesMetrics(t *testing.T) {
	m := obs.Metrics{
		Counters: map[string]uint64{"trace.refs": 1234},
		Labels:   map[string]string{"experiment.current": "demo"},
	}
	r := &Report{Title: "demo", Metrics: &m}
	r.Tables = append(r.Tables, Table{Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}})

	var text strings.Builder
	r.Render(&text, FormatText)
	if !strings.Contains(text.String(), "-- metrics --") ||
		!strings.Contains(text.String(), "trace.refs") {
		t.Errorf("text render missing metrics section:\n%s", text.String())
	}

	var csv strings.Builder
	r.Figures = append(r.Figures, Figure{})
	if err := r.Render(&csv, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "metrics,trace.refs,,1234") {
		t.Errorf("csv render missing metrics rows:\n%s", csv.String())
	}
}
