package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
)

// fpExecute sits at the head of every experiment run — the one seam that
// covers the whole sweep. Error mode fails an attempt before the kernel
// starts (arming a Transient-marked Err exercises the retry path), panic
// mode exercises the recover-to-PanicError path, and delay mode stalls a
// cell deterministically, which is how the crash-resume test parks a
// worker mid-suite before the SIGKILL.
var fpExecute = fault.New("core.execute")

// ErrDeadline is wrapped by every *DeadlineError, so callers can classify
// timed-out experiments with errors.Is(err, ErrDeadline).
var ErrDeadline = errors.New("core: experiment deadline exceeded")

// DeadlineError reports that an experiment exceeded its per-run timeout.
type DeadlineError struct {
	// ID names the experiment that timed out.
	ID string
	// Timeout is the per-experiment deadline that expired (zero when the
	// expiry came from the caller's context rather than Options.Timeout).
	Timeout time.Duration
	// Partial holds whatever Report data the experiment had assembled when
	// the deadline hit, or nil if nothing was salvageable.
	Partial *Report
}

// Error renders the failure.
func (e *DeadlineError) Error() string {
	if e.Timeout > 0 {
		return fmt.Sprintf("core: experiment %q exceeded its %v deadline", e.ID, e.Timeout)
	}
	return fmt.Sprintf("core: experiment %q deadline exceeded", e.ID)
}

// Unwrap ties the error to both ErrDeadline and context.DeadlineExceeded.
func (e *DeadlineError) Unwrap() []error {
	return []error{ErrDeadline, context.DeadlineExceeded}
}

// PanicError reports a panic recovered from an experiment's Run, with the
// goroutine stack captured at the panic site.
type PanicError struct {
	// ID names the experiment that panicked.
	ID string
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted goroutine stack captured during recovery.
	Stack string
}

// Error renders the panic value; the stack is available via the Stack field.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: experiment %q panicked: %v", e.ID, e.Value)
}

// transientError marks an error as transiently classified, asking the suite
// runner to retry the experiment.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so IsTransient reports true: the failure is believed
// temporary (resource pressure, a flaky backend) and the suite runner may
// retry the experiment. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked with
// Transient. Deadline expiry, cancellation and panics are never transient.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Execute runs one experiment under ctx with the hardening the suite relies
// on: Options.Timeout (when positive) bounds the run, a panic inside Run
// comes back as a *PanicError with the captured stack, and deadline expiry
// comes back as a *DeadlineError carrying whatever partial Report the
// experiment managed to assemble.
//
// Observability: when ctx carries an obs.Recorder, the experiment runs
// against a child Recorder (so concurrent suite workers never interleave
// counts), its wall time lands in the parent's ExperimentWall histogram,
// and the child's final snapshot is folded back into the parent and
// attached to the Report (or to a DeadlineError's partial report) as
// Report.Metrics. With no Recorder attached none of this machinery is
// created.
func Execute(ctx context.Context, e Experiment, opt Options) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	}
	defer cancel()

	parent := obs.From(ctx)
	var run *obs.Recorder
	if parent != nil {
		parent.SetLabel(obs.LabelExperiment, e.ID)
		run = parent.NewChild()
		ctx = obs.With(ctx, run)
	}
	start := time.Now()

	defer func() {
		if v := recover(); v != nil {
			rep = nil
			err = &PanicError{ID: e.ID, Value: v, Stack: string(debug.Stack())}
		} else if err != nil && errors.Is(err, context.DeadlineExceeded) {
			err = &DeadlineError{ID: e.ID, Timeout: opt.Timeout, Partial: rep}
			rep = nil
		}
		if parent != nil {
			parent.Observe(obs.ExperimentWall, time.Since(start))
			m := parent.Fold(run)
			if rep != nil {
				rep.Metrics = &m
			} else {
				var de *DeadlineError
				if errors.As(err, &de) && de.Partial != nil {
					de.Partial.Metrics = &m
				}
			}
		}
	}()
	if err := fpExecute.Inject(ctx); err != nil {
		return nil, err
	}
	return e.Run(ctx, opt)
}

// SuiteOptions tunes a RunSuite call.
type SuiteOptions struct {
	// Options is the base per-experiment configuration (Scale, Timeout).
	// Cancellation and observability ride the context passed to RunSuite.
	Options Options
	// Workers bounds the number of experiments running concurrently.
	// Zero or negative means 2.
	Workers int
	// Retries is how many additional attempts a transiently classified
	// failure gets. Zero means no retries.
	Retries int
	// Backoff is the initial retry delay, doubling per attempt. Zero means
	// 100ms.
	Backoff time.Duration
	// Journal, when non-nil, checkpoints each completed cell and revives
	// cells the journal already holds instead of recomputing them — the
	// resume path for a suite killed mid-sweep. A checkpoint-append
	// failure never fails the cell; it is counted (suite.journal.errors)
	// and the run continues with that cell unresumable.
	Journal *Journal
}

// SuiteResult is one experiment's outcome within a suite run.
type SuiteResult struct {
	ID       string
	Title    string
	Report   *Report // non-nil on success
	Err      error   // non-nil on failure (typed: *DeadlineError, *PanicError, ...)
	Attempts int     // run attempts made (>1 means retries happened; 0 means revived)
	Elapsed  time.Duration
	// Revived marks a cell served from the checkpoint journal: the
	// report was computed by an earlier (crashed or killed) run of the
	// same suite, not by this one.
	Revived bool
}

// SuiteReport aggregates a suite run: every experiment's result in input
// order, plus the success/failure split.
type SuiteReport struct {
	Results []SuiteResult
}

// Reports returns the successful reports in input order.
func (s *SuiteReport) Reports() []*Report {
	var out []*Report
	for _, r := range s.Results {
		if r.Err == nil && r.Report != nil {
			out = append(out, r.Report)
		}
	}
	return out
}

// Failures returns the failed results in input order.
func (s *SuiteReport) Failures() []SuiteResult {
	var out []SuiteResult
	for _, r := range s.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// FailureSummary renders the failures one per line, or "" when the suite
// was clean.
func (s *SuiteReport) FailureSummary() string {
	fails := s.Failures()
	if len(fails) == 0 {
		return ""
	}
	out := fmt.Sprintf("%d of %d experiments failed:\n", len(fails), len(s.Results))
	for _, f := range fails {
		out += fmt.Sprintf("  %s: %v (attempts: %d)\n", f.ID, f.Err, f.Attempts)
	}
	return out
}

// RunSuite executes the experiments in a bounded worker pool, degrading
// gracefully: one experiment panicking, timing out, or failing does not
// stop the others, and the returned SuiteReport carries every successful
// Report plus a typed error per failure. Cancelling ctx stops the suite
// promptly — queued experiments are marked with the context error without
// running, and in-flight ones stop at their kernels' next cancellation
// poll. RunSuite itself never returns an error; per-experiment outcomes
// live in the report.
func RunSuite(ctx context.Context, experiments []Experiment, opt SuiteOptions) *SuiteReport {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 2
	}
	if workers > len(experiments) {
		workers = len(experiments)
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	obs.From(ctx).Counter(obs.SuiteTotal).Add(uint64(len(experiments)))

	report := &SuiteReport{Results: make([]SuiteResult, len(experiments))}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := obs.From(ctx)
			for i := range jobs {
				e := experiments[i]
				if rep, ok := opt.Journal.Lookup(e.ID, opt.Options); ok {
					report.Results[i] = SuiteResult{
						ID: e.ID, Title: e.Title, Report: rep, Revived: true,
					}
					rec.Counter(obs.SuiteRevived).Inc()
					rec.Counter(obs.SuiteDone).Inc()
					continue
				}
				res := runOne(ctx, e, opt, backoff)
				if res.Err == nil {
					if err := opt.Journal.Record(e.ID, opt.Options, res.Report); err != nil {
						rec.Counter(obs.SuiteJournalErrors).Inc()
					}
				}
				report.Results[i] = res
			}
		}()
	}
feed:
	for i := range experiments {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Mark this and every unfed experiment as cancelled-before-run.
			for j := i; j < len(experiments); j++ {
				report.Results[j] = SuiteResult{
					ID:    experiments[j].ID,
					Title: experiments[j].Title,
					Err:   ctx.Err(),
				}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return report
}

// runOne executes a single experiment under the shared RetryPolicy:
// failures DefaultRetryable classifies as transient back off and
// re-attempt up to opt.Retries extra times.
// res is a named result so that the deferred closure's Elapsed reaches
// the caller.
func runOne(ctx context.Context, e Experiment, opt SuiteOptions, backoff time.Duration) (res SuiteResult) {
	rec := obs.From(ctx)
	busy := rec.Gauge(obs.WorkersBusy)
	busy.Add(1)
	res = SuiteResult{ID: e.ID, Title: e.Title}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		busy.Add(-1)
		rec.Counter(obs.SuiteDone).Inc()
		if res.Err != nil {
			rec.Counter(obs.SuiteFailed).Inc()
		}
	}()
	policy := RetryPolicy{MaxAttempts: opt.Retries + 1, Backoff: backoff}
	res.Attempts, res.Err = policy.Do(ctx, func(int) error {
		rep, err := Execute(ctx, e, opt.Options)
		res.Report = rep
		return err
	})
	if res.Attempts > 1 {
		rec.Counter(obs.SuiteRetries).Add(uint64(res.Attempts - 1))
	}
	return res
}
