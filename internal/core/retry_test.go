package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wsstudy/internal/capture"
	"wsstudy/internal/fault"
	"wsstudy/internal/obs"
	"wsstudy/internal/trace"
)

func TestRetryPolicySucceedsWithoutRetry(t *testing.T) {
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	attempts, err := RetryPolicy{MaxAttempts: 5}.Do(ctx, func(int) error { return nil })
	if err != nil || attempts != 1 {
		t.Fatalf("Do = (%d, %v), want (1, nil)", attempts, err)
	}
	if n := rec.Snapshot().Counter(obs.CoreRetryAttempts); n != 0 {
		t.Errorf("clean run counted %d retries", n)
	}
}

func TestRetryPolicyRetriesTransient(t *testing.T) {
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	fails := 2
	attempts, err := RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond}.Do(ctx, func(a int) error {
		if a != fails+1 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || attempts != fails+1 {
		t.Fatalf("Do = (%d, %v), want (%d, nil)", attempts, err, fails+1)
	}
	if n := rec.Snapshot().Counter(obs.CoreRetryAttempts); n != uint64(fails) {
		t.Errorf("retry counter = %d, want %d", n, fails)
	}
}

func TestRetryPolicyStopsOnPermanent(t *testing.T) {
	boom := errors.New("permanent")
	attempts, err := RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond}.Do(
		context.Background(), func(int) error { return boom })
	if !errors.Is(err, boom) || attempts != 1 {
		t.Fatalf("Do = (%d, %v), want (1, %v)", attempts, err, boom)
	}
}

func TestRetryPolicyExhaustsBudget(t *testing.T) {
	attempts, err := RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}.Do(
		context.Background(), func(int) error { return Transient(errors.New("always")) })
	if err == nil || attempts != 3 {
		t.Fatalf("Do = (%d, %v), want 3 attempts and the final error", attempts, err)
	}
}

// TestDefaultRetryable pins the repo-wide transient-vs-permanent split.
func TestDefaultRetryable(t *testing.T) {
	corrupt := &trace.CorruptError{Offset: 7, Reason: "crc"}
	replay := &capture.ReplayError{Key: "k", Delivered: 3, Err: corrupt}
	injected := &fault.InjectedError{Name: "x", Err: errors.New("injected disk full")}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"transient", Transient(errors.New("boom")), true},
		// A corrupt trace is corrupt on every attempt.
		{"trace corruption", corrupt, false},
		{"capture replay", replay, false},
		{"injected fault", injected, false},
		{"transient injected fault", &fault.InjectedError{Name: "x", Err: Transient(errors.New("b"))}, true},
		{"canceled", context.Canceled, false},
		{"deadline", &DeadlineError{ID: "x"}, false},
		// A deadline that expired while retrying a transient failure is
		// still a deadline: the budget is gone, so retrying is pointless.
		{"transient-wrapped deadline", Transient(context.DeadlineExceeded), false},
	}
	for _, c := range cases {
		if got := DefaultRetryable(c.err); got != c.want {
			t.Errorf("DefaultRetryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryPolicyClassifyOverride(t *testing.T) {
	boom := errors.New("special")
	calls := 0
	attempts, err := RetryPolicy{
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		Classify:    func(err error) bool { calls++; return errors.Is(err, boom) },
	}.Do(context.Background(), func(int) error { return boom })
	if attempts != 3 || !errors.Is(err, boom) {
		t.Fatalf("Do = (%d, %v), want custom classifier to drive 3 attempts", attempts, err)
	}
	// The final attempt's error is returned on budget exhaustion without
	// consulting the classifier.
	if calls != 2 {
		t.Errorf("classifier consulted %d times, want 2", calls)
	}
}

// TestRetryPolicyDeadlineBudget proves Do never starts a backoff the
// deadline cannot cover: the real error comes back immediately instead
// of a sleep ending in DeadlineExceeded.
func TestRetryPolicyDeadlineBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	boom := Transient(errors.New("flaky"))
	start := time.Now()
	attempts, err := RetryPolicy{MaxAttempts: 5, Backoff: time.Hour}.Do(ctx, func(int) error { return boom })
	if !errors.Is(err, boom) || attempts != 1 {
		t.Fatalf("Do = (%d, %v), want the real error after 1 attempt", attempts, err)
	}
	if el := time.Since(start); el > 40*time.Millisecond {
		t.Errorf("Do slept %v against a backoff the deadline cannot cover", el)
	}
}

func TestRetryPolicyCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := RetryPolicy{MaxAttempts: 3, Backoff: time.Hour, MaxBackoff: time.Hour}.Do(
		ctx, func(int) error { return Transient(errors.New("flaky")) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel during backoff: err = %v, want context.Canceled", err)
	}
}

// TestSuiteDoesNotRetryCorruptTrace wires the pieces together: an
// experiment failing with a corrupt-trace error is not retried by the
// suite, however many retries it allows, because a corrupt trace stays
// corrupt.
func TestSuiteDoesNotRetryCorruptTrace(t *testing.T) {
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	calls := 0
	e := Experiment{
		ID: "corrupt-trace", Title: "corrupt trace",
		Run: func(ctx context.Context, opt Options) (*Report, error) {
			calls++
			return nil, &capture.ReplayError{Key: "k", Err: &trace.CorruptError{Reason: "crc"}}
		},
	}
	rep := RunSuite(ctx, []Experiment{e}, SuiteOptions{
		Workers: 1, Retries: 2, Backoff: time.Millisecond,
	})
	r := rep.Results[0]
	if !errors.Is(r.Err, trace.ErrCorrupt) || r.Attempts != 1 || calls != 1 {
		t.Fatalf("suite result = attempts %d (%d runs), err %v; want one attempt failing with trace.ErrCorrupt",
			r.Attempts, calls, r.Err)
	}
	m := rec.Snapshot()
	if m.Counter(obs.SuiteRetries) != 0 || m.Counter(obs.CoreRetryAttempts) != 0 {
		t.Errorf("retry counters = suite %d / core %d, want 0/0",
			m.Counter(obs.SuiteRetries), m.Counter(obs.CoreRetryAttempts))
	}
}
