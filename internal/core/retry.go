package core

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"wsstudy/internal/obs"
)

// RetryPolicy is the one retry loop the repo uses: jittered exponential
// backoff with typed-error classification and deadline budgeting. The
// suite runner, the result store's compute path and the cluster's peer
// fill all share it, so "what is worth retrying" is decided in exactly
// one place.
//
// The zero value is usable and means "one attempt, no retries"; set
// MaxAttempts to enable retrying.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts, the first included
	// (<= 0 means 1: no retries).
	MaxAttempts int
	// Backoff is the delay before the first retry, doubling per attempt
	// (0 = 100ms).
	Backoff time.Duration
	// MaxBackoff caps the grown delay (0 = 30s).
	MaxBackoff time.Duration
	// Jitter spreads each delay uniformly across ±Jitter of its nominal
	// value (0.2 = ±20%), decorrelating retry storms across workers.
	// Zero means no jitter.
	Jitter float64
	// Classify reports whether an error is worth retrying
	// (nil = DefaultRetryable).
	Classify func(error) bool
}

// DefaultRetryable is the repo's shared transient-vs-permanent
// classification: failures explicitly marked Transient are retryable;
// deadline expiry, cancellation, panics, trace corruption (a corrupt
// trace stays corrupt on every attempt) and everything else are
// permanent. Callers with more context (a test injecting a
// known-permanent fault) override via RetryPolicy.Classify.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return IsTransient(err)
}

// Do runs op until it succeeds, exhausts the attempt budget, fails
// permanently, or runs out of deadline. It returns the attempts made
// and the final error (nil on success). op receives the 1-based attempt
// number.
//
// Deadline budgeting: before sleeping, Do checks the context's
// deadline — a backoff the deadline cannot cover is not started, and
// the last real error is returned instead of burning the remaining
// budget on a sleep that ends in DeadlineExceeded. Cancellation during
// a backoff returns ctx.Err() immediately. Each retry increments the
// context Recorder's core.retry.attempts counter.
func (p RetryPolicy) Do(ctx context.Context, op func(attempt int) error) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxAttempts := p.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := p.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 30 * time.Second
	}
	classify := p.Classify
	if classify == nil {
		classify = DefaultRetryable
	}
	retries := obs.From(ctx).Counter(obs.CoreRetryAttempts)

	var err error
	for attempt := 1; ; attempt++ {
		err = op(attempt)
		if err == nil || attempt >= maxAttempts || !classify(err) {
			return attempt, err
		}
		delay := backoff << (attempt - 1)
		if delay <= 0 || delay > maxBackoff {
			delay = maxBackoff
		}
		if p.Jitter > 0 {
			spread := float64(delay) * p.Jitter
			delay = time.Duration(float64(delay) - spread + 2*spread*rand.Float64())
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return attempt, err
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return attempt, ctx.Err()
		case <-t.C:
		}
		retries.Inc()
	}
}
