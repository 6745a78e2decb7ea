package client

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"entangled/internal/api"
)

// FateKnown reports whether a failed call is known to have left no
// state behind on the server, so even a non-idempotent operation (a
// session join or leave) can be retried without risking a duplicate.
// True only for the typed rejections the error contract marks
// fate-known (DESIGN.md, "Error contract"): the server issues those
// before the event touches a session. Everything else is fate-unknown:
// an indeterminate ack means the event was applied in memory but its
// durability is unsettled, a timeout may have fired after the event
// landed, and a dropped connection says nothing about what the server
// did with the request it may or may not have read.
func FateKnown(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.FateKnown()
}

// Retry retries calls that fail with retryable errors, backing off
// exponentially with jitter between attempts: from retryBase (10ms),
// doubling, to at most retryCap (1s). The zero value is usable: 4
// attempts, no overall budget.
//
// Its policy, DoFateKnown, matches the service's ack-fate taxonomy: it
// retries an error only if it is IsRetryable and FateKnown — right for
// session events, which mutate the session. A join whose ack was
// indeterminate or whose connection dropped might already be applied;
// blindly retrying it would double-apply (or trip duplicate_id), so
// those fates stop the loop and surface the error to the caller.
type Retry struct {
	// Attempts is the total number of tries (the first call included).
	// Zero means 4.
	Attempts int
	// Budget, when positive, bounds the total time spent sleeping
	// between attempts: a retry whose backoff would exceed the remaining
	// budget is not taken.
	Budget time.Duration

	// sleep is a test hook; nil means time.Sleep (interruptible by ctx).
	sleep func(time.Duration)
	// rng, set by tests, makes the jitter reproducible; nil draws from
	// the global source.
	rng *rand.Rand
}

// The exponential backoff schedule both Retry and a binary transport's
// redial follow.
const (
	retryBase = 10 * time.Millisecond
	retryCap  = time.Second
)

// DoFateKnown calls fn until it succeeds, fails with an error that is
// not both retryable and fate-known (the server rejected the call
// before applying anything), the attempts run out, the budget is spent,
// or ctx ends, and returns the last error. An indeterminate or unknown
// fate returns immediately so the caller can reconcile (re-read session
// status) instead of double-applying.
func (r Retry) DoFateKnown(ctx context.Context, fn func(context.Context) error) error {
	return r.run(ctx, fn, func(err error) bool { return IsRetryable(err) && FateKnown(err) })
}

func (r Retry) run(ctx context.Context, fn func(context.Context) error, retryable func(error) bool) error {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 4
	}
	var slept time.Duration
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := backoff(attempt-1, r.rng)
			// A server retry-after hint overrides the blind exponential
			// schedule: the server knows when capacity returns (a token
			// bucket refilling), so sleeping less just burns an attempt
			// and sleeping much more wastes latency. Jittered upward by
			// up to 50% so synchronized throttled clients don't stampede
			// the instant the bucket refills; the budget still applies.
			var h api.RetryHinter
			if errors.As(err, &h) && h.RetryAfterHint() > 0 {
				d = jitterUp(h.RetryAfterHint(), r.rng)
			}
			if r.Budget > 0 && slept+d > r.Budget {
				return err
			}
			if !r.pause(ctx, d) {
				return ctx.Err()
			}
			slept += d
		}
		if err = fn(ctx); err == nil {
			return nil
		}
		if ctx.Err() != nil || !retryable(err) {
			return err
		}
	}
	return err
}

// backoff is the nth delay: retryBase·2ⁿ capped at retryCap, then
// jittered to a uniform draw from [d/2, d) so synchronized clients (all
// rejected by the same degraded window, or all dropped by one server
// restart) spread out instead of re-colliding.
func backoff(n int, rng *rand.Rand) time.Duration {
	d := retryBase << uint(n)
	if d > retryCap || d <= 0 { // <=0: the shift overflowed
		d = retryCap
	}
	return jitter(d/2, d/2, rng)
}

// jitterUp draws uniformly from [d, 3d/2): never earlier than the
// server's hint, spread enough to break client synchronization.
func jitterUp(d time.Duration, rng *rand.Rand) time.Duration { return jitter(d, d/2, rng) }

// jitter draws uniformly from [lo, lo+span), from rng or, when it is
// nil, the global source.
func jitter(lo, span time.Duration, rng *rand.Rand) time.Duration {
	switch {
	case span <= 0:
		return lo
	case rng != nil:
		return lo + time.Duration(rng.Int63n(int64(span)))
	}
	return lo + time.Duration(rand.Int63n(int64(span)))
}

// pause sleeps d, abandoning the wait when ctx ends; reports whether
// the full pause elapsed.
func (r Retry) pause(ctx context.Context, d time.Duration) bool {
	if r.sleep != nil {
		r.sleep(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
