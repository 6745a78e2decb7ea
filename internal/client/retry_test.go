package client

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"entangled/internal/api"
)

func typedErr(code string) error { return &Error{Status: 503, Code: code, Message: code} }

func TestIsRetryableCodes(t *testing.T) {
	for _, code := range []string{
		api.CodeOverloaded, api.CodeMailboxFull, api.CodeThrottled,
		api.CodeDegraded, api.CodeTimeout, api.CodeAckIndeterminate,
	} {
		if !IsRetryable(typedErr(code)) {
			t.Errorf("IsRetryable(%s) = false, want true", code)
		}
	}
	for _, code := range []string{
		api.CodeBadRequest, api.CodeSessionExists, api.CodeSessionNotFound,
		api.CodeDuplicateID, api.CodeInternal, api.CodeDraining,
	} {
		if IsRetryable(typedErr(code)) {
			t.Errorf("IsRetryable(%s) = true, want false", code)
		}
	}
	if !IsRetryable(io.EOF) {
		t.Error("IsRetryable(io.EOF) = false, want true (transport drop)")
	}
}

func TestFateKnown(t *testing.T) {
	for _, code := range []string{
		api.CodeOverloaded, api.CodeMailboxFull, api.CodeDraining, api.CodeDegraded,
		api.CodeThrottled,
	} {
		if !FateKnown(typedErr(code)) {
			t.Errorf("FateKnown(%s) = false, want true", code)
		}
	}
	for _, code := range []string{api.CodeAckIndeterminate, api.CodeTimeout, api.CodeInternal} {
		if FateKnown(typedErr(code)) {
			t.Errorf("FateKnown(%s) = true, want false", code)
		}
	}
	if FateKnown(io.EOF) {
		t.Error("FateKnown(io.EOF) = true, want false (fate unknown on a drop)")
	}
}

// fakeSleep records requested pauses without sleeping.
func fakeSleep(log *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *log = append(*log, d) }
}

func TestRetryDoSucceedsAfterRetryableFailures(t *testing.T) {
	var pauses []time.Duration
	r := Retry{Attempts: 4, rng: rand.New(rand.NewSource(1)), sleep: fakeSleep(&pauses)}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return typedErr(api.CodeDegraded)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(pauses) != 2 {
		t.Fatalf("pauses = %v, want 2 entries", pauses)
	}
	// Jittered exponential: nth pause drawn from [base·2ⁿ/2, base·2ⁿ).
	for i, d := range pauses {
		lo := retryBase << uint(i) / 2
		hi := retryBase << uint(i)
		if d < lo || d >= hi {
			t.Errorf("pause %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
	}
}

func TestRetryDoStopsOnNonRetryable(t *testing.T) {
	r := Retry{Attempts: 5, sleep: func(time.Duration) {}}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return typedErr(api.CodeBadRequest)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (non-retryable must not retry)", calls)
	}
	var e *Error
	if !errors.As(err, &e) || e.Code != api.CodeBadRequest {
		t.Fatalf("err = %v, want the typed bad_request", err)
	}
}

func TestRetryDoExhaustsAttempts(t *testing.T) {
	r := Retry{Attempts: 3, sleep: func(time.Duration) {}}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return typedErr(api.CodeOverloaded)
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !IsRetryable(err) {
		t.Fatalf("err = %v, want the last typed error back", err)
	}
}

func TestRetryDoFateKnownStopsOnIndeterminate(t *testing.T) {
	r := Retry{Attempts: 5, sleep: func(time.Duration) {}}
	calls := 0
	err := r.DoFateKnown(context.Background(), func(context.Context) error {
		calls++
		return typedErr(api.CodeAckIndeterminate)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (indeterminate fate must not blind-retry)", calls)
	}
	var e *Error
	if !errors.As(err, &e) || e.Code != api.CodeAckIndeterminate {
		t.Fatalf("err = %v, want ack_indeterminate surfaced", err)
	}
}

func TestRetryDoFateKnownRetriesDegraded(t *testing.T) {
	r := Retry{Attempts: 5, sleep: func(time.Duration) {}}
	calls := 0
	err := r.DoFateKnown(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return typedErr(api.CodeDegraded)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v calls = %d, want nil after 3 (degraded is fate-known)", err, calls)
	}
}

func TestRetryBudgetBoundsSleeps(t *testing.T) {
	var pauses []time.Duration
	// The first backoff is at least retryBase/2, 5ms: it already busts
	// a 4ms budget, so no retry is taken at all.
	r := Retry{Attempts: 10, Budget: 4 * time.Millisecond,
		rng: rand.New(rand.NewSource(7)), sleep: fakeSleep(&pauses)}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return typedErr(api.CodeOverloaded)
	})
	if calls != 1 || len(pauses) != 0 {
		t.Fatalf("calls = %d pauses = %v, want 1 call and no pauses", calls, pauses)
	}
	if err == nil {
		t.Fatal("want the last error when the budget stops the loop")
	}
}

func TestRetryCtxCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Retry{Attempts: 10, sleep: func(time.Duration) {}}
	calls := 0
	err := r.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return typedErr(api.CodeOverloaded)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (canceled ctx stops the loop)", calls)
	}
	if err == nil {
		t.Fatal("want an error after cancel")
	}
}

// TestRetryHonorsRetryAfterHint: a throttled error carrying the
// server's capacity hint overrides the exponential schedule — every
// pause lands in the jittered [hint, 1.5·hint) window instead of the
// 10ms-base doubling, and DoFateKnown retries it (throttles are
// fate-known rejections).
func TestRetryHonorsRetryAfterHint(t *testing.T) {
	const hint = 200 * time.Millisecond
	var pauses []time.Duration
	r := Retry{Attempts: 4, rng: rand.New(rand.NewSource(9)), sleep: fakeSleep(&pauses)}
	calls := 0
	err := r.DoFateKnown(context.Background(), func(context.Context) error {
		calls++
		return &Error{Status: 429, Code: api.CodeThrottled, Message: "over budget", RetryAfterMS: hint.Milliseconds()}
	})
	if calls != 4 || len(pauses) != 3 {
		t.Fatalf("calls = %d pauses = %v, want 4 calls / 3 pauses", calls, pauses)
	}
	if err == nil {
		t.Fatal("want the throttle error after attempts run out")
	}
	for i, d := range pauses {
		if d < hint || d >= hint+hint/2 {
			t.Fatalf("pause %d = %v outside the hinted [%v, %v) window", i, d, hint, hint+hint/2)
		}
	}
}

// TestRetryBudgetCapsHintedSleeps: the overall budget still binds when
// the server's hint sets the pause — a hint larger than the remaining
// budget stops the loop instead of oversleeping it.
func TestRetryBudgetCapsHintedSleeps(t *testing.T) {
	var pauses []time.Duration
	// Hinted pauses draw from [250ms, 375ms): the first always fits a
	// 400ms budget, the first plus a second (≥500ms total) never does.
	r := Retry{Attempts: 10, Budget: 400 * time.Millisecond, rng: rand.New(rand.NewSource(3)), sleep: fakeSleep(&pauses)}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return &Error{Status: 429, Code: api.CodeThrottled, RetryAfterMS: 250}
	})
	if calls != 2 || len(pauses) != 1 {
		t.Fatalf("calls = %d pauses = %v, want 2 calls / 1 pause", calls, pauses)
	}
	if err == nil {
		t.Fatal("want the throttle error when the budget stops the loop")
	}
}

func TestRetrySeededScheduleDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var pauses []time.Duration
		r := Retry{Attempts: 5, rng: rand.New(rand.NewSource(42)), sleep: fakeSleep(&pauses)}
		r.Do(context.Background(), func(context.Context) error {
			return typedErr(api.CodeOverloaded)
		})
		return pauses
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("pause counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules differ at %d: %v vs %v", i, a, b)
		}
	}
}

// Do is the retry loop under IsRetryable alone, without DoFateKnown's
// fate check: the tests drive the loop's schedule and budget through it.
func (r Retry) Do(ctx context.Context, fn func(context.Context) error) error {
	return r.run(ctx, fn, IsRetryable)
}
