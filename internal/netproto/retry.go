package netproto

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ivdss/internal/wall"
)

// Retrier retries an operation under exponential backoff with jitter — the
// delay doubles per retry — capped by both an attempt count and a
// cumulative sleep budget. The zero value is usable and takes the defaults
// documented per field. Sleep and Rand are injectable so tests run
// deterministically without waiting.
type Retrier struct {
	// MaxAttempts is the total number of tries, including the first.
	// Default 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Default 25ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step. Default 1s.
	MaxDelay time.Duration
	// Jitter perturbs each delay by ±Jitter fraction. Default 0.2; set
	// negative for none.
	Jitter float64
	// Budget caps the cumulative backoff sleep: when the next delay would
	// exceed the remaining budget, the retrier gives up and returns the
	// last error instead of sleeping. Zero means no budget cap.
	Budget time.Duration
	// Retryable classifies errors; a non-retryable error returns
	// immediately. Nil means every error is retryable.
	Retryable func(error) bool
	// Sleep defaults to the wall clock's sleep.
	Sleep func(time.Duration)
	// Rand yields uniform values in [0,1) for jitter. Defaults to a
	// process-wide source seeded with 1, so retry timing replays
	// identically run to run; inject NewJitter(seed) to pick the seed
	// (plumbed from the server's -retry-seed flag), or any func for tests.
	// The global math/rand source is never consulted.
	Rand func() float64
}

// lockedRand is a mutex-guarded seeded source: *rand.Rand itself is not
// safe for the concurrent request goroutines that share one Retrier.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// NewJitter returns a jitter source for Retrier.Rand: uniform draws from
// a seeded *rand.Rand, safe for concurrent use.
func NewJitter(seed int64) func() float64 {
	l := &lockedRand{rng: rand.New(rand.NewSource(seed))}
	return l.Float64
}

// defaultJitter backs Retrier.Rand when none is injected. Seeded, never
// the global source: an unseeded retrier must not be the reason two runs
// of the same experiment diverge.
var defaultJitter = NewJitter(1)

// RetryError wraps the final error with the attempt count.
type RetryError struct {
	Attempts int
	Err      error
}

// Error implements the error interface.
func (e *RetryError) Error() string {
	return fmt.Sprintf("after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the final underlying error.
func (e *RetryError) Unwrap() error { return e.Err }

// DoContext is Do bounded by a context: no attempt starts after the
// context ends, and a backoff that would sleep past the context deadline
// is skipped — the retrier gives up immediately with the last error
// rather than burning the caller's remaining budget on a wait it cannot
// use. This is what makes retries compose with request deadlines instead
// of racing them.
func (r Retrier) DoContext(ctx context.Context, op func(attempt int) error) error {
	attempts := r.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	base := r.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	maxDelay := r.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	jitter := r.Jitter
	if jitter == 0 {
		jitter = .2
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = wall.Sleep
	}
	random := r.Rand
	if random == nil {
		random = defaultJitter
	}

	var slept time.Duration
	delay := base
	var err error
	for a := 0; a < attempts; a++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			cause := context.Cause(ctx)
			if a == 0 {
				return cause
			}
			return &RetryError{Attempts: a, Err: fmt.Errorf("%w (last error: %v)", cause, err)}
		}
		err = op(a)
		if err == nil {
			return nil
		}
		if r.Retryable != nil && !r.Retryable(err) {
			if a == 0 {
				return err
			}
			return &RetryError{Attempts: a + 1, Err: err}
		}
		if a == attempts-1 {
			break
		}
		d := delay
		if jitter > 0 {
			d = time.Duration(float64(d) * (1 + jitter*(2*random()-1)))
		}
		if d > maxDelay {
			d = maxDelay
		}
		if r.Budget > 0 && slept+d > r.Budget {
			return &RetryError{Attempts: a + 1, Err: err}
		}
		// A backoff that outlives the caller's deadline is pure waste:
		// give up now with the real error in hand.
		if deadline, ok := ctx.Deadline(); ok && wall.Now().Add(d).After(deadline) {
			return &RetryError{Attempts: a + 1, Err: err}
		}
		if !sleepCtx(ctx, sleep, r.Sleep != nil, d) {
			return &RetryError{Attempts: a + 1, Err: err}
		}
		slept += d
		delay *= 2
		if delay > maxDelay {
			delay = maxDelay
		}
	}
	return &RetryError{Attempts: attempts, Err: err}
}

// sleepCtx waits d, returning false if the context ended first. An
// injected Sleep (tests) is called directly — determinism over
// interruptibility — while the default path selects on the context so a
// cancellation mid-backoff is honoured immediately.
func sleepCtx(ctx context.Context, sleep func(time.Duration), injected bool, d time.Duration) bool {
	if injected {
		sleep(d)
		return ctx.Err() == nil
	}
	t := wall.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
