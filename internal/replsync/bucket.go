package replsync

import (
	"fmt"
	"math"
	"sync"

	"ivdss/internal/core"
	"ivdss/internal/scheduler"
)

// Bucket is a bandwidth token bucket over experiment time: the agent's
// sync budget, charged by every unit's cycles, replicas and views alike.
//
// The bucket is post-paid: a cycle checks Debt before moving bytes and
// Charges the actual payload afterwards, which may overdraw the bucket.
// Overdraw puts the bucket into debt and later cycles defer until the
// refill catches up — a payload is never split or truncated to fit.
//
// A nil *Bucket is a valid unlimited budget: Debt is always zero and
// Charge is a no-op. Bucket is safe for concurrent use.
type Bucket struct {
	mu         sync.Mutex
	clock      scheduler.Clock
	rate       float64 // bytes per experiment minute
	burst      float64 // token cap
	tokens     float64
	lastRefill core.Time
}

// NewBucket returns a bucket refilling at rate bytes per experiment minute,
// starting full. A zero burst defaults to five minutes' worth of rate.
func NewBucket(clock scheduler.Clock, rate, burst float64) (*Bucket, error) {
	if clock == nil {
		return nil, fmt.Errorf("replsync: bucket needs a Clock")
	}
	if rate <= 0 {
		return nil, fmt.Errorf("replsync: bucket rate %g must be positive (nil bucket = unlimited)", rate)
	}
	if burst < 0 {
		return nil, fmt.Errorf("replsync: negative bucket burst %g", burst)
	}
	if burst == 0 {
		burst = 5 * rate
	}
	return &Bucket{
		clock:      clock,
		rate:       rate,
		burst:      burst,
		tokens:     burst,
		lastRefill: clock.Now(),
	}, nil
}

// Rate returns the refill rate in bytes per experiment minute (0 for a nil
// bucket).
func (b *Bucket) Rate() float64 {
	if b == nil {
		return 0
	}
	return b.rate
}

// Debt refreshes the bucket to the current instant and returns the bytes
// of outstanding debt — zero when spending is allowed. Dividing a nonzero
// debt by Rate gives the minutes until the bucket is whole again.
func (b *Bucket) Debt() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clock.Now())
	if b.tokens < 0 {
		return -b.tokens
	}
	return 0
}

// Charge post-pays a payload, possibly driving the bucket into debt.
func (b *Bucket) Charge(bytes int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clock.Now())
	b.tokens -= float64(bytes)
}

// refillLocked accrues tokens up to the burst cap.
func (b *Bucket) refillLocked(now core.Time) {
	if dt := float64(now - b.lastRefill); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.lastRefill = now
}
