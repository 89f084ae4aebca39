package scheduler

// This file is the live driver's Clock implementation and, together with
// internal/sim and internal/wall, one of the three places in the tree
// allowed to touch the time package directly (enforced by the clockcheck
// analyzer). Everything the live server knows about wall time flows
// through one WallClock, so "experiment minutes" mean the same thing to
// the scheduling engine, the replication engine, the circuit breakers,
// and the status output.

import (
	"time"

	"ivdss/internal/core"
)

// WallClock drives the engine on scaled wall time: experiment minutes
// advance at Scale minutes per wall second from the moment the clock was
// created. It is immutable after creation and safe for concurrent use.
type WallClock struct {
	epoch time.Time
	scale float64 // experiment minutes per wall second
}

var _ Clock = (*WallClock)(nil)

// NewWallClock returns a clock whose experiment time starts at 0 now and
// advances at scale experiment minutes per wall second (1/60 = real
// time). It panics on a non-positive scale: a stopped or reversed wall
// clock is never meaningful.
func NewWallClock(scale float64) *WallClock {
	if scale <= 0 {
		panic("scheduler: WallClock scale must be positive")
	}
	return &WallClock{epoch: time.Now(), scale: scale}
}

// Now implements Clock.
func (c *WallClock) Now() core.Time {
	return time.Since(c.epoch).Seconds() * c.scale
}

// AfterFunc implements Clock: fn runs in its own goroutine once d
// experiment minutes of wall time have elapsed.
func (c *WallClock) AfterFunc(d core.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(c.WallDelay(d), fn)
}

// WallDelay converts an experiment-minute duration to wall-clock time.
func (c *WallClock) WallDelay(d core.Duration) time.Duration {
	return time.Duration(d / c.scale * float64(time.Second))
}
