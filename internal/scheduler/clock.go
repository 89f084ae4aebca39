package scheduler

import (
	"ivdss/internal/core"
	"ivdss/internal/sim"
)

// Clock is the time source the scheduling engine runs against. The engine
// never sleeps or reads wall time directly: it asks the clock for "now"
// (in experiment minutes) and arms callbacks for future instants, which is
// what lets the identical engine run inside a discrete event simulation,
// against a hand-stepped test clock, or on the live server's scaled wall
// clock.
type Clock interface {
	// Now returns the current experiment time.
	Now() core.Time
	// AfterFunc arranges for fn to run d experiment minutes from now. A
	// non-positive d runs fn as soon as possible, after callbacks already
	// due. fn must not be invoked synchronously from inside AfterFunc.
	AfterFunc(d core.Duration, fn func())
}

// SimClock drives the engine on a discrete event simulator's virtual
// time. Like the simulator itself it is strictly single-threaded.
type SimClock struct {
	Sim *sim.Simulator
}

var _ Clock = SimClock{}

// Now implements Clock.
func (c SimClock) Now() core.Time { return c.Sim.Now() }

// AfterFunc implements Clock.
func (c SimClock) AfterFunc(d core.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.Sim.Schedule(d, fn)
}

// ManualClock is a hand-stepped clock for driving the engine in tests
// without a simulator of their own: callbacks queue on a sim.Simulator in
// (time, insertion) order and run when the test calls Run or RunUntil. The
// zero value is ready to use. Not safe for concurrent use.
type ManualClock struct {
	sim sim.Simulator
}

var _ Clock = (*ManualClock)(nil)

// Now implements Clock.
func (c *ManualClock) Now() core.Time { return c.sim.Now() }

// AfterFunc implements Clock.
func (c *ManualClock) AfterFunc(d core.Duration, fn func()) {
	SimClock{Sim: &c.sim}.AfterFunc(d, fn)
}

// Run executes queued callbacks in time order until none remain,
// advancing the clock to each callback's instant.
func (c *ManualClock) Run() { c.sim.Run() }

// RunUntil executes callbacks due at or before t, then advances the clock
// to t.
func (c *ManualClock) RunUntil(t core.Time) { c.sim.RunUntil(t) }

// Pending returns the number of callbacks still queued.
func (c *ManualClock) Pending() int { return c.sim.Pending() }
