// Package sim is a small event-scheduling discrete event simulator.
//
// It replaces the part of JavaSim the paper uses for its evaluation: an
// event heap ordered by activation time over a virtual clock. Time is a
// float64 in arbitrary units (the experiments use minutes, matching the
// paper's figures).
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point on the simulator's virtual clock.
type Time = float64

// Event is a scheduled callback. The callback runs exactly once, at its
// activation time, with the simulator clock already advanced.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

// eventQueue is a min-heap over (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Simulator owns a virtual clock and an event list. The zero value is ready
// to use, with the clock at zero and no events. A Simulator is not safe for
// concurrent use: like all event-scheduling DES kernels it is strictly
// single-threaded, which is what makes runs deterministic.
type Simulator struct {
	now   Time
	nexts uint64
	queue eventQueue
}

// New returns a simulator with the clock at zero and an empty event list.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Schedule registers fn to run after delay. A negative delay is a
// programming error and panics; a zero delay runs fn after all events
// already scheduled for the current instant (FIFO order).
func (s *Simulator) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute time at, which must not be in
// the simulator's past.
func (s *Simulator) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	heap.Push(&s.queue, &event{at: at, seq: s.nexts, fn: fn})
	s.nexts++
}

// Step executes the single next event, advancing the clock to it. It
// returns false when the event list is empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the list is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with activation time <= until, then advances the
// clock to until (if it is past the last executed event).
func (s *Simulator) RunUntil(until Time) {
	for len(s.queue) > 0 && s.queue[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.queue) }
