package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	s.ScheduleAt(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var ran []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.ScheduleAt(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(3)
	if len(ran) != 3 {
		t.Fatalf("ran %d events, want 3", len(ran))
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Errorf("clock = %v, want 42", s.Now())
	}
}

func TestEventTimesNonDecreasing(t *testing.T) {
	f := func(delays []float64) bool {
		s := New()
		var seen []Time
		for _, d := range delays {
			if d < 0 {
				d = -d
			}
			if d > 1e9 {
				d = 1e9
			}
			s.Schedule(d, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		return sort.Float64sAreSorted(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHeapStress drives a zero-value simulator's event queue with random
// schedules and checks execution matches a reference model: events in
// (time, insertion) order.
func TestHeapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		var s Simulator
		type planned struct {
			at  Time
			seq int
		}
		var model []planned
		var executed []int
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(50))
			model = append(model, planned{at: at, seq: i})
			s.ScheduleAt(at, func() { executed = append(executed, i) })
		}
		s.Run()

		sort.SliceStable(model, func(a, b int) bool { return model[a].at < model[b].at })
		if len(executed) != len(model) {
			t.Fatalf("trial %d: executed %d events, want %d", trial, len(executed), len(model))
		}
		for i, p := range model {
			if executed[i] != p.seq {
				t.Fatalf("trial %d: order mismatch at %d", trial, i)
			}
		}
	}
}
