package replication

import (
	"math"
	"slices"
	"sync"
	"testing"

	"ivdss/internal/core"
)

// The manager may be mutated (RecordSync, Reschedule, Register) while
// planners read StateFor through the catalog concurrently, as the
// wall-clock benchmark's replay does. This test hammers every combination
// under -race and checks each answer is a valid planner state.
func TestManagerConcurrentRecordSyncStateFor(t *testing.T) {
	m := NewManager()
	tables := []core.TableID{"a", "b", "c", "d"}
	for i, id := range tables {
		sched, err := Periodic(1+core.Duration(i), 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(id, sched); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 400
	var wg sync.WaitGroup
	// Writers: one per table, recording live completions and rewriting the
	// table's future schedule; one more registers a table mid-run.
	for _, id := range append([]core.TableID{"live"}, tables...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id == "live" {
				if err := m.Register(id, Schedule{}); err != nil {
					t.Error(err)
					return
				}
			}
			at := core.Time(0)
			for i := 0; i < iters; i++ {
				at += .5
				if err := m.RecordSync(id, at); err != nil {
					t.Error(err)
					return
				}
				if err := m.Reschedule(id, []core.Time{at + 1, at + 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Readers: the planner's view and enumeration.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				now := core.Time(i) / 2
				for _, id := range tables {
					rs, ok := m.StateFor(id, now, 10)
					if !ok {
						t.Errorf("StateFor(%s) = nil", id)
						return
					}
					if err := (core.TableState{ID: id, Site: 1, Replica: &rs}).Validate(); err != nil {
						t.Errorf("StateFor(%s, %v): %v", id, now, err)
						return
					}
				}
				m.StateFor("live", now, 10) // may be nil mid-register: fine
				m.Tables()
			}
		}()
	}
	wg.Wait()
}

func TestRecordSyncSupersedesPendingEntries(t *testing.T) {
	m := NewManager()
	if err := m.Register("t", Schedule{Times: []core.Time{10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	// A live completion at 21 supersedes the pending syncs at 10 and 20.
	if err := m.RecordSync("t", 21); err != nil {
		t.Fatal(err)
	}
	rs, ok := m.StateFor("t", 22, 0)
	if !ok || rs.LastSync != 21 {
		t.Fatalf("LastSync = %v, want 21", rs.LastSync)
	}
	if len(rs.NextSyncs) != 1 || rs.NextSyncs[0] != 30 {
		t.Fatalf("NextSyncs = %v, want [30]", rs.NextSyncs)
	}
	// Recording the same instant again is a no-op; going backwards errors.
	if err := m.RecordSync("t", 21); err != nil {
		t.Fatalf("idempotent re-record: %v", err)
	}
	if err := m.RecordSync("t", 20); err == nil {
		t.Fatal("RecordSync before last completion should error")
	}
	if err := m.RecordSync("missing", 1); err == nil {
		t.Fatal("RecordSync on unregistered table should error")
	}
}

// TestRecordSyncKeepsScheduleBounded runs the live agent's mirror loop for
// 10 000 cycles — each completion recorded, the next four rescheduled, with
// drift and the occasional late cycle. The stored schedule must stay at one
// completion plus the pending entries, and for instants at or after the last
// completion StateFor must answer exactly what the full history implies.
func TestRecordSyncKeepsScheduleBounded(t *testing.T) {
	m := NewManager()
	if err := m.Register("t", Schedule{}); err != nil {
		t.Fatal(err)
	}
	const period, mirrored = 2.0, 4
	at := core.Time(0)
	for i := 0; i < 10000; i++ {
		at += period + core.Time(i%7)*.01
		if i%97 == 0 {
			at += 3 * period // a deferred cycle lands past pending entries
		}
		if err := m.RecordSync("t", at); err != nil {
			t.Fatal(err)
		}
		future := make([]core.Time, mirrored)
		for k := range future {
			future[k] = at + core.Time(k+1)*period
		}
		if err := m.Reschedule("t", future); err != nil {
			t.Fatal(err)
		}
		if n := len(m.tables["t"].schedule); n > 1+mirrored {
			t.Fatalf("cycle %d: schedule holds %d entries, want at most %d", i, n, 1+mirrored)
		}
		for _, now := range []core.Time{at, at + .5, at + period, at + 2.5*period} {
			rs, ok := m.StateFor("t", now, 3*period)
			if !ok || rs.LastSync != lastAtOrBefore(at, future, now) {
				t.Fatalf("cycle %d: StateFor(%v).LastSync = %v, want %v", i, now, rs.LastSync, lastAtOrBefore(at, future, now))
			}
			var next []core.Time
			for _, f := range future {
				if f > now && f <= now+3*period {
					next = append(next, f)
				}
			}
			if !slices.Equal(rs.NextSyncs, next) {
				t.Fatalf("cycle %d: StateFor(%v).NextSyncs = %v, want %v", i, now, rs.NextSyncs, next)
			}
		}
	}
}

// lastAtOrBefore is the reference answer over a completion and its pending
// schedule: the latest instant not after now.
func lastAtOrBefore(completed core.Time, future []core.Time, now core.Time) core.Time {
	last := completed
	for _, f := range future {
		if f <= now {
			last = f
		}
	}
	return last
}

func TestRescheduleReplacesFuture(t *testing.T) {
	m := NewManager()
	if err := m.Register("t", Schedule{Times: []core.Time{5, 10, 15}}); err != nil {
		t.Fatal(err)
	}
	if err := m.RecordSync("t", 5); err != nil { // the sync at 5 completes
		t.Fatal(err)
	}
	if err := m.Reschedule("t", []core.Time{8, 11}); err != nil {
		t.Fatal(err)
	}
	rs, ok := m.StateFor("t", 6, 0)
	if !ok || rs.LastSync != 5 {
		t.Fatalf("LastSync = %v, want 5", rs.LastSync)
	}
	if len(rs.NextSyncs) != 2 || rs.NextSyncs[0] != 8 || rs.NextSyncs[1] != 11 {
		t.Fatalf("NextSyncs = %v, want [8 11]", rs.NextSyncs)
	}
	// A future entry at or before the last completion is rejected.
	if err := m.Reschedule("t", []core.Time{5}); err == nil {
		t.Fatal("Reschedule at last completed sync should error")
	}
	if err := m.Reschedule("t", []core.Time{9, 9}); err == nil {
		t.Fatal("non-ascending reschedule should error")
	}
	if err := m.Reschedule("missing", []core.Time{9}); err == nil {
		t.Fatal("Reschedule on unregistered table should error")
	}
	// Clearing the future entirely is allowed.
	if err := m.Reschedule("t", nil); err != nil {
		t.Fatal(err)
	}
	if rs, ok := m.StateFor("t", 6, 0); !ok || len(rs.NextSyncs) != 0 {
		t.Fatalf("NextSyncs after clearing = %v, want none", rs.NextSyncs)
	}
}

func TestExponentialDeterministicInSeed(t *testing.T) {
	a, err := Exponential(5, 42, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exponential(5, 42, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Times) == 0 || len(a.Times) != len(b.Times) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a.Times), len(b.Times))
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a.Times[i], b.Times[i])
		}
	}
	c, err := Exponential(5, 43, 1000)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Times) == len(c.Times)
	if same {
		for i := range a.Times {
			if a.Times[i] != c.Times[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestExponentialMeanConvergence(t *testing.T) {
	const mean = 4.0
	s, err := Exponential(mean, 7, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) < 1000 {
		t.Fatalf("only %d syncs over the horizon; want a large sample", len(s.Times))
	}
	var sum float64
	prev := core.Time(0)
	for _, at := range s.Times {
		sum += at - prev
		prev = at
	}
	got := sum / float64(len(s.Times))
	if math.Abs(got-mean)/mean > .05 {
		t.Fatalf("mean inter-sync gap %.3f, want %.3f ±5%%", got, mean)
	}
}

func TestExponentialRejectsNonPositive(t *testing.T) {
	if _, err := Exponential(0, 1, 100); err == nil {
		t.Fatal("zero mean should error")
	}
	if _, err := Exponential(-2, 1, 100); err == nil {
		t.Fatal("negative mean should error")
	}
	if _, err := Exponential(5, 1, 0); err == nil {
		t.Fatal("zero horizon should error")
	}
	if _, err := Exponential(5, 1, -10); err == nil {
		t.Fatal("negative horizon should error")
	}
}
