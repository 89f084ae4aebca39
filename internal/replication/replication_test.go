package replication

import (
	"math"
	"testing"

	"ivdss/internal/core"
)

func TestPeriodic(t *testing.T) {
	s, err := Periodic(10, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Time{5, 15, 25, 35}
	if len(s.Times) != len(want) {
		t.Fatalf("times = %v", s.Times)
	}
	for i := range want {
		if s.Times[i] != want[i] {
			t.Errorf("times = %v, want %v", s.Times, want)
		}
	}
	if _, err := Periodic(0, 0, 10); err == nil {
		t.Error("zero period accepted")
	}
}

func TestExponentialScheduleProperties(t *testing.T) {
	s, err := Exponential(5, 42, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Times) == 0 {
		t.Fatal("empty schedule")
	}
	last := s.Times[len(s.Times)-1]
	if last > 10000 {
		t.Errorf("schedule overran horizon: %v", last)
	}
	// Mean gap should approximate the configured mean.
	meanGap := last / float64(len(s.Times))
	if math.Abs(meanGap-5) > 1 {
		t.Errorf("mean gap = %v, want ≈5", meanGap)
	}
	// Determinism.
	s2, _ := Exponential(5, 42, 10000)
	if len(s2.Times) != len(s.Times) || s2.Times[0] != s.Times[0] {
		t.Error("exponential schedule not deterministic")
	}
	if _, err := Exponential(-1, 1, 10); err == nil {
		t.Error("negative mean accepted")
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{Times: []core.Time{1, 1}}).Validate(); err == nil {
		t.Error("non-ascending schedule accepted")
	}
}

func TestRegisterErrors(t *testing.T) {
	m := NewManager()
	if err := m.Register("", Schedule{}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := m.Register("t", Schedule{Times: []core.Time{2, 1}}); err == nil {
		t.Error("bad schedule accepted")
	}
	if err := m.Register("t", Schedule{Times: []core.Time{1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("t", Schedule{Times: []core.Time{1}}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if ids := m.Tables(); len(ids) != 1 || ids[0] != "t" {
		t.Errorf("tables after a refused registration = %v", ids)
	}
}

func TestStateFor(t *testing.T) {
	m := NewManager()
	mustRegister(t, m, "a", []core.Time{5, 9, 14, 30})

	rs, ok := m.StateFor("a", 10, 10)
	if !ok || rs.LastSync != 9 {
		t.Errorf("LastSync = %v, want 9", rs.LastSync)
	}
	if len(rs.NextSyncs) != 1 || rs.NextSyncs[0] != 14 {
		t.Errorf("NextSyncs = %v, want [14] (30 beyond horizon)", rs.NextSyncs)
	}

	// Unbounded horizon includes everything.
	rs, ok = m.StateFor("a", 10, 0)
	if !ok || len(rs.NextSyncs) != 2 {
		t.Errorf("NextSyncs = %v, want [14 30]", rs.NextSyncs)
	}

	if _, ok := m.StateFor("missing", 10, 0); ok {
		t.Error("state for unreplicated table not nil")
	}
}

func TestStateForNeverSynced(t *testing.T) {
	m := NewManager()
	mustRegister(t, m, "a", []core.Time{20, 40})
	rs, ok := m.StateFor("a", 10, 0)
	if !ok {
		t.Fatal("no state for registered table")
	}
	// Encoded so the planner sees no usable version before t=20 and a
	// first version exactly at 20.
	ts := core.TableState{ID: "a", Site: 1, Replica: &rs}
	if err := ts.Validate(); err != nil {
		t.Fatalf("encoded state invalid: %v", err)
	}
	if rs.LastSync != 20 {
		t.Errorf("LastSync = %v, want 20 (first future sync)", rs.LastSync)
	}
	if len(rs.NextSyncs) != 1 || rs.NextSyncs[0] != 40 {
		t.Errorf("NextSyncs = %v, want [40]", rs.NextSyncs)
	}
}

func TestStateForNoSyncsAtAll(t *testing.T) {
	m := NewManager()
	mustRegister(t, m, "a", nil)
	rs, ok := m.StateFor("a", 10, 0)
	if !ok {
		t.Fatal("nil state for registered table")
	}
	if rs.LastSync <= 10 {
		t.Errorf("LastSync = %v should be unusable (far future)", rs.LastSync)
	}
}

func TestTablesSorted(t *testing.T) {
	m := NewManager()
	mustRegister(t, m, "c", nil)
	mustRegister(t, m, "a", nil)
	mustRegister(t, m, "b", nil)
	ids := m.Tables()
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Errorf("tables = %v", ids)
	}
}

func mustRegister(t *testing.T, m *Manager, id core.TableID, times []core.Time) {
	t.Helper()
	if err := m.Register(id, Schedule{Times: times}); err != nil {
		t.Fatal(err)
	}
}
