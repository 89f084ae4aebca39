package server

import (
	"reflect"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/metrics"
	"ivdss/internal/relation"
	"ivdss/internal/replsync"
	"ivdss/internal/sqlmini"
)

// TestApplyDeltaLeavesHeldSnapshot: the snapshot a reader took before two
// delta applies keeps exactly its rows while the stored replica grows by
// the deltas' rows; the snapshots share rows rather than copying them; and
// a delta row of the wrong type fails its apply and leaves the stored
// replica as it was.
func TestApplyDeltaLeavesHeldSnapshot(t *testing.T) {
	s := &DSSServer{
		replicas:  make(map[core.TableID]replicaSnapshot),
		execCache: sqlmini.NewExecCache(),
		stats:     metrics.NewRegistry(),
	}
	ap := replicaApplier{s}
	if err := ap.ApplySnapshot("accounts", replsync.Snapshot{Table: accountsTable(t)}, 1); err != nil {
		t.Fatal(err)
	}
	held := s.replicas["accounts"].table
	want := held.Clone()
	deltas := [][]relation.Row{
		{{relation.IntVal(3), relation.FloatVal(300)}},
		{{relation.IntVal(4), relation.FloatVal(400)}, {relation.IntVal(5), relation.FloatVal(500)}},
	}
	grown := append([]relation.Row{}, want.Rows...)
	for i, rows := range deltas {
		if err := ap.ApplyDelta("accounts", replsync.Delta{Rows: rows}, core.Time(2+i)); err != nil {
			t.Fatal(err)
		}
		grown = append(grown, rows...)
	}
	next := s.replicas["accounts"].table
	if !reflect.DeepEqual(held.Rows, want.Rows) {
		t.Fatalf("held snapshot changed under two delta applies: %v, want %v", held.Rows, want.Rows)
	}
	if !reflect.DeepEqual(next.Rows, grown) {
		t.Fatalf("stored replica %v, want %v", next.Rows, grown)
	}
	if &next.Rows[0][0] != &held.Rows[0][0] {
		t.Fatal("the applied snapshot copied the held snapshot's rows")
	}
	bad := replsync.Delta{Rows: []relation.Row{{relation.StrVal("x"), relation.FloatVal(1)}}}
	if err := ap.ApplyDelta("accounts", bad, 9); err == nil {
		t.Fatal("a delta row of the wrong type applied")
	}
	if s.replicas["accounts"].table != next || next.NumRows() != len(grown) {
		t.Fatal("a failed delta apply replaced or grew the stored replica")
	}
}
