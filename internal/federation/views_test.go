package federation

import (
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/replication"
)

func TestRegisterView(t *testing.T) {
	catalog, _ := buildTestWorld(t)
	def := core.ViewDef{
		ID:      "exposure",
		QueryID: "q-exposure",
		Table:   "trades",
		SQL:     "SELECT t_account, sum(t_amount) FROM trades GROUP BY t_account",
	}
	if err := catalog.RegisterView(def); err != nil {
		t.Fatalf("RegisterView: %v", err)
	}
	if err := catalog.RegisterView(def); err == nil {
		t.Error("duplicate view ID accepted")
	}
	if _, ok := catalog.View("exposure"); !ok {
		t.Error("View lookup failed after registration")
	}
	if got := catalog.Views(); len(got) != 1 || got[0].ID != "exposure" {
		t.Errorf("Views() = %v", got)
	}

	bad := []core.ViewDef{
		{ID: "j", QueryID: "q", Table: "trades",
			SQL: "SELECT t_account FROM trades JOIN accounts ON t_account = a_id"}, // join
		{ID: "m", QueryID: "q", Table: "accounts",
			SQL: "SELECT t_account FROM trades"}, // table mismatch
		{ID: "u", QueryID: "q", Table: "ghost",
			SQL: "SELECT x FROM ghost"}, // unplaced table
		{ID: "p", QueryID: "q", Table: "trades",
			SQL: "SELEC broken"}, // parse error
	}
	for _, def := range bad {
		if err := catalog.RegisterView(def); err == nil {
			t.Errorf("view %s: invalid definition accepted", def.ID)
		}
	}
}

func TestSnapshotAttachesViewStates(t *testing.T) {
	catalog, mgr := buildTestWorld(t)
	if err := catalog.RegisterView(core.ViewDef{
		ID:      "exposure",
		QueryID: "q-exposure",
		Table:   "accounts",
		SQL:     "SELECT a_id, sum(a_balance) FROM accounts GROUP BY a_id",
	}); err != nil {
		t.Fatal(err)
	}

	// Not yet registered as a sync unit: no planner state.
	snap, err := catalog.Snapshot([]core.TableID{"accounts"}, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap[0].Views) != 0 {
		t.Fatalf("unsynced view got planner state: %v", snap[0].Views)
	}

	// Register the view's unit; its refresh at 5 precedes the snapshot.
	unit := core.ViewUnit("exposure")
	if err := mgr.Register(unit, replication.Schedule{Times: []core.Time{5, 15, 25}}); err != nil {
		t.Fatal(err)
	}
	snap, err = catalog.Snapshot([]core.TableID{"accounts"}, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap[0].Views) != 1 {
		t.Fatalf("Views = %v, want one state", snap[0].Views)
	}
	vs := snap[0].Views[0]
	if vs.ID != "exposure" || vs.QueryID != "q-exposure" {
		t.Errorf("view state identity = %+v", vs)
	}
	if vs.LastSync != 5 {
		t.Errorf("LastSync = %v, want 5", vs.LastSync)
	}
	if len(vs.NextSyncs) != 2 || vs.NextSyncs[0] != 15 {
		t.Errorf("NextSyncs = %v", vs.NextSyncs)
	}
	if err := (core.TableState{ID: "accounts", Views: snap[0].Views}).Validate(); err != nil {
		t.Errorf("snapshot state invalid: %v", err)
	}
}
