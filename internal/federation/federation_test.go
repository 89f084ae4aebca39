package federation

import (
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/relation"
	"ivdss/internal/replication"
)

func tableIDs(n int) []core.TableID {
	ids := make([]core.TableID, n)
	for i := range ids {
		ids[i] = core.TableID(rune('a'+i%26)) + core.TableID(rune('0'+i/26))
	}
	return ids
}

func TestUniformPlacement(t *testing.T) {
	ids := tableIDs(100)
	p, err := UniformPlacement(ids, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.SiteID]int)
	for _, id := range ids {
		s, err := p.SiteOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if s < 1 || s > 10 {
			t.Fatalf("site %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c != 10 {
			t.Errorf("site %d holds %d tables, want 10", s, c)
		}
	}
	if p.NumSites() != 10 {
		t.Errorf("NumSites = %d", p.NumSites())
	}
}

func TestSkewedPlacement(t *testing.T) {
	ids := tableIDs(64)
	p, err := SkewedPlacement(ids, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.SiteID]int)
	for _, id := range ids {
		s, _ := p.SiteOf(id)
		counts[s]++
	}
	// 1/2, 1/4, 1/8 ... : 32, 16, 8, 4, 2, 2 (tail on last site).
	want := []int{32, 16, 8, 4, 2, 2}
	for i, w := range want {
		if counts[core.SiteID(i+1)] != w {
			t.Errorf("site %d holds %d, want %d (all: %v)", i+1, counts[core.SiteID(i+1)], w, counts)
			break
		}
	}
}

func TestSkewedPlacementFewTables(t *testing.T) {
	ids := tableIDs(3)
	p, err := SkewedPlacement(ids, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := p.SiteOf(id); err != nil {
			t.Errorf("table %s unplaced: %v", id, err)
		}
	}
}

func TestPlacementErrors(t *testing.T) {
	if _, err := UniformPlacement(tableIDs(3), 0, 1); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := SkewedPlacement(tableIDs(3), 0, 1); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewPlacement(map[core.TableID]core.SiteID{"a": 0}); err == nil {
		t.Error("placement on local site accepted")
	}
	p, err := NewPlacement(map[core.TableID]core.SiteID{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SiteOf("missing"); err == nil {
		t.Error("unplaced table lookup succeeded")
	}
}

func TestTablesAt(t *testing.T) {
	p, err := NewPlacement(map[core.TableID]core.SiteID{"x": 1, "a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	got := p.TablesAt(1)
	if len(got) != 2 || got[0] != "a" || got[1] != "x" {
		t.Errorf("TablesAt(1) = %v", got)
	}
}

func TestChooseReplicas(t *testing.T) {
	ids := tableIDs(12)
	picked, err := ChooseReplicas(ids, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 5 {
		t.Fatalf("picked %d", len(picked))
	}
	seen := make(map[core.TableID]bool)
	for _, id := range picked {
		if seen[id] {
			t.Errorf("duplicate %s", id)
		}
		seen[id] = true
	}
	again, _ := ChooseReplicas(ids, 5, 7)
	for i := range picked {
		if picked[i] != again[i] {
			t.Error("not deterministic")
		}
	}
	if _, err := ChooseReplicas(ids, 13, 7); err == nil {
		t.Error("oversubscription accepted")
	}
}

func buildTestWorld(t *testing.T) (*Catalog, *Engine, *replication.Manager) {
	t.Helper()
	placement, err := NewPlacement(map[core.TableID]core.SiteID{
		"accounts": 1,
		"trades":   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := replication.NewManager()
	if err := mgr.Register("accounts", replication.Schedule{Times: []core.Time{0, 10, 20}}); err != nil {
		t.Fatal(err)
	}
	catalog, err := NewCatalog(placement, mgr)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(catalog, mgr)
	if err != nil {
		t.Fatal(err)
	}

	accounts := relation.NewTable("accounts", relation.MustSchema(
		relation.Column{Name: "a_id", Type: relation.Int},
		relation.Column{Name: "a_balance", Type: relation.Float},
	))
	accounts.MustInsert(relation.Row{relation.IntVal(1), relation.FloatVal(100)})
	accounts.MustInsert(relation.Row{relation.IntVal(2), relation.FloatVal(250)})
	trades := relation.NewTable("trades", relation.MustSchema(
		relation.Column{Name: "t_account", Type: relation.Int},
		relation.Column{Name: "t_amount", Type: relation.Float},
	))
	trades.MustInsert(relation.Row{relation.IntVal(1), relation.FloatVal(30)})
	trades.MustInsert(relation.Row{relation.IntVal(2), relation.FloatVal(-70)})
	trades.MustInsert(relation.Row{relation.IntVal(1), relation.FloatVal(5)})

	if err := engine.Distribute(map[string]*relation.Table{"accounts": accounts, "trades": trades}); err != nil {
		t.Fatal(err)
	}
	return catalog, engine, mgr
}

func TestCatalogSnapshot(t *testing.T) {
	catalog, _, _ := buildTestWorld(t)
	snap, err := catalog.Snapshot([]core.TableID{"accounts", "trades"}, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if snap[0].Site != 1 || snap[1].Site != 2 {
		t.Errorf("sites = %d, %d", snap[0].Site, snap[1].Site)
	}
	if snap[0].Replica == nil {
		t.Fatal("accounts should have a replica state")
	}
	if snap[0].Replica.LastSync != 10 {
		t.Errorf("LastSync = %v, want 10", snap[0].Replica.LastSync)
	}
	if len(snap[0].Replica.NextSyncs) != 1 || snap[0].Replica.NextSyncs[0] != 20 {
		t.Errorf("NextSyncs = %v", snap[0].Replica.NextSyncs)
	}
	if snap[1].Replica != nil {
		t.Error("trades should not have a replica state")
	}
	if _, err := catalog.Snapshot([]core.TableID{"missing"}, 0, 0); err == nil {
		t.Error("unknown table accepted")
	}
	all, err := catalog.SnapshotAll(12, 0)
	if err != nil || len(all) != 2 {
		t.Errorf("SnapshotAll = %v, %v", all, err)
	}
}

func TestNewCatalogRejectsUnplacedReplica(t *testing.T) {
	placement, _ := NewPlacement(map[core.TableID]core.SiteID{"a": 1})
	mgr := replication.NewManager()
	if err := mgr.Register("ghost", replication.Schedule{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCatalog(placement, mgr); err == nil {
		t.Error("replicated-but-unplaced table accepted")
	}
}

func TestEngineExecutePlanBaseAndReplica(t *testing.T) {
	_, engine, mgr := buildTestWorld(t)
	mgr.Advance(0) // first sync copies accounts into the replica store

	q := core.Query{ID: "q", Tables: []core.TableID{"accounts", "trades"}, BusinessValue: 1}
	sql := `SELECT a.a_id, a.a_balance + sum(tr.t_amount) AS exposure
	        FROM accounts a, trades tr
	        WHERE a.a_id = tr.t_account
	        GROUP BY a.a_id, a.a_balance ORDER BY a.a_id`

	plan := core.Plan{Query: q, Access: []core.TableAccess{
		{Table: "accounts", Site: 1, Kind: core.AccessReplica, Freshness: 0},
		{Table: "trades", Site: 2, Kind: core.AccessBase},
	}}
	out, err := engine.ExecutePlan(sql, plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Rows[0][1].F != 135 || out.Rows[1][1].F != 180 {
		t.Errorf("exposures = %v, %v", out.Rows[0][1], out.Rows[1][1])
	}
}

func TestEngineReplicaIsSnapshotNotLive(t *testing.T) {
	_, engine, mgr := buildTestWorld(t)
	mgr.Advance(0)

	// Mutate the base table after the sync: the replica must not see it.
	site := engine.sites[1]
	base, _ := site.Table("accounts")
	base.MustInsert(relation.Row{relation.IntVal(3), relation.FloatVal(999)})

	replica, err := engine.Replica("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if replica.NumRows() != 2 {
		t.Errorf("replica rows = %d, want 2 (pre-mutation snapshot)", replica.NumRows())
	}

	// After the next sync the replica catches up.
	mgr.Advance(10)
	replica, _ = engine.Replica("accounts")
	if replica.NumRows() != 3 {
		t.Errorf("replica rows = %d, want 3 after sync", replica.NumRows())
	}
}

func TestEngineExecutePlanErrors(t *testing.T) {
	_, engine, _ := buildTestWorld(t)
	q := core.Query{ID: "q", Tables: []core.TableID{"accounts"}, BusinessValue: 1}

	// Replica access before any sync: no snapshot.
	plan := core.Plan{Query: q, Access: []core.TableAccess{
		{Table: "accounts", Site: 1, Kind: core.AccessReplica},
	}}
	if _, err := engine.ExecutePlan("SELECT a_id FROM accounts", plan); err == nil {
		t.Error("replica access without snapshot accepted")
	}

	// Missing access decision.
	if _, err := engine.ExecutePlan("SELECT a_id FROM accounts", core.Plan{Query: q}); err == nil {
		t.Error("plan without access decisions accepted")
	}

	// Unknown site.
	plan = core.Plan{Query: q, Access: []core.TableAccess{
		{Table: "accounts", Site: 9, Kind: core.AccessBase},
	}}
	if _, err := engine.ExecutePlan("SELECT a_id FROM accounts", plan); err == nil {
		t.Error("unknown site accepted")
	}
}

func TestEngineDistributeErrors(t *testing.T) {
	catalog, engine, _ := buildTestWorld(t)
	_ = catalog
	// Unplaced table.
	ghost := relation.NewTable("ghost", relation.MustSchema(relation.Column{Name: "x", Type: relation.Int}))
	if err := engine.Distribute(map[string]*relation.Table{"ghost": ghost}); err == nil {
		t.Error("unplaced table distributed")
	}
	// Duplicate install.
	acc := relation.NewTable("accounts", relation.MustSchema(relation.Column{Name: "x", Type: relation.Int}))
	if err := engine.Distribute(map[string]*relation.Table{"accounts": acc}); err == nil {
		t.Error("duplicate table install accepted")
	}
}

func TestCalibrate(t *testing.T) {
	_, engine, _ := buildTestWorld(t)
	model, err := costmodel.NewCalibratedModel(&costmodel.CountModel{LocalProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{ID: "cal", Tables: []core.TableID{"accounts", "trades"}, BusinessValue: 1}
	sql := `SELECT a.a_id FROM accounts a, trades tr WHERE a.a_id = tr.t_account`
	// One replicated table (accounts) → 2 configurations.
	ms, err := engine.Calibrate(q, sql, model, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d, want 2", len(ms))
	}
	if model.Len() != 2 {
		t.Errorf("model entries = %d, want 2", model.Len())
	}
	// Both configurations include the unreplicated trades as base.
	if _, ok := model.Lookup("cal", []core.TableID{"trades"}); !ok {
		t.Error("all-replica config (trades only base) not recorded")
	}
	if _, ok := model.Lookup("cal", []core.TableID{"trades", "accounts"}); !ok {
		t.Error("all-base config not recorded")
	}
	if _, err := engine.Calibrate(q, sql, model, 0); err == nil {
		t.Error("zero perMinute accepted")
	}
}
