package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
)

// End-to-end materialized views at the live DSS: a configured view pulls a
// projected snapshot of its base table over the wire, incremental cycles
// ship only delta rows, the status response carries a per-view row, and a
// view plan serves the materialized answer without re-executing SQL.

// exposureSQL is the covered query: per-account trade exposure. The view's
// wire pull ships only the two referenced columns.
const exposureSQL = "SELECT t_account, sum(t_amount) AS exposure FROM trades GROUP BY t_account"

// viewStatusRow fetches the first per-view status row from the DSS.
func viewStatusRow(t *testing.T, dssAddr string) (netproto.ViewStatus, bool) {
	t.Helper()
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, 5*time.Second)
	if err != nil || len(resp.Views) == 0 {
		return netproto.ViewStatus{}, false
	}
	return resp.Views[0], true
}

// exposures collapses a result table into account → exposure, so the
// assertion is independent of row order.
func exposures(t *testing.T, tbl *relation.Table) map[int64]float64 {
	t.Helper()
	if tbl == nil {
		t.Fatal("nil result table")
	}
	out := make(map[int64]float64, tbl.NumRows())
	for _, r := range tbl.Rows {
		out[r[0].I] = r[1].F
	}
	return out
}

func TestDSSViewMaterializesServesAndRefreshes(t *testing.T) {
	_, remoteAddr := startRemote(t, tradesTable(t))
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Views:     []ViewSpec{{SQL: exposureSQL, Period: 150 * time.Millisecond}},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		MaxDelay:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	dssAddr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })

	// The initial cycle materializes the view from a projected snapshot:
	// two base rows folded into two groups, cursor at the base version.
	eventually(t, 10*time.Second, "view materializes from the initial snapshot", func() bool {
		st, ok := viewStatusRow(t, dssAddr)
		return ok && st.Rows == 2 && st.Cursor == 2
	})
	st, _ := viewStatusRow(t, dssAddr)
	if st.QueryID != sqlmini.QueryID(exposureSQL) {
		t.Errorf("status query ID = %q, want %q", st.QueryID, sqlmini.QueryID(exposureSQL))
	}
	if st.Table != "trades" || st.Site != 1 {
		t.Errorf("status names table %q at site %d, want trades at 1", st.Table, st.Site)
	}
	if st.LastSyncMinutes < 0 || st.PeriodMinutes <= 0 {
		t.Errorf("status last sync %v / period %v, want a live cadence", st.LastSyncMinutes, st.PeriodMinutes)
	}
	m := dssMetrics(t, dssAddr)
	if m["views_materialized_total"] < 1 {
		t.Errorf("views_materialized_total = %v, want ≥ 1", m["views_materialized_total"])
	}
	id := core.ViewID("v" + strings.TrimPrefix(sqlmini.QueryID(exposureSQL), "sql"))
	if _, ok := m["view_staleness_seconds_"+string(id)]; !ok {
		t.Errorf("view_staleness_seconds_%s gauge missing from metrics", id)
	}

	// The synchronized view enters the plan space: the catalog snapshot for
	// the base table now carries its ViewState.
	snap, err := dss.catalog.Snapshot([]core.TableID{"trades"}, dss.now(), dss.cfg.PlannerHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || len(snap[0].Views) != 1 || snap[0].Views[0].ID != id {
		t.Fatalf("catalog snapshot views = %+v, want exactly %s", snap, id)
	}

	// The covered query answers correctly over the wire regardless of the
	// plan chosen.
	resp, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: exposureSQL, BusinessValue: 1,
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := exposures(t, resp.Result); got[1] != 30 || got[2] != -70 {
		t.Errorf("exposures = %v, want {1:30 2:-70}", got)
	}

	// Branch OLTP traffic: one more trade for account 1. The next cycle
	// ships it as a one-row projected delta and the folded answer updates.
	ins := &netproto.Request{Kind: netproto.KindInsert, Table: "trades", Rows: []relation.Row{
		{relation.IntVal(1), relation.FloatVal(12)},
	}}
	if _, err := netproto.Call(remoteAddr, ins, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, "view folds the delta row", func() bool {
		st, ok := viewStatusRow(t, dssAddr)
		return ok && st.Cursor == 3
	})
	dss.mu.RLock()
	vs := dss.views[id]
	table, syncedAt := vs.table, vs.syncedAt
	dss.mu.RUnlock()
	if got := exposures(t, table); got[1] != 42 || got[2] != -70 {
		t.Errorf("materialized exposures = %v, want {1:42 2:-70}", got)
	}
	m = dssMetrics(t, dssAddr)
	if m["view_delta_rows_total"] < 1 {
		t.Errorf("view_delta_rows_total = %v, want ≥ 1", m["view_delta_rows_total"])
	}
	if m["view_delta_bytes_total"] <= 0 {
		t.Errorf("view_delta_bytes_total = %v, want > 0", m["view_delta_bytes_total"])
	}

	// A view plan is the whole answer: the executor serves the materialized
	// table and its freshness stamp without touching SQL execution.
	plan := core.Plan{
		Query:  core.Query{ID: sqlmini.QueryID(exposureSQL), Tables: []core.TableID{"trades"}, BusinessValue: 1},
		Access: []core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessView, View: id, Freshness: syncedAt}},
	}
	got, freshness, degraded, err := dss.executePlan(context.Background(), nil, exposureSQL, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != table {
		t.Error("view plan did not serve the installed materialized table")
	}
	if freshness != syncedAt || degraded {
		t.Errorf("view plan freshness = %v degraded = %v, want %v and false", freshness, degraded, syncedAt)
	}
}
