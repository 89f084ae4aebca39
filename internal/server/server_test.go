package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

func accountsTable(t *testing.T) *relation.Table {
	t.Helper()
	tbl := relation.NewTable("accounts", relation.MustSchema(
		relation.Column{Name: "a_id", Type: relation.Int},
		relation.Column{Name: "a_balance", Type: relation.Float},
	))
	tbl.MustInsert(relation.Row{relation.IntVal(1), relation.FloatVal(100)})
	tbl.MustInsert(relation.Row{relation.IntVal(2), relation.FloatVal(250)})
	return tbl
}

func tradesTable(t *testing.T) *relation.Table {
	t.Helper()
	tbl := relation.NewTable("trades", relation.MustSchema(
		relation.Column{Name: "t_account", Type: relation.Int},
		relation.Column{Name: "t_amount", Type: relation.Float},
	))
	tbl.MustInsert(relation.Row{relation.IntVal(1), relation.FloatVal(30)})
	tbl.MustInsert(relation.Row{relation.IntVal(2), relation.FloatVal(-70)})
	return tbl
}

func startRemote(t testing.TB, tables ...*relation.Table) (*RemoteServer, string) {
	t.Helper()
	s := NewRemoteServer()
	for _, tbl := range tables {
		if err := s.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestRemoteServerPingAndTables(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t))
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindPing}, time.Second)
	if err != nil || resp.Err != "" {
		t.Fatalf("ping: %v %v", err, resp)
	}
	resp, err = netproto.Call(addr, &netproto.Request{Kind: netproto.KindTables}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 1 || resp.Tables[0] != "accounts" {
		t.Errorf("tables = %v", resp.Tables)
	}
}

func TestRemoteServerScanIsSnapshot(t *testing.T) {
	tbl := accountsTable(t)
	_, addr := startRemote(t, tbl)
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "ACCOUNTS"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.NumRows() != 2 {
		t.Fatalf("rows = %d", resp.Result.NumRows())
	}
	if _, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "nope"}, time.Second); err == nil {
		t.Error("scan of missing table succeeded")
	}
}

func TestRemoteServerExec(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t), tradesTable(t))
	resp, err := netproto.Call(addr, &netproto.Request{
		Kind: netproto.KindExec,
		SQL:  "SELECT a.a_id, sum(tr.t_amount) AS s FROM accounts a, trades tr WHERE a.a_id = tr.t_account GROUP BY a.a_id ORDER BY a.a_id",
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.NumRows() != 2 || resp.Result.Rows[0][1].F != 30 {
		t.Errorf("result = %v", resp.Result.Rows)
	}
	if _, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindExec, SQL: "garbage"}, time.Second); err == nil {
		t.Error("bad SQL succeeded")
	}
}

// A KindBatch of SELECTs is answered item by item: an item that fails
// carries its own error, and the others still answer.
func TestRemoteServerBatchAnswersItemByItem(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t), tradesTable(t))
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindBatch, Batch: []netproto.BatchQuery{
		{SQL: "SELECT a_id FROM accounts"}, {SQL: "SELECT x FROM nope"}, {SQL: "SELECT t_amount FROM trades WHERE (t_amount > 0)"},
	}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 3 {
		t.Fatalf("%d items, want 3", len(resp.Batch))
	}
	if it := resp.Batch[0]; it.Err != "" || it.Result.NumRows() != 2 {
		t.Errorf("item 0: %q, %v", it.Err, it.Result)
	}
	if it := resp.Batch[1]; it.Err == "" || it.Result != nil {
		t.Errorf("item 1 over a missing table answered %v", it.Result)
	}
	if it := resp.Batch[2]; it.Err != "" || it.Result.NumRows() != 1 || it.Result.Rows[0][0].F != 30 {
		t.Errorf("item 2: %q, %v", it.Err, it.Result)
	}
}

func TestRemoteServerInsert(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t))
	_, err := netproto.Call(addr, &netproto.Request{
		Kind:  netproto.KindInsert,
		Table: "accounts",
		Rows:  []relation.Row{{relation.IntVal(3), relation.FloatVal(5)}},
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "accounts"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.NumRows() != 3 {
		t.Errorf("rows = %d after insert", resp.Result.NumRows())
	}
	// Type-mismatched row is rejected.
	if _, err := netproto.Call(addr, &netproto.Request{
		Kind:  netproto.KindInsert,
		Table: "accounts",
		Rows:  []relation.Row{{relation.StrVal("x"), relation.FloatVal(5)}},
	}, time.Second); err == nil {
		t.Error("bad row accepted")
	}
}

func TestRemoteServerConcurrentClients(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t))
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "accounts"}, time.Second)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteServerPersistentConnection(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t))
	conn, err := netproto.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindPing})
		if err != nil || resp.Err != "" {
			t.Fatalf("round %d: %v %v", i, err, resp)
		}
	}
}

// startDSS wires one remote with accounts+trades, replicating accounts on
// a fast cycle. TimeScale 10 makes one wall second worth 10 experiment
// minutes so discounts are visible in a fast test.
func startDSS(t *testing.T, remoteAddr string) (*DSSServer, string) {
	t.Helper()
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"accounts": 200 * time.Millisecond},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		MaxDelay:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	return dss, addr
}

func TestDSSEndToEnd(t *testing.T) {
	remote, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_ = remote
	dss, dssAddr := startDSS(t, remoteAddr)

	sql := `SELECT a.a_id, a.a_balance + sum(tr.t_amount) AS exposure
	        FROM accounts a, trades tr WHERE a.a_id = tr.t_account
	        GROUP BY a.a_id, a.a_balance ORDER BY a.a_id`
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: sql, BusinessValue: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.NumRows() != 2 {
		t.Fatalf("rows = %d", resp.Result.NumRows())
	}
	if resp.Result.Rows[0][1].F != 130 || resp.Result.Rows[1][1].F != 180 {
		t.Errorf("exposures = %v", resp.Result.Rows)
	}
	if resp.Meta == nil {
		t.Fatal("no report meta")
	}
	if resp.Meta.Value <= 0 || resp.Meta.Value > 1 {
		t.Errorf("IV = %v", resp.Meta.Value)
	}
	if resp.Meta.CLMinutes < 0 || resp.Meta.SLMinutes < 0 {
		t.Errorf("latencies = %+v", resp.Meta)
	}
	if !strings.Contains(resp.Meta.PlanSignature, "accounts=") {
		t.Errorf("plan signature = %q", resp.Meta.PlanSignature)
	}
	// Only the adaptive placement review reads the recent-query window.
	if n := len(dss.recentWindow()); n != 0 {
		t.Errorf("a DSS without adaptive sync kept %d queries for the placement review", n)
	}
}

func TestDSSStatus(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Replicas) != 1 || resp.Replicas[0].Table != "accounts" {
		t.Fatalf("replicas = %v", resp.Replicas)
	}
	if resp.Replicas[0].Site != 1 {
		t.Errorf("site = %d", resp.Replicas[0].Site)
	}
}

func TestDSSSyncPicksUpRemoteWrites(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)

	// Write to the base table at the remote.
	if _, err := netproto.Call(remoteAddr, &netproto.Request{
		Kind:  netproto.KindInsert,
		Table: "accounts",
		Rows:  []relation.Row{{relation.IntVal(3), relation.FloatVal(999)}},
	}, time.Second); err != nil {
		t.Fatal(err)
	}

	// Within a few sync cycles the replica-served count must reach 3.
	// Force a replica-only read by a query that touches only accounts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := netproto.Call(dssAddr, &netproto.Request{
			Kind: netproto.KindExec,
			SQL:  "SELECT count(*) AS n FROM accounts",
		}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Rows[0][0].I == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: count = %d", resp.Result.Rows[0][0].I)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestDSSRejectsUnknownTable(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t))
	_, dssAddr := startDSS(t, remoteAddr)
	if _, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: "SELECT x FROM ghost"}, time.Second); err == nil {
		t.Error("query over unknown table succeeded")
	}
}

func TestDSSOnlineCalibration(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, dssAddr := startDSS(t, remoteAddr)
	sql := "SELECT count(*) AS n FROM trades"
	for i := 0; i < 2; i++ {
		if _, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: sql}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if dss.costs.Len() == 0 {
		t.Error("no calibration entries recorded")
	}
}

func TestNewDSSServerValidation(t *testing.T) {
	if _, err := NewDSSServer(DSSConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	_, remoteAddr := startRemote(t, accountsTable(t))
	if _, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{0: remoteAddr},
		TimeScale: 1,
	}); err == nil {
		t.Error("site 0 accepted")
	}
	if _, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"ghost": time.Second},
		TimeScale: 1,
	}); err == nil {
		t.Error("replication of unserved table accepted")
	}
	if _, err := NewDSSServer(DSSConfig{
		Remotes: map[core.SiteID]string{1: "127.0.0.1:1"},
	}); err == nil {
		t.Error("unreachable remote accepted")
	}
}

func TestDSSDuplicateTableAcrossSites(t *testing.T) {
	_, addr1 := startRemote(t, accountsTable(t))
	_, addr2 := startRemote(t, accountsTable(t))
	if _, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: addr1, 2: addr2},
		TimeScale: 1,
	}); err == nil {
		t.Error("duplicate table across sites accepted")
	}
}

func TestDSSMetrics(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)

	// Two queries, one failing.
	for _, sql := range []string{"SELECT count(*) AS n FROM trades", "SELECT nope FROM trades"} {
		_, _ = netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: sql}, time.Second)
	}
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindMetrics}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m := resp.Metrics
	if m["queries_total"] != 2 {
		t.Errorf("queries_total = %v, want 2", m["queries_total"])
	}
	if m["query_errors_total"] != 1 {
		t.Errorf("query_errors_total = %v, want 1", m["query_errors_total"])
	}
	if m["replica_syncs_total"] < 1 {
		t.Errorf("replica_syncs_total = %v", m["replica_syncs_total"])
	}
	if m["report_value_count"] != 1 {
		t.Errorf("report_value_count = %v, want 1 (only the successful query)", m["report_value_count"])
	}
	if m["report_cl_minutes_p95"] < 0 {
		t.Errorf("report_cl_minutes_p95 = %v", m["report_cl_minutes_p95"])
	}
}

func TestRemoteServerScanDelay(t *testing.T) {
	srv := NewRemoteServer()
	srv.SetScanDelay(60 * time.Millisecond)
	if err := srv.AddTable(accountsTable(t)); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	start := time.Now()
	if _, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "accounts"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("scan returned in %v, delay not applied", elapsed)
	}
	// Ping is not delayed.
	start = time.Now()
	if _, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindPing}, time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("ping took %v, should not be delayed", elapsed)
	}
}

func TestRemoteServerRequestTimeoutCapsScans(t *testing.T) {
	srv := NewRemoteServer()
	srv.SetScanDelay(2 * time.Second)
	srv.SetRequestTimeout(80 * time.Millisecond)
	if err := srv.AddTable(accountsTable(t)); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// The client waits generously, but the server's own cap fires first
	// and the response comes back as a typed expiry.
	start := time.Now()
	_, err = netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "accounts"}, 5*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("capped scan succeeded")
	}
	var remoteErr *netproto.RemoteError
	if !errors.As(err, &remoteErr) || !remoteErr.Expired {
		t.Fatalf("error = %v, want expired RemoteError", err)
	}
	if elapsed > time.Second {
		t.Errorf("capped scan took %v, cap not applied", elapsed)
	}
}

func TestDSSPushdown(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)

	// The trades filter is fully qualified, so it pushes to the remote;
	// the join predicate stays local. Results must match the unpushable
	// formulation exactly.
	pushable := `SELECT a.a_id, sum(tr.t_amount) AS s
	             FROM accounts a, trades tr
	             WHERE a.a_id = tr.t_account AND tr.t_amount > 0
	             GROUP BY a.a_id ORDER BY a.a_id`
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: pushable}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.NumRows() != 1 || resp.Result.Rows[0][0].I != 1 || resp.Result.Rows[0][1].F != 30 {
		t.Fatalf("result = %v", resp.Result.Rows)
	}

	m, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindMetrics}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics["pushdowns_total"] < 1 {
		t.Errorf("pushdowns_total = %v, want ≥ 1", m.Metrics["pushdowns_total"])
	}
}

func TestDSSBatchMQO(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)

	req := &netproto.Request{
		Kind: netproto.KindBatch,
		Batch: []netproto.BatchQuery{
			{SQL: "SELECT count(*) AS n FROM accounts", BusinessValue: .5},
			{SQL: "SELECT sum(t_amount) AS s FROM trades", BusinessValue: 1},
			{SQL: "SELECT a_id FROM accounts ORDER BY a_id", BusinessValue: .8},
		},
	}
	resp, err := netproto.Call(dssAddr, req, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 3 {
		t.Fatalf("batch items = %d", len(resp.Batch))
	}
	for i, item := range resp.Batch {
		if item.Err != "" {
			t.Fatalf("item %d: %s", i, item.Err)
		}
		if item.Result == nil || item.Meta == nil {
			t.Fatalf("item %d incomplete", i)
		}
		if item.Meta.Value <= 0 || item.Meta.Value > 1 {
			t.Errorf("item %d IV = %v", i, item.Meta.Value)
		}
	}
	// Items stay aligned with the request regardless of execution order.
	if resp.Batch[0].Result.Rows[0][0].I != 2 {
		t.Errorf("item 0 = %v", resp.Batch[0].Result.Rows)
	}
	if resp.Batch[1].Result.Rows[0][0].F != -40 {
		t.Errorf("item 1 = %v", resp.Batch[1].Result.Rows)
	}

	m, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindMetrics}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics["batches_total"] != 1 {
		t.Errorf("batches_total = %v", m.Metrics["batches_total"])
	}
}

func TestDSSBatchPartialFailure(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t))
	_, dssAddr := startDSS(t, remoteAddr)
	resp, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindBatch,
		Batch: []netproto.BatchQuery{
			{SQL: "SELECT count(*) AS n FROM accounts"},
			{SQL: "totally not sql"},
			{SQL: "SELECT x FROM ghost"},
		},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batch[0].Err != "" || resp.Batch[0].Result == nil {
		t.Errorf("good member failed: %+v", resp.Batch[0])
	}
	if resp.Batch[1].Err == "" || resp.Batch[2].Err == "" {
		t.Error("bad members did not error individually")
	}
}

func TestDSSBatchEmpty(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t))
	_, dssAddr := startDSS(t, remoteAddr)
	if _, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindBatch}, time.Second); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestDSSCalibrationPersistence(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, dssAddr := startDSS(t, remoteAddr)
	if _, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades",
	}, time.Second); err != nil {
		t.Fatal(err)
	}
	if dss.CalibrationLen() == 0 {
		t.Fatal("no calibration recorded")
	}
	var buf strings.Builder
	if err := dss.SaveCalibration(&buf); err != nil {
		t.Fatal(err)
	}

	dss2, _ := startDSS(t, remoteAddr)
	if err := dss2.LoadCalibration(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if dss2.CalibrationLen() != dss.CalibrationLen() {
		t.Errorf("restored %d entries, want %d", dss2.CalibrationLen(), dss.CalibrationLen())
	}
}

// TestDSSSchemaViolatingRemoteResultFailsOneQuery: a remote whose scan
// result carries a cell of the wrong type costs that one query its IV. The
// error names table, row and column; the site is alive and answered, so
// neither the degraded flag nor the breaker moves; and the client's
// connection serves the next query normally.
func TestDSSSchemaViolatingRemoteResultFailsOneQuery(t *testing.T) {
	confused := accountsTable(t)
	confused.Rows = append(confused.Rows, relation.Row{relation.StrVal("3"), relation.FloatVal(1)}) // not via Insert
	_, remoteAddr := startRemote(t, confused, tradesTable(t))
	dss, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	conn, err := netproto.Dial(dssAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT a_id FROM accounts ORDER BY a_id", BusinessValue: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "accounts: row 2 column a_id wants int, got string"; !strings.Contains(resp.Err, want) {
		t.Fatalf("error %q does not name table, row and column (%q)", resp.Err, want)
	}
	if resp.Degraded || resp.Result != nil {
		t.Errorf("schema violation answered degraded=%v result=%v, want a plain failure", resp.Degraded, resp.Result)
	}
	if st := dss.breakers[1].State(); st != faults.Closed || dss.breakers[1].Failures() != 0 {
		t.Errorf("breaker %v with %d failures: the site answered, it must not be penalized", st, dss.breakers[1].Failures())
	}

	resp, err = conn.RoundTrip(&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: 1})
	if err != nil || resp.Err != "" {
		t.Fatalf("next query on the same connection: %v %q", err, resp.Err)
	}
	if resp.Result.NumRows() != 1 || resp.Result.Rows[0][0].I != 2 || resp.Degraded {
		t.Errorf("next query answered %v degraded=%v", resp.Result.Rows, resp.Degraded)
	}
	m := metricsOf(t, dssAddr)
	if m["query_errors_total"] != 1 || m["degraded_answers_total"] != 0 || m["breaker_transitions_total"] != 0 {
		t.Errorf("query_errors %v degraded_answers %v breaker_transitions %v, want 1 0 0",
			m["query_errors_total"], m["degraded_answers_total"], m["breaker_transitions_total"])
	}
}

func TestDSSDegradesToReplicaWhenSiteDies(t *testing.T) {
	remote, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)

	// Let the replica of accounts materialize, then kill the site.
	time.Sleep(100 * time.Millisecond)
	if err := remote.Close(); err != nil {
		t.Fatal(err)
	}

	// accounts has a replica: the query degrades and still answers.
	resp, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM accounts",
	}, 15*time.Second)
	if err != nil {
		t.Fatalf("query over replicated table failed with site down: %v", err)
	}
	if resp.Result.Rows[0][0].I != 2 {
		t.Errorf("count = %v", resp.Result.Rows[0][0])
	}

	// trades has no replica: if the planner goes to base, the error
	// surfaces; either way the server stays up.
	_, tradeErr := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades",
	}, 15*time.Second)
	if tradeErr == nil {
		t.Error("query over unreplicated table succeeded with site down")
	}

	m, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindMetrics}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics["degraded_reads_total"] < 1 {
		t.Errorf("degraded_reads_total = %v", m.Metrics["degraded_reads_total"])
	}
}
