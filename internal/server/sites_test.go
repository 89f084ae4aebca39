package server

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// Site-request tests: a plan's base reads go out as one request per site;
// a plan that reads only base tables runs at its heaviest site, with the
// other sites' pushdowns attached; a failed site request degrades exactly
// that site's tables.

// tableReads is what reached a site since request from, less discovery
// and probes, which read no table.
func tableReads(r *relay, from int) []*netproto.Request {
	var out []*netproto.Request
	for _, req := range r.requests()[from:] {
		if req.Kind != netproto.KindTables && req.Kind != netproto.KindPing {
			out = append(out, req)
		}
	}
	return out
}

// sameCells fails unless got equals want cell for cell, floats to the bit.
func sameCells(t *testing.T, label string, want, got *relation.Table) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	if !reflect.DeepEqual(want.Schema, got.Schema) || len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %v with %d rows, want %v with %d", label, got.Schema, len(got.Rows), want.Schema, len(want.Rows))
	}
	for i, row := range want.Rows {
		for j, v := range row {
			g := got.Rows[i][j]
			if v.T != g.T || v.I != g.I || v.S != g.S || math.Float64bits(v.F) != math.Float64bits(g.F) {
				t.Fatalf("%s: row %d column %d = %v, want %v", label, i, j, g, v)
			}
		}
	}
}

// A statement over tables that all live on one site is one KindExec
// carrying the statement's own text, and the site's answer is the report.
func TestOneSiteQueryRunsWholeAtItsSite(t *testing.T) {
	_, remoteAddr := startRemote(t, eventsTable(500), accountsTable(t))
	rec := startRelay(t, remoteAddr)
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: rec.addr()},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	query := &netproto.Request{Kind: netproto.KindExec, BusinessValue: 1, SQL: `
		SELECT a.a_id, sum(e.e_amount) AS spent FROM accounts a, events e
		WHERE a.a_id = e.e_account AND e.e_kind = 'debit'
		GROUP BY a.a_id ORDER BY a.a_id`}
	fed, err := netproto.Call(dssAddr, query, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Degraded || !strings.Contains(fed.Meta.PlanSignature, "accounts=base") || !strings.Contains(fed.Meta.PlanSignature, "events=base") {
		t.Fatalf("federated answer %v under plan %q", fed.Result.Rows, fed.Meta.PlanSignature)
	}
	reads := tableReads(rec, 0)
	if len(reads) != 1 || reads[0].Kind != netproto.KindExec || reads[0].SQL != query.SQL {
		t.Fatalf("the site saw %d table reads (first %+v), want one KindExec carrying the statement", len(reads), reads)
	}
	m := metricsOf(t, dssAddr)
	if m["whole_pushdowns_total"] != 1 || m["pushdowns_total"] != 1 {
		t.Errorf("whole_pushdowns_total %v, pushdowns_total %v, want 1 and 1", m["whole_pushdowns_total"], m["pushdowns_total"])
	}
	st, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Metrics["whole_pushdowns_total"] != 1 {
		t.Errorf("status metrics whole_pushdowns_total = %v, want 1", st.Metrics["whole_pushdowns_total"])
	}

	_, replicaAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"events": time.Hour, "accounts": time.Hour},
		Rates:     core.DiscountRates{CL: .05},
		TimeScale: 10,
	})
	var local *netproto.Response
	eventually(t, 10*time.Second, "an all-replica plan", func() bool {
		local, err = netproto.Call(replicaAddr, query, 5*time.Second)
		return err == nil && !strings.Contains(local.Meta.PlanSignature, "base")
	})
	sameCells(t, "whole statement vs all-replica", local.Result, fed.Result)
}

// A table whose read-set cannot be attributed (count(*) names no column)
// ships whole, as a SELECT * inside its site's one request. Fetched from
// the lighter site, that answer then rides attached, every column of it,
// to the statement at the heavier site.
func TestRefusedPushdownShipsTheWholeTable(t *testing.T) {
	_, eventsAddr := startRemote(t, eventsTable(30))
	_, accountsAddr := startRemote(t, accountsTable(t))
	eventsRec, accountsRec := startRelay(t, eventsAddr), startRelay(t, accountsAddr)
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: eventsRec.addr(), 2: accountsRec.addr()},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, BusinessValue: 1,
		SQL: "SELECT count(*) AS n FROM accounts a, events e"}, 5*time.Second)
	if err == nil {
		err = resp.ErrOrNil()
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Result.Rows[0][0].I; got != 60 {
		t.Errorf("count = %d, want 60", got)
	}
	if reads := tableReads(accountsRec, 0); len(reads) != 1 || reads[0].Kind != netproto.KindExec || reads[0].SQL != "SELECT * FROM accounts" {
		t.Errorf("lighter site requests %+v, want one KindExec %q", reads, "SELECT * FROM accounts")
	}
	reads := tableReads(eventsRec, 0)
	if len(reads) != 1 || reads[0].SQL != "SELECT count(*) AS n FROM accounts a, events e" || len(reads[0].Attach) != 1 {
		t.Fatalf("heaviest site requests %+v, want the statement with one attachment", reads)
	}
	if got := reads[0].Attach[0]; got.Name != "accounts" || len(got.Schema.Cols) != 2 || got.NumRows() != 2 {
		t.Errorf("attached %s with %d columns and %d rows, want all of accounts", got.Name, len(got.Schema.Cols), got.NumRows())
	}
}

// templateFederation is the perf placement on loopback at tpch scale 1:
// dimension tables on site 1, fact tables on site 2, a relay in front of
// each, and a DSS with no replicas, so every table read is a site request.
type templateFederation struct {
	tables  map[string]*relation.Table
	siteOf  map[string]int // table → index into relays
	relays  []*relay
	remotes []*RemoteServer // aligned with relays
	dss     *DSSServer
	dssAddr string
}

func startTemplateFederation(tb testing.TB) *templateFederation {
	tb.Helper()
	return startTemplateFederationWith(tb, nil)
}

// startTemplateFederationWith is startTemplateFederation with the DSS
// replicating the given tables.
func startTemplateFederationWith(tb testing.TB, replicate map[core.TableID]time.Duration) *templateFederation {
	tb.Helper()
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	f := &templateFederation{tables: tables, siteOf: make(map[string]int)}
	remotes := make(map[core.SiteID]string)
	for i, names := range [][]string{
		{tpch.Customer, tpch.Orders, tpch.Nation, tpch.Region},
		{tpch.LineItem, tpch.Supplier, tpch.Part, tpch.PartSupp},
	} {
		site := make([]*relation.Table, len(names))
		for j, name := range names {
			site[j] = tables[name]
			f.siteOf[name] = i
		}
		remote, addr := startRemote(tb, site...)
		r := startRelay(tb, addr)
		f.relays = append(f.relays, r)
		f.remotes = append(f.remotes, remote)
		remotes[core.SiteID(i+1)] = r.addr()
	}
	f.dss, f.dssAddr = startDSSWith(tb, DSSConfig{Remotes: remotes, Replicate: replicate, Rates: core.DiscountRates{CL: .5}, TimeScale: 1})
	return f
}

// Every TPC-H template through a no-replica DSS over two sites answers
// what the VM answers over the whole catalog, cell for cell, and reaches
// each site it reads with exactly one request. The statement goes to the
// heaviest site it reads (by row count, ties to the lower site ID; in
// this placement the fact site, site 2, whenever a template reads both),
// carrying the other site's tables attached in plan order; that other
// site gets its pushdowns, one KindExec or one KindBatch item per table.
func TestFederatedTemplatesOneRequestPerSite(t *testing.T) {
	f := startTemplateFederation(t)
	conn, err := netproto.Dial(f.dssAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	attached := 0
	for _, q := range tpch.Queries() {
		want, err := sqlmini.Run(q.SQL, sqlmini.MapCatalog(f.tables))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		from := make([]int, len(f.relays))
		for i, r := range f.relays {
			from[i] = len(r.requests())
		}
		resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindExec, SQL: q.SQL, BusinessValue: 1})
		if err == nil {
			err = resp.ErrOrNil()
		}
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		sameCells(t, q.ID, want, resp.Result)

		stmt, err := sqlmini.Parse(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		perSite, rows := make([]int, len(f.relays)), make([]int, len(f.relays))
		for _, name := range stmt.TableNames() {
			perSite[f.siteOf[name]]++
			rows[f.siteOf[name]] += f.tables[name].NumRows()
		}
		heaviest := -1
		for i, n := range perSite {
			if n > 0 && (heaviest < 0 || rows[i] > rows[heaviest]) {
				heaviest = i
			}
		}
		var lighter []string // the other site's tables, in plan order
		for _, name := range stmt.TableNames() {
			if f.siteOf[name] != heaviest {
				lighter = append(lighter, name)
			}
		}
		if len(lighter) > 0 && heaviest != 1 {
			t.Errorf("%s: site %d holds the most rows, want the fact site", q.ID, heaviest+1)
		}
		attached += len(lighter)
		for i, r := range f.relays {
			reads := tableReads(r, from[i])
			n := perSite[i]
			switch {
			case n == 0:
				if len(reads) != 0 {
					t.Errorf("%s: site %d holds none of its tables but got %d requests", q.ID, i+1, len(reads))
				}
			case len(reads) != 1:
				t.Errorf("%s: site %d got %d requests for %d tables, want one", q.ID, i+1, len(reads), n)
			case i == heaviest:
				var names []string
				for _, a := range reads[0].Attach {
					names = append(names, a.Name)
				}
				if reads[0].Kind != netproto.KindExec || reads[0].SQL != q.SQL || !reflect.DeepEqual(names, lighter) {
					t.Errorf("%s: heaviest site %d got kind %d attaching %v, want the statement attaching %v", q.ID, i+1, reads[0].Kind, names, lighter)
				}
			case reads[0].Attach != nil:
				t.Errorf("%s: lighter site %d got %d attachments", q.ID, i+1, len(reads[0].Attach))
			case n == 1 && (reads[0].Kind != netproto.KindExec || reads[0].SQL == q.SQL):
				t.Errorf("%s: site %d got %+v for its one table, want a pushdown KindExec", q.ID, i+1, reads[0])
			case n > 1 && (reads[0].Kind != netproto.KindBatch || len(reads[0].Batch) != n):
				t.Errorf("%s: site %d got kind %d with %d items for %d tables, want one KindBatch item each", q.ID, i+1, reads[0].Kind, len(reads[0].Batch), n)
			}
		}
	}
	m := metricsOf(t, f.dssAddr)
	if m["pushdowns_total"] != m["remote_calls_total"] {
		t.Errorf("pushdowns_total %v of remote_calls_total %v: every site request carries SQL", m["pushdowns_total"], m["remote_calls_total"])
	}
	if n := float64(len(tpch.Queries())); m["whole_pushdowns_total"] != n || m["attached_tables_total"] != float64(attached) || attached == 0 {
		t.Errorf("whole_pushdowns_total %v, attached_tables_total %v, want %v and %d", m["whole_pushdowns_total"], m["attached_tables_total"], n, attached)
	}
}

// TestDeadSiteDegradesOnlyItsOwnTables black-holes one of two sites. A
// plan's request to it fails once, and that one failure decides every
// table the plan reads there: a replicated table answers from its replica
// (Degraded), an unreplicated one fails the query with
// SiteUnavailableError. When the dead site is the lighter one, its
// replicas ride attached to the statement at the live site, or the query
// fails before the live site is called; when it is the heaviest, the
// statement runs locally over its replicas and the live site's pushdown.
// The dead site never sees a second call for the same plan.
func TestDeadSiteDegradesOnlyItsOwnTables(t *testing.T) {
	accounts, trades, events := accountsTable(t), tradesTable(t), eventsTable(200)
	ledger := eventsTable(300) // events' shape under another name: the dead site's heavy table
	ledger.Name = "ledger"
	_, deadAddr := startRemote(t, accounts, trades, ledger)
	_, liveAddr := startRemote(t, events)
	dead, live := startRelay(t, deadAddr), startRelay(t, liveAddr)
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: dead.addr(), 2: live.addr()},
		Replicate: map[core.TableID]time.Duration{"accounts": time.Hour, "ledger": time.Hour},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		// A hung site fails a call at its round-trip deadline, and one
		// call is one request on the wire; the breaker stays closed so
		// every plan below reaches the dead site.
		DialTimeout:     300 * time.Millisecond,
		RetryAttempts:   1,
		BreakerFailures: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	dead.hole.Store(true)
	// The pool repairs a failure on a reused connection with one redial.
	// Spend the connection the initial sync left idle, so each plan below
	// costs the dead site exactly one request on the wire.
	if _, err := dss.callSite(context.Background(), 1, &netproto.Request{Kind: netproto.KindPing}); err == nil {
		t.Fatal("a black-holed site answered")
	}
	catalog := sqlmini.MapCatalog{"accounts": accounts, "trades": trades, "ledger": ledger, "events": events}

	base := func(table core.TableID, site core.SiteID) core.TableAccess {
		return core.TableAccess{Table: table, Site: site, Kind: core.AccessBase}
	}
	const deadRuns, liveRuns = 1, 2 // where the statement goes
	for _, tc := range []struct {
		name        string
		sql         string
		access      []core.TableAccess
		runsAt      int // deadRuns or liveRuns
		deadKind    netproto.RequestKind
		liveReads   int
		unavailable core.TableID // "" when the query answers degraded
	}{
		{"cross-site, dead table replicated",
			"SELECT a.a_id, sum(e.e_amount) AS spent FROM accounts a, events e WHERE a.a_id = e.e_account GROUP BY a.a_id ORDER BY a.a_id",
			[]core.TableAccess{base("accounts", 1), base("events", 2)}, liveRuns, netproto.KindExec, 1, ""},
		{"cross-site, one dead table unreplicated",
			"SELECT a.a_id, t.t_amount, e.e_id FROM accounts a, trades t, events e WHERE a.a_id = t.t_account AND a.a_id = e.e_account",
			[]core.TableAccess{base("accounts", 1), base("trades", 1), base("events", 2)}, liveRuns, netproto.KindBatch, 0, "trades"},
		{"cross-site, dead heaviest site replicated",
			"SELECT l.e_kind, count(*) AS n, sum(e.e_amount) AS spent FROM ledger l, events e WHERE l.e_id = e.e_id GROUP BY l.e_kind ORDER BY l.e_kind",
			[]core.TableAccess{base("ledger", 1), base("events", 2)}, deadRuns, netproto.KindExec, 1, ""},
		{"cross-site, dead heaviest site, one table unreplicated",
			"SELECT l.e_id, t.t_amount FROM ledger l, trades t, events e WHERE l.e_account = t.t_account AND l.e_id = e.e_id",
			[]core.TableAccess{base("ledger", 1), base("trades", 1), base("events", 2)}, deadRuns, netproto.KindExec, 1, "trades"},
		{"whole at the dead site, replicated",
			"SELECT count(*) AS n FROM accounts",
			[]core.TableAccess{base("accounts", 1)}, deadRuns, netproto.KindExec, 0, ""},
		{"whole at the dead site, one table unreplicated",
			"SELECT a.a_id, t.t_amount FROM accounts a, trades t WHERE a.a_id = t.t_account ORDER BY a.a_id",
			[]core.TableAccess{base("accounts", 1), base("trades", 1)}, deadRuns, netproto.KindExec, 0, "trades"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deadFrom, liveFrom := len(dead.requests()), len(live.requests())
			degradedBefore := dss.stats.Counter("degraded_reads_total").Value()
			plan := core.Plan{Query: core.Query{ID: "q", BusinessValue: 1}, Access: tc.access}
			got, _, degraded, err := dss.executePlan(context.Background(), mustParse(t, tc.sql), tc.sql, plan)

			deadReads, liveReads := tableReads(dead, deadFrom), tableReads(live, liveFrom)
			if len(deadReads) != 1 || deadReads[0].Kind != tc.deadKind {
				t.Fatalf("the dead site saw %d requests (%+v), want one of kind %d", len(deadReads), deadReads, tc.deadKind)
			}
			if len(liveReads) != tc.liveReads {
				t.Fatalf("the live site saw %d requests, want %d", len(liveReads), tc.liveReads)
			}
			shipped := deadReads
			if tc.runsAt == liveRuns {
				shipped = liveReads
			}
			if len(shipped) == 1 && shipped[0].SQL != tc.sql {
				t.Errorf("site %d got %q, want the statement itself", tc.runsAt, shipped[0].SQL)
			}
			if tc.unavailable != "" {
				var ue *core.SiteUnavailableError
				if !errors.As(err, &ue) || ue.Table != tc.unavailable || ue.Site != 1 {
					t.Fatalf("error %v, want SiteUnavailableError for %s at site 1", err, tc.unavailable)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !degraded || dss.stats.Counter("degraded_reads_total").Value() != degradedBefore+1 {
				t.Errorf("degraded %v, degraded reads %d -> %d: want exactly the dead site's one table degraded",
					degraded, degradedBefore, dss.stats.Counter("degraded_reads_total").Value())
			}
			if tc.runsAt == liveRuns && (len(liveReads[0].Attach) != 1 || liveReads[0].Attach[0].NumRows() != accounts.NumRows()) {
				t.Errorf("the live site got %d attachments, want the accounts replica", len(liveReads[0].Attach))
			}
			want, err := sqlmini.Run(tc.sql, catalog)
			if err != nil {
				t.Fatal(err)
			}
			sameCells(t, tc.name, want, got)
		})
	}
}

// The statement runs at the site whose plan tables hold the most rows,
// as discovery counted them; a tie goes to the lower site ID. The other
// site's pushdown rides attached, and the counters say so.
func TestHeaviestSiteByDiscoveredRows(t *testing.T) {
	const sql = "SELECT a.a_id, count(*) AS n FROM accounts a, events e WHERE a.a_id = e.e_account GROUP BY a.a_id ORDER BY a.a_id"
	for _, tc := range []struct {
		events int // rows; accounts has 2
		runsAt int // relay index of the site that gets the statement
	}{{2, 0}, {3, 1}} {
		_, accountsAddr := startRemote(t, accountsTable(t))
		_, eventsAddr := startRemote(t, eventsTable(tc.events))
		recs := []*relay{startRelay(t, accountsAddr), startRelay(t, eventsAddr)}
		_, dssAddr := startDSSWith(t, DSSConfig{
			Remotes:   map[core.SiteID]string{1: recs[0].addr(), 2: recs[1].addr()},
			Rates:     core.DiscountRates{CL: .05, SL: .05},
			TimeScale: 10,
		})
		resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: sql, BusinessValue: 1}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sqlmini.Run(sql, sqlmini.MapCatalog{"accounts": accountsTable(t), "events": eventsTable(tc.events)})
		if err != nil {
			t.Fatal(err)
		}
		sameCells(t, "shipped statement", want, resp.Result)
		for i, r := range recs {
			reads := tableReads(r, 0)
			if len(reads) != 1 {
				t.Fatalf("%d events: site %d saw %d requests, want one", tc.events, i+1, len(reads))
			}
			if ran := reads[0].SQL == sql; ran != (i == tc.runsAt) || ran != (len(reads[0].Attach) == 1) {
				t.Errorf("%d events: site %d got %q with %d attachments; the statement belongs at site %d",
					tc.events, i+1, reads[0].SQL, len(reads[0].Attach), tc.runsAt+1)
			}
		}
		m := metricsOf(t, dssAddr)
		if m["pushdowns_total"] != 2 || m["whole_pushdowns_total"] != 1 || m["attached_tables_total"] != 1 {
			t.Errorf("pushdowns %v, whole %v, attached %v; want 2, 1, 1", m["pushdowns_total"], m["whole_pushdowns_total"], m["attached_tables_total"])
		}
	}
}

// A plan that reads any replica runs at the DSS, where the replica lives:
// its base site gets a pushdown, never the statement or an attachment.
func TestReplicaPlanNeverShips(t *testing.T) {
	accounts, events := accountsTable(t), eventsTable(200)
	_, accountsAddr := startRemote(t, accounts)
	_, eventsAddr := startRemote(t, events)
	accountsRec, eventsRec := startRelay(t, accountsAddr), startRelay(t, eventsAddr)
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: accountsRec.addr(), 2: eventsRec.addr()},
		Replicate: map[core.TableID]time.Duration{"accounts": time.Hour},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	const sql = "SELECT a.a_id, sum(e.e_amount) AS spent FROM accounts a, events e WHERE a.a_id = e.e_account GROUP BY a.a_id ORDER BY a.a_id"
	accountsFrom := len(accountsRec.requests())
	plan := core.Plan{Query: core.Query{ID: "q", BusinessValue: 1}, Access: []core.TableAccess{
		{Table: "accounts", Site: 1, Kind: core.AccessReplica},
		{Table: "events", Site: 2, Kind: core.AccessBase},
	}}
	got, _, degraded, err := dss.executePlan(context.Background(), mustParse(t, sql), sql, plan)
	if err != nil || degraded {
		t.Fatalf("degraded %v, err %v", degraded, err)
	}
	want, err := sqlmini.Run(sql, sqlmini.MapCatalog{"accounts": accounts, "events": events})
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, "replica plan", want, got)
	if reads := tableReads(accountsRec, accountsFrom); len(reads) != 0 {
		t.Errorf("the replicated table's site saw %d requests", len(reads))
	}
	reads := tableReads(eventsRec, 0)
	if len(reads) != 1 || reads[0].SQL == sql || reads[0].Attach != nil {
		t.Fatalf("the base site got %+v, want one pushdown", reads)
	}
	if w, a := dss.stats.Counter("whole_pushdowns_total").Value(), dss.stats.Counter("attached_tables_total").Value(); w != 0 || a != 0 {
		t.Errorf("whole_pushdowns_total %d, attached_tables_total %d, want 0 and 0", w, a)
	}
}

// A remote binds attachments only for a KindExec, never under the name
// of a table it serves or twice under one name, and never a missing one.
// It runs a Batch only for a KindBatch, never dropping one silently.
func TestRemoteRefusesStrayAttachments(t *testing.T) {
	_, addr := startRemote(t, accountsTable(t))
	events := eventsTable(3)
	for _, tc := range []struct {
		req  *netproto.Request
		want string
	}{
		{&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM accounts", Attach: []*relation.Table{tradesTable(t), accountsTable(t)}},
			"attached table 1 is missing or shadows a table already bound here"},
		{&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM events", Attach: []*relation.Table{events, events}},
			"attached table 1 is missing or shadows a table already bound here"},
		{&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM events", Attach: []*relation.Table{nil}},
			"attached table 0 is missing or shadows a table already bound here"},
		// A served table the statement does not read is shadowed all the same.
		{&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM events", Attach: []*relation.Table{events, accountsTable(t)}},
			"attached table 1 is missing or shadows a table already bound here"},
	} {
		resp, err := netproto.Call(addr, tc.req, 5*time.Second)
		if err == nil || resp == nil || resp.Err != tc.want || resp.Result != nil {
			t.Errorf("kind %d: %v, want the remote error %q", tc.req.Kind, err, tc.want)
		}
	}
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM accounts a, events e", Attach: []*relation.Table{events}}, 5*time.Second)
	if err != nil || resp.Result.Rows[0][0].I != 6 {
		t.Errorf("a well-formed attachment: %v, %v", resp, err)
	}
}

// After a shipped statement the remote's execution cache keeps nothing
// for an attachment: not its image, not its join build, not a mark. The
// same run over a plain catalog does cache the attachment, so the check
// can fail.
func TestShippedCallForgetsItsAttachments(t *testing.T) {
	remote, _ := startRemote(t, eventsTable(500))
	const sql = "SELECT a.a_id, count(*) AS n FROM events e, accounts a WHERE e.e_account = a.a_id GROUP BY a.a_id ORDER BY a.a_id"
	accounts := accountsTable(t)
	resp := remote.handle(&netproto.Request{Kind: netproto.KindExec, SQL: sql, Attach: []*relation.Table{accounts}})
	if resp.Err != "" || resp.Result.NumRows() != 2 {
		t.Fatalf("shipped run: %q, %v", resp.Err, resp.Result)
	}
	if remote.execCache.Holds(accounts) {
		t.Error("the remote's cache still holds the attachment after the run")
	}
	cache := sqlmini.NewExecCache()
	if _, err := sqlmini.RunWith(context.Background(), sql, sqlmini.MapCatalog{"events": eventsTable(500), "accounts": accounts}, sqlmini.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if !cache.Holds(accounts) {
		t.Error("a plain run cached nothing for accounts: the check above proves nothing")
	}
}
