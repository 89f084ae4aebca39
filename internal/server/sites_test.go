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

// Site-request tests: a plan's base reads go out as one request per site,
// all sites at once; a site that holds every table the plan reads answers
// the statement whole; a failed site request degrades exactly that site's
// tables.

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
// ships whole, as a SELECT * inside its site's one request.
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
	for rec, want := range map[*relay]string{eventsRec: "SELECT * FROM events", accountsRec: "SELECT * FROM accounts"} {
		if reads := tableReads(rec, 0); len(reads) != 1 || reads[0].Kind != netproto.KindExec || reads[0].SQL != want {
			t.Errorf("site requests %+v, want one KindExec %q", reads, want)
		}
	}
}

// templateFederation is the perf placement on loopback at tpch scale 1:
// dimension tables on site 1, fact tables on site 2, a relay in front of
// each, and a DSS with no replicas, so every table read is a site request.
type templateFederation struct {
	tables  map[string]*relation.Table
	siteOf  map[string]int // table → index into relays
	relays  []*relay
	dss     *DSSServer
	dssAddr string
}

func startTemplateFederation(tb testing.TB) *templateFederation {
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
		_, addr := startRemote(tb, site...)
		r := startRelay(tb, addr)
		f.relays = append(f.relays, r)
		remotes[core.SiteID(i+1)] = r.addr()
	}
	f.dss, f.dssAddr = startDSSWith(tb, DSSConfig{Remotes: remotes, Rates: core.DiscountRates{CL: .5}, TimeScale: 1})
	return f
}

// Every TPC-H template through a no-replica DSS over two sites answers
// what the VM answers over the whole catalog, cell for cell, and reaches
// each site it reads with exactly one request: the statement itself when
// one site holds all its tables, else that site's pushdowns — one
// KindExec, or one KindBatch item per table.
func TestFederatedTemplatesOneRequestPerSite(t *testing.T) {
	f := startTemplateFederation(t)
	conn, err := netproto.Dial(f.dssAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	whole := 0
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
		perSite := make([]int, len(f.relays))
		sites := 0
		for _, name := range stmt.TableNames() {
			if perSite[f.siteOf[name]]++; perSite[f.siteOf[name]] == 1 {
				sites++
			}
		}
		if sites == 1 {
			whole++
		}
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
			case sites == 1 && (reads[0].Kind != netproto.KindExec || reads[0].SQL != q.SQL):
				t.Errorf("%s: site %d holds every table but got %+v, not the statement", q.ID, i+1, reads[0])
			case sites > 1 && n == 1 && reads[0].Kind != netproto.KindExec:
				t.Errorf("%s: site %d got kind %d for its one table, want KindExec", q.ID, i+1, reads[0].Kind)
			case sites > 1 && n > 1 && (reads[0].Kind != netproto.KindBatch || len(reads[0].Batch) != n):
				t.Errorf("%s: site %d got kind %d with %d items for %d tables, want one KindBatch item each", q.ID, i+1, reads[0].Kind, len(reads[0].Batch), n)
			}
		}
	}
	if m := metricsOf(t, f.dssAddr); m["whole_pushdowns_total"] != float64(whole) || whole == 0 {
		t.Errorf("whole_pushdowns_total %v, want %d", m["whole_pushdowns_total"], whole)
	}
}

// TestDeadSiteDegradesOnlyItsOwnTables black-holes one of two sites. A
// plan's request to it fails once, and that one failure decides every
// table the plan reads there: a replicated table answers from its replica
// (Degraded), an unreplicated one fails the query with
// SiteUnavailableError. The live site's tables are still fetched, and the
// dead site never sees a second call for the same plan.
func TestDeadSiteDegradesOnlyItsOwnTables(t *testing.T) {
	accounts, trades, events := accountsTable(t), tradesTable(t), eventsTable(200)
	_, deadAddr := startRemote(t, accounts, trades)
	_, liveAddr := startRemote(t, events)
	dead, live := startRelay(t, deadAddr), startRelay(t, liveAddr)
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: dead.addr(), 2: live.addr()},
		Replicate: map[core.TableID]time.Duration{"accounts": time.Hour},
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
	catalog := sqlmini.MapCatalog{"accounts": accounts, "trades": trades, "events": events}

	base := func(table core.TableID, site core.SiteID) core.TableAccess {
		return core.TableAccess{Table: table, Site: site, Kind: core.AccessBase}
	}
	for _, tc := range []struct {
		name        string
		sql         string
		access      []core.TableAccess
		deadKind    netproto.RequestKind
		liveReads   int
		unavailable core.TableID // "" when the query answers degraded
	}{
		{"cross-site, dead table replicated",
			"SELECT a.a_id, sum(e.e_amount) AS spent FROM accounts a, events e WHERE a.a_id = e.e_account GROUP BY a.a_id ORDER BY a.a_id",
			[]core.TableAccess{base("accounts", 1), base("events", 2)}, netproto.KindExec, 1, ""},
		{"cross-site, one dead table unreplicated",
			"SELECT a.a_id, t.t_amount, e.e_id FROM accounts a, trades t, events e WHERE a.a_id = t.t_account AND a.a_id = e.e_account",
			[]core.TableAccess{base("accounts", 1), base("trades", 1), base("events", 2)}, netproto.KindBatch, 1, "trades"},
		{"whole at the dead site, replicated",
			"SELECT count(*) AS n FROM accounts",
			[]core.TableAccess{base("accounts", 1)}, netproto.KindExec, 0, ""},
		{"whole at the dead site, one table unreplicated",
			"SELECT a.a_id, t.t_amount FROM accounts a, trades t WHERE a.a_id = t.t_account ORDER BY a.a_id",
			[]core.TableAccess{base("accounts", 1), base("trades", 1)}, netproto.KindExec, 0, "trades"},
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
			if tc.liveReads == 0 && deadReads[0].SQL != tc.sql {
				t.Errorf("the dead site got %q, want the statement itself", deadReads[0].SQL)
			}
			if len(liveReads) != tc.liveReads {
				t.Errorf("the live site saw %d requests, want %d", len(liveReads), tc.liveReads)
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
			want, err := sqlmini.Run(tc.sql, catalog)
			if err != nil {
				t.Fatal(err)
			}
			sameCells(t, tc.name, want, got)
		})
	}
}
