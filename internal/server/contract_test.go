package server

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// Every kind each server serves refuses each body field it does not read,
// naming the kind and the field, and still serves the request that sets
// every field it does read; a kind the server does not serve is refused
// too. What each kind reads is written here apart from netproto's tables,
// so a drift in either fails. A client's attachments on the DSS, for one,
// would be ignored and the answer computed over the sites' data instead.
func TestEveryKindRefusesTheFieldsItDoesNotRead(t *testing.T) {
	remote, remoteAddr := startRemote(t, accountsTable(t))
	dssAddr := freeAddr(t)
	startShard(t, remoteAddr, 0, dssAddr, map[int]string{1: freeAddr(t)}, 0)
	set := map[string]func(*netproto.Request){
		"Table":         func(r *netproto.Request) { r.Table = "accounts" },
		"SQL":           func(r *netproto.Request) { r.SQL = "SELECT a_id FROM accounts" },
		"Attach":        func(r *netproto.Request) { r.Attach = []*relation.Table{eventsTable(3)} },
		"Rows":          func(r *netproto.Request) { r.Rows = []relation.Row{{relation.IntVal(3), relation.FloatVal(5)}} },
		"BusinessValue": func(r *netproto.Request) { r.BusinessValue = .9 },
		"Batch": func(r *netproto.Request) {
			r.Batch = []netproto.BatchQuery{{SQL: "SELECT count(*) AS n FROM accounts"}}
		},
		"Cursor":    func(r *netproto.Request) { r.Cursor = 1 },
		"Tenant":    func(r *netproto.Request) { r.Tenant = "gold" },
		"Forwarded": func(r *netproto.Request) { r.Forwarded = true },
		"Gossip":    func(r *netproto.Request) { r.Gossip = &netproto.GossipDigest{Node: 1, Version: 1} },
	}
	fields := []string{"Table", "SQL", "Attach", "Rows", "BusinessValue", "Batch", "Cursor", "Tenant", "Forwarded", "Gossip"}
	kinds := []string{netproto.KindPing: "KindPing", netproto.KindTables: "KindTables", netproto.KindScan: "KindScan",
		netproto.KindExec: "KindExec", netproto.KindInsert: "KindInsert", netproto.KindStatus: "KindStatus",
		netproto.KindMetrics: "KindMetrics", netproto.KindBatch: "KindBatch", netproto.KindSnapshot: "KindSnapshot",
		netproto.KindDelta: "KindDelta", netproto.KindGossip: "KindGossip"}
	for _, srv := range []struct {
		name, addr string
		reads      map[netproto.RequestKind][]string
	}{
		{"a remote site", remoteAddr, map[netproto.RequestKind][]string{
			netproto.KindPing:     nil,
			netproto.KindTables:   nil,
			netproto.KindScan:     {"Table", "SQL"},
			netproto.KindSnapshot: {"Table", "SQL"},
			netproto.KindDelta:    {"Table", "SQL", "Cursor"},
			netproto.KindExec:     {"SQL", "Attach"},
			netproto.KindBatch:    {"Batch"},
			netproto.KindInsert:   {"Table", "Rows"},
		}},
		{"the DSS", dssAddr, map[netproto.RequestKind][]string{
			netproto.KindPing:    nil,
			netproto.KindStatus:  nil,
			netproto.KindMetrics: nil,
			netproto.KindExec:    {"SQL", "BusinessValue", "Tenant", "Forwarded"},
			netproto.KindBatch:   {"Batch", "Tenant", "Forwarded"},
			netproto.KindGossip:  {"Gossip"},
		}},
	} {
		for kind := netproto.KindPing; kind <= netproto.KindGossip; kind++ {
			reads, served := srv.reads[kind]
			req := func(extra ...string) *netproto.Request {
				r := &netproto.Request{Kind: kind}
				for _, f := range append(reads, extra...) {
					set[f](r)
				}
				return r
			}
			if !served {
				if _, err := netproto.Call(srv.addr, req(), 5*time.Second); err == nil || !strings.Contains(err.Error(), srv.name+" does not serve "+kinds[kind]) {
					t.Errorf("%s, unserved %s: %v, want a refusal", srv.name, kinds[kind], err)
				}
				continue
			}
			for _, f := range fields {
				if slices.Contains(reads, f) {
					continue
				}
				want := kinds[kind] + " to " + srv.name + " does not read " + f
				if _, err := netproto.Call(srv.addr, req(f), 5*time.Second); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with %s: %v, want the refusal %q", kinds[kind], f, err, want)
				}
			}
			if _, err := netproto.Call(srv.addr, req(), 5*time.Second); err != nil {
				t.Errorf("%s, well-formed %s: %v", srv.name, kinds[kind], err)
			}
		}
	}
	// A remote site does not price a batch's members; the DSS does.
	priced := &netproto.Request{Kind: netproto.KindBatch, Batch: []netproto.BatchQuery{{SQL: "SELECT count(*) AS n FROM accounts", BusinessValue: .9}}}
	want := "KindBatch to a remote site does not read Batch.BusinessValue"
	if _, err := netproto.Call(remoteAddr, priced, 5*time.Second); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a remote site, KindBatch with a member's value: %v, want the refusal %q", err, want)
	}
	if _, err := netproto.Call(dssAddr, priced, 5*time.Second); err != nil {
		t.Errorf("the DSS, KindBatch with a member's value: %v", err)
	}
	// Of all the inserts above, only the well-formed one landed.
	if n := len(remote.tables["accounts"].Rows); n != 3 {
		t.Errorf("accounts holds %d rows after one well-formed insert of one row, want 3", n)
	}
}

// A multi-row insert lands whole or not at all: a badly typed third row
// refuses the insert, and no reader or delta pull sees the first two. The
// codec already refuses rows of mixed types, so the rows go to the
// handler directly.
func TestRemoteInsertIsAllOrNothing(t *testing.T) {
	remote, _ := startRemote(t, accountsTable(t))
	rows := []relation.Row{
		{relation.IntVal(3), relation.FloatVal(1)},
		{relation.IntVal(4), relation.FloatVal(2)},
		{relation.IntVal(5), relation.StrVal("bad")},
	}
	want := "relation: table accounts: row 2: column a_balance wants float, got string"
	if resp := remote.handle(&netproto.Request{Kind: netproto.KindInsert, Table: "accounts", Rows: rows}); resp.Err != want {
		t.Fatalf("insert with a badly typed row: %q, want %q", resp.Err, want)
	}
	resp := remote.handle(&netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM accounts"})
	if resp.Err != "" || resp.Result.Rows[0][0].I != 2 {
		t.Errorf("count after the refused insert: %q, %v, want 2", resp.Err, resp.Result)
	}
	resp = remote.handle(&netproto.Request{Kind: netproto.KindDelta, Table: "accounts", Cursor: 2})
	if resp.Err != "" || len(resp.DeltaRows) != 0 || resp.Version != 2 {
		t.Errorf("delta from the old cursor: %q, %d rows at version %d, want none at version 2", resp.Err, len(resp.DeltaRows), resp.Version)
	}
}
