package server

import (
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// relay stands between the DSS and one remote site. It decodes and records
// every request on its way to the site, copies the responses back byte for
// byte, and counts the bytes that cross it both ways. With hole set it
// still records each request but forwards none: the site hangs.
type relay struct {
	target string
	l      net.Listener
	bytes  atomic.Int64
	hole   atomic.Bool
	wg     sync.WaitGroup

	mu    sync.Mutex
	reqs  []*netproto.Request
	conns []net.Conn
}

func startRelay(tb testing.TB, target string) *relay {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	r := &relay{target: target, l: l}
	r.wg.Add(1)
	go r.accept()
	tb.Cleanup(func() {
		l.Close()
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		r.wg.Wait()
	})
	return r
}

func (r *relay) addr() string { return r.l.Addr().String() }

func (r *relay) requests() []*netproto.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*netproto.Request(nil), r.reqs...)
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.l.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			defer down.Close()
			_, _ = io.Copy(meteredConn{down, &r.bytes}, up) // ends when either side closes
		}()
		go func() {
			defer r.wg.Done()
			defer up.Close()
			in, out := netproto.NewConn(down), netproto.NewConn(meteredConn{up, &r.bytes})
			for {
				req, err := in.ReadRequest()
				if err != nil {
					return
				}
				r.mu.Lock()
				r.reqs = append(r.reqs, req)
				r.mu.Unlock()
				if r.hole.Load() {
					continue
				}
				if out.WriteRequest(req) != nil {
					return
				}
			}
		}()
	}
}

// meteredConn counts the bytes written through it.
type meteredConn struct {
	net.Conn
	n *atomic.Int64
}

func (c meteredConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// A federated query over two sites runs at the heavier one (events), and
// answers what an all-replica DSS answers. The lighter table crosses the
// wire as a pushdown naming only the columns the query reads from it,
// never a whole-table scan, and rides attached to the statement; the
// heaviest table never crosses the wire at all.
func TestFederatedReadsShipOnlyTheColumnsRead(t *testing.T) {
	_, eventsAddr := startRemote(t, eventsTable(500))
	_, accountsAddr := startRemote(t, accountsTable(t))
	eventsRec, accountsRec := startRelay(t, eventsAddr), startRelay(t, accountsAddr)
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: eventsRec.addr(), 2: accountsRec.addr()},
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
	if fed.Result.NumRows() != 2 || !strings.Contains(fed.Meta.PlanSignature, "events=base") {
		t.Fatalf("federated answer %v under plan %q", fed.Result.Rows, fed.Meta.PlanSignature)
	}

	want := map[string]string{"accounts": "SELECT a_id FROM accounts"}
	got := make(map[string]string)
	var shipped []*netproto.Request
	for _, req := range append(eventsRec.requests(), accountsRec.requests()...) {
		switch {
		case req.Kind == netproto.KindTables || req.Kind == netproto.KindPing:
			continue // discovery and probes read no table
		case req.Kind == netproto.KindExec && req.SQL == query.SQL:
			shipped = append(shipped, req)
		case req.Kind == netproto.KindExec:
			stmt, err := sqlmini.Parse(req.SQL)
			if err != nil {
				t.Fatalf("pushdown %q: %v", req.SQL, err)
			}
			got[stmt.TableNames()[0]] = req.SQL
		default:
			t.Errorf("the DSS sent a kind-%d request for table %q; every base read must be a pushdown", req.Kind, req.Table)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pushdowns %q\nwant      %q", got, want)
	}
	if reads := tableReads(eventsRec, 0); len(shipped) != 1 || len(reads) != 1 || reads[0] != shipped[0] {
		t.Fatalf("the events site got %+v, want only the statement", reads)
	}
	if at := shipped[0].Attach; len(at) != 1 || at[0].Name != "accounts" || len(at[0].Schema.Cols) != 1 || at[0].Schema.Cols[0].Name != "a_id" {
		t.Errorf("the statement carried %+v, want the accounts pushdown's one column", at)
	}

	_, replicaAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: eventsAddr, 2: accountsAddr},
		Replicate: map[core.TableID]time.Duration{"events": time.Hour, "accounts": time.Hour},
		Rates:     core.DiscountRates{CL: .05},
		TimeScale: 10,
	})
	var local *netproto.Response
	eventually(t, 10*time.Second, "an all-replica plan", func() bool {
		local, err = netproto.Call(replicaAddr, query, 5*time.Second)
		return err == nil && !strings.Contains(local.Meta.PlanSignature, "base")
	})
	if !reflect.DeepEqual(fed.Result.Schema, local.Result.Schema) || !reflect.DeepEqual(fed.Result.Rows, local.Result.Rows) {
		t.Errorf("federated answer %v %v, all-replica answer %v %v",
			fed.Result.Schema, fed.Result.Rows, local.Result.Schema, local.Result.Rows)
	}
}

// BenchmarkFederatedTemplates is the fetch path's per-layer number: one op
// is one pass over the 22 TPC-H templates through startTemplateFederation's
// two sites, so every table read is a remote fetch. It reports the bytes
// the remotes' connections carried and the remote calls made per op.
func BenchmarkFederatedTemplates(b *testing.B) {
	f := startTemplateFederation(b)
	conn, err := netproto.Dial(f.dssAddr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	queries := tpch.Queries()
	pass := func() {
		for _, q := range queries {
			resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindExec, SQL: q.SQL, BusinessValue: 1})
			if err == nil {
				err = resp.ErrOrNil()
			}
			if err != nil {
				b.Fatalf("%s: %v", q.ID, err)
			}
		}
	}
	wire := func() (n int64) {
		for _, r := range f.relays {
			n += r.bytes.Load()
		}
		return n
	}
	calls := f.dss.stats.Counter("remote_calls_total")
	pass() // pools, remote caches, calibration
	b.ReportAllocs()
	b.ResetTimer()
	bytesBefore, callsBefore := wire(), calls.Value()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(wire()-bytesBefore)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(calls.Value()-callsBefore)/float64(b.N), "calls/op")
}
