package server

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// eventsTable is a base table wide enough to show a per-row cost: ints, a
// float, a date and two strings.
func eventsTable(rows int) *relation.Table {
	tbl := relation.NewTable("events", relation.MustSchema(
		relation.Column{Name: "e_id", Type: relation.Int},
		relation.Column{Name: "e_account", Type: relation.Int},
		relation.Column{Name: "e_amount", Type: relation.Float},
		relation.Column{Name: "e_day", Type: relation.Date},
		relation.Column{Name: "e_kind", Type: relation.Str},
		relation.Column{Name: "e_note", Type: relation.Str},
	))
	for i := 0; i < rows; i++ {
		tbl.MustInsert(relation.Row{
			relation.IntVal(int64(i)), relation.IntVal(int64(i % 97)), relation.FloatVal(float64(i%1000) / 8),
			relation.DateVal(int64(9000 + i%365)), relation.StrVal([]string{"debit", "credit"}[i%2]), relation.StrVal(fmt.Sprintf("note %d", i)),
		})
	}
	return tbl
}

// One federated query fetches its table from the remote: pushdown
// execution, encode, decode, then the local VM. The objects that path
// allocates must not scale with the rows fetched — at the parent of this
// change 8,000 rows cost ≈ 4× what 2,000 did (a Row and a string per cell
// on decode, a Row per result row, a clone per scan).
func TestFederatedFetchAllocationsDoNotScaleWithRows(t *testing.T) {
	mallocs := func(rows int) float64 {
		_, remoteAddr := startRemote(t, eventsTable(rows))
		_, dssAddr := startDSSWith(t, DSSConfig{
			Remotes:   map[core.SiteID]string{1: remoteAddr},
			Rates:     core.DiscountRates{CL: .05, SL: .05},
			TimeScale: 10,
		})
		conn, err := netproto.Dial(dssAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		query := func() {
			resp, err := conn.RoundTrip(&netproto.Request{
				Kind: netproto.KindExec, BusinessValue: 1,
				SQL: "SELECT count(*) AS n, sum(e.e_amount) AS total FROM events e WHERE e.e_id >= 0",
			})
			if err != nil || resp.Err != "" || resp.Result.Rows[0][0].I != int64(rows) {
				t.Fatalf("federated query over %d rows: %v %+v", rows, err, resp)
			}
			if !strings.Contains(resp.Meta.PlanSignature, "base") {
				t.Fatalf("plan %q did not fetch from the remote", resp.Meta.PlanSignature)
			}
		}
		for i := 0; i < 3; i++ {
			query() // pools, caches, calibration
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	small, large := mallocs(2000), mallocs(8000)
	t.Logf("process mallocs per federated query: %.0f fetching 2,000 rows, %.0f fetching 8,000", small, large)
	if large > 1.25*small {
		t.Errorf("fetching 4× the rows cost %.2f× the allocations (%.0f vs %.0f): a per-row term is back on the fetch path",
			large/small, large, small)
	}
}

// Scans, snapshots and deltas hand out views of the base table's row
// slice instead of copies; inserts racing with them must neither disturb
// a view already taken nor trip the race detector.
func TestRemoteViewsAreStableUnderInserts(t *testing.T) {
	base := eventsTable(500)
	_, addr := startRemote(t, base)
	pool := netproto.NewPool(time.Second, 5*time.Second)
	defer pool.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 500; i < 2500; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := eventsTable(1).Rows[0]
			row[0] = relation.IntVal(int64(i))
			if _, err := pool.Call(addr, &netproto.Request{Kind: netproto.KindInsert, Table: "events", Rows: []relation.Row{row}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		for _, req := range []*netproto.Request{
			{Kind: netproto.KindScan, Table: "events"},
			{Kind: netproto.KindSnapshot, Table: "events"},
			{Kind: netproto.KindDelta, Table: "events", Cursor: 490},
			{Kind: netproto.KindExec, SQL: "SELECT * FROM events WHERE e_id >= 0"},
		} {
			resp, err := pool.Call(addr, req)
			if err != nil || resp.Err != "" {
				t.Fatalf("kind %d: %v %+v", req.Kind, err, resp)
			}
			rows := resp.DeltaRows
			first := int64(490)
			if resp.Result != nil {
				rows, first = resp.Result.Rows, 0
			}
			if req.Kind == netproto.KindSnapshot || req.Kind == netproto.KindDelta {
				if resp.Version != uint64(first)+uint64(len(rows)) {
					t.Fatalf("kind %d: version %d for %d rows from %d", req.Kind, resp.Version, len(rows), first)
				}
			}
			for j, r := range rows {
				if r[0].I != first+int64(j) {
					t.Fatalf("kind %d: row %d has id %d: the view moved under the reader", req.Kind, j, r[0].I)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A site whose replies arrive corrupted is a site that is down: every
// call fails at the frame checks, is retried, counts against the breaker,
// and the query fails degraded — it is never answered from a table with
// flipped bits. Healing the link heals the site.
func TestDSSCorruptedSiteFailsClosed(t *testing.T) {
	_, siteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	proxy := faults.NewProxy(siteAddr, 1)
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	dss, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:            map[core.SiteID]string{1: proxy.Addr()},
		Rates:              core.DiscountRates{CL: .05, SL: .05},
		TimeScale:          10,
		RetryAttempts:      2,
		RetryBaseDelay:     time.Millisecond,
		BreakerFailures:    2,
		BreakerOpenTimeout: 200 * time.Millisecond,
	})
	exec := func() (*netproto.Response, error) {
		return netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, BusinessValue: 1,
			SQL: "SELECT tr.t_account, tr.t_amount FROM trades tr ORDER BY tr.t_account"}, 5*time.Second)
	}
	if resp, err := exec(); err != nil || resp.Result.NumRows() != 2 {
		t.Fatalf("healthy query: %v", err)
	}

	proxy.SetMode(faults.ModeCorrupt, 0)
	proxy.Sever() // pooled connections predate the fault
	for i := 0; i < 2; i++ {
		resp, err := exec()
		var remote *netproto.RemoteError
		if !errors.As(err, &remote) || !remote.Degraded || resp.Result != nil {
			t.Fatalf("query %d through a corrupting link: err %v resp %+v, want the degraded failure and no table", i, err, resp)
		}
	}
	m := metricsOf(t, dssAddr)
	if m["remote_retries_total"] < 1 || m["remote_call_errors_total"] < 1 || m["breaker_transitions_total"] < 1 {
		t.Errorf("retries %v call errors %v breaker transitions %v, want each counted",
			m["remote_retries_total"], m["remote_call_errors_total"], m["breaker_transitions_total"])
	}
	if st := dss.breakers[1].State(); st == faults.Closed {
		t.Errorf("breaker %v after two corrupted calls with a threshold of 2", st)
	}

	proxy.SetMode(faults.ModePass, 0)
	eventually(t, 10*time.Second, "site answers again once the link is clean", func() bool {
		resp, err := exec()
		return err == nil && resp.Result.NumRows() == 2 && !resp.Meta.Degraded
	})
}
