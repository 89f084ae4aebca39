package server

import (
	"errors"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// Chaos integration test for the fault-tolerance stack: a full DSS with two
// remote sites, one of them behind the fault-injecting proxy. The proxied
// site is killed mid-workload (black-holed, established connections cut);
// queries over its replicated table must keep answering from the replica
// with the degradation flagged, queries over its unreplicated table must
// fail with the typed degraded error, the other site must be unaffected,
// and once the proxy heals the breaker must half-open and recover.

func ordersTable(t *testing.T) *relation.Table {
	t.Helper()
	tbl := relation.NewTable("orders", relation.MustSchema(
		relation.Column{Name: "o_id", Type: relation.Int},
		relation.Column{Name: "o_qty", Type: relation.Int},
	))
	tbl.MustInsert(relation.Row{relation.IntVal(1), relation.IntVal(10)})
	tbl.MustInsert(relation.Row{relation.IntVal(2), relation.IntVal(20)})
	return tbl
}

// eventually polls cond until it returns true or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within %v", what, d)
}

func TestDSSChaosKillAndRecoverSite(t *testing.T) {
	// Site 1 (accounts replicated, trades unreplicated) sits behind the
	// fault proxy; site 2 (orders) is reached directly.
	_, site1Addr := startRemote(t, accountsTable(t), tradesTable(t))
	proxy := faults.NewProxy(site1Addr, 1)
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	_, site2Addr := startRemote(t, ordersTable(t))

	dss, err := NewDSSServer(DSSConfig{
		Remotes:            map[core.SiteID]string{1: proxy.Addr(), 2: site2Addr},
		Replicate:          map[core.TableID]time.Duration{"accounts": 150 * time.Millisecond},
		Rates:              core.DiscountRates{CL: .05, SL: .05},
		TimeScale:          10,
		MaxDelay:           200 * time.Millisecond,
		DialTimeout:        200 * time.Millisecond,
		RetryAttempts:      2,
		RetryBaseDelay:     5 * time.Millisecond,
		RetryBudget:        50 * time.Millisecond,
		BreakerFailures:    2,
		BreakerOpenTimeout: 400 * time.Millisecond,
		BreakerProbes:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dssAddr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })

	const (
		accountsSQL = "SELECT a.a_id, a.a_balance FROM accounts a ORDER BY a.a_id"
		tradesSQL   = "SELECT tr.t_account, tr.t_amount FROM trades tr ORDER BY tr.t_account"
		ordersSQL   = "SELECT o.o_id, o.o_qty FROM orders o ORDER BY o.o_id"
	)
	exec := func(sql string) (*netproto.Response, error) {
		return netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: sql, BusinessValue: 1}, 5*time.Second)
	}
	siteBreaker := func(site int) string {
		resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, 5*time.Second)
		if err != nil {
			return "unreachable: " + err.Error()
		}
		for _, st := range resp.Sites {
			if st.Site == site {
				return st.Breaker
			}
		}
		return "missing"
	}

	// Healthy baseline: every table answers, nothing degraded.
	for _, sql := range []string{accountsSQL, tradesSQL, ordersSQL} {
		resp, err := exec(sql)
		if err != nil {
			t.Fatalf("healthy exec %q: %v", sql, err)
		}
		if resp.Meta == nil || resp.Meta.Degraded {
			t.Fatalf("healthy exec %q: meta %+v", sql, resp.Meta)
		}
	}
	if got := siteBreaker(1); got != "closed" {
		t.Fatalf("healthy site 1 breaker = %q", got)
	}

	// Kill site 1: new connections black-hole, established ones are cut.
	proxy.SetMode(faults.ModeBlackhole, 0)
	proxy.Sever()

	// Replicated table: answers from the replica, flagged degraded.
	eventually(t, 10*time.Second, "accounts answers degraded from replica", func() bool {
		resp, err := exec(accountsSQL)
		return err == nil && resp.Meta != nil && resp.Meta.Degraded && resp.Result.NumRows() == 2
	})
	// Unreplicated table: the typed degraded error reaches the client.
	eventually(t, 10*time.Second, "trades fails with typed degraded error", func() bool {
		_, err := exec(tradesSQL)
		var remote *netproto.RemoteError
		return errors.As(err, &remote) && remote.Degraded
	})
	// The breaker trips open.
	eventually(t, 10*time.Second, "site 1 breaker opens", func() bool {
		return siteBreaker(1) == "open"
	})
	// The healthy site is untouched by site 1's outage.
	resp, err := exec(ordersSQL)
	if err != nil || resp.Meta == nil || resp.Meta.Degraded {
		t.Fatalf("orders during outage: err=%v meta=%+v", err, resp.Meta)
	}
	if got := siteBreaker(2); got != "closed" {
		t.Errorf("site 2 breaker = %q during site 1 outage", got)
	}

	// The outage is visible in the metrics the ISSUE promises.
	mresp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindMetrics}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"remote_retries_total", "degraded_answers_total", "breaker_transitions_total"} {
		if mresp.Metrics[name] <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, mresp.Metrics[name])
		}
	}
	if _, ok := mresp.Metrics["breaker_state_site_1"]; !ok {
		t.Error("metric breaker_state_site_1 missing")
	}

	// Heal the proxy: replica pulls double as half-open probes, so the
	// breaker recovers without any client traffic forcing it.
	proxy.SetMode(faults.ModePass, 0)
	eventually(t, 10*time.Second, "site 1 breaker closes again", func() bool {
		return siteBreaker(1) == "closed"
	})
	eventually(t, 10*time.Second, "trades answers again after recovery", func() bool {
		resp, err := exec(tradesSQL)
		return err == nil && resp.Meta != nil && !resp.Meta.Degraded && resp.Result.NumRows() == 2
	})
	eventually(t, 10*time.Second, "accounts answers non-degraded after recovery", func() bool {
		resp, err := exec(accountsSQL)
		return err == nil && resp.Meta != nil && !resp.Meta.Degraded
	})
}
