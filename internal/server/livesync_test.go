package server

import (
	"runtime"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// Live replication engine integration: inserts at the remote flow to the
// DSS replica as cursor-based deltas (not repeated full snapshots), the
// status response reports the live cadence, and a dead site defers syncs
// via its circuit breaker without stalling the engine or corrupting
// freshness bookkeeping.

// replicaStatus fetches the status row for one replicated table.
func replicaStatus(t *testing.T, dssAddr, table string) (netproto.ReplicaStatus, bool) {
	t.Helper()
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, 5*time.Second)
	if err != nil {
		return netproto.ReplicaStatus{}, false
	}
	for _, r := range resp.Replicas {
		if r.Table == table {
			return r, true
		}
	}
	return netproto.ReplicaStatus{}, false
}

func dssMetrics(t *testing.T, dssAddr string) map[string]float64 {
	t.Helper()
	resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindMetrics}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Metrics
}

func TestLiveDeltaSyncPropagatesInserts(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, dssAddr := startDSS(t, remoteAddr)

	// Branch OLTP traffic: two new accounts appended at the remote.
	ins := &netproto.Request{Kind: netproto.KindInsert, Table: "accounts", Rows: []relation.Row{
		{relation.IntVal(3), relation.FloatVal(300)},
		{relation.IntVal(4), relation.FloatVal(400)},
	}}
	if _, err := netproto.Call(remoteAddr, ins, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// The replica catches up on a delta cycle: its cursor reaches the new
	// version and the stored copy holds all four rows.
	eventually(t, 10*time.Second, "replica cursor reaches version 4", func() bool {
		st, ok := replicaStatus(t, dssAddr, "accounts")
		return ok && st.Cursor == 4
	})
	dss.mu.RLock()
	replica := dss.replicas["accounts"]
	dss.mu.RUnlock()
	if replica.table == nil || replica.table.NumRows() != 4 {
		t.Fatalf("replica store holds %+v, want the 4-row appended copy", replica.table)
	}

	// The engine moved the appended rows as a delta, not a full resnapshot.
	m := dssMetrics(t, dssAddr)
	if m["delta_syncs_total"] < 1 {
		t.Errorf("delta_syncs_total = %v, want ≥ 1", m["delta_syncs_total"])
	}
	if m["snapshot_syncs_total"] != 1 {
		t.Errorf("snapshot_syncs_total = %v, want exactly the initial pull", m["snapshot_syncs_total"])
	}
	if m["sync_bytes_total"] <= 0 {
		t.Errorf("sync_bytes_total = %v, want > 0", m["sync_bytes_total"])
	}
	if _, ok := m["replica_staleness_seconds_accounts"]; !ok {
		t.Error("replica_staleness_seconds_accounts gauge missing from metrics")
	}

	// Status surfaces the live cadence: cursor at the new version, a
	// positive period, a bounded last-sync age, and a scheduled next sync.
	st, ok := replicaStatus(t, dssAddr, "accounts")
	if !ok {
		t.Fatal("no status row for accounts")
	}
	if st.Cursor != 4 {
		t.Errorf("status cursor = %d, want 4", st.Cursor)
	}
	if st.PeriodMinutes <= 0 {
		t.Errorf("status period = %v, want > 0", st.PeriodMinutes)
	}
	if st.LastSyncAgeMinutes < 0 {
		t.Errorf("status last-sync age = %v, want ≥ 0", st.LastSyncAgeMinutes)
	}
	if st.NextSyncMinutes < 0 {
		t.Errorf("status next sync = %v, want a scheduled cycle", st.NextSyncMinutes)
	}
}

// A dead site's open breaker defers that table's cycles — no retry burns,
// no engine stall: the healthy site's table keeps syncing on cadence, the
// dead table's freshness stamp freezes instead of advancing falsely, and
// the cycle resumes once the site heals.
func TestSyncChaosBreakerDefersWithoutStall(t *testing.T) {
	_, site1Addr := startRemote(t, accountsTable(t))
	proxy := faults.NewProxy(site1Addr, 1)
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	_, site2Addr := startRemote(t, ordersTable(t))

	dss, err := NewDSSServer(DSSConfig{
		Remotes: map[core.SiteID]string{1: proxy.Addr(), 2: site2Addr},
		Replicate: map[core.TableID]time.Duration{
			"accounts": 150 * time.Millisecond,
			"orders":   150 * time.Millisecond,
		},
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

	// Kill site 1. Sync cycles against it fail, trip the breaker, and from
	// then on defer instead of retrying.
	proxy.SetMode(faults.ModeBlackhole, 0)
	proxy.Sever()
	eventually(t, 10*time.Second, "sync deferrals accumulate", func() bool {
		return dssMetrics(t, dssAddr)["sync_deferred_total"] >= 2
	})

	// The dead table's freshness stamp freezes — deferral must never
	// advance it — while the healthy site's table keeps syncing.
	frozen, ok := replicaStatus(t, dssAddr, "accounts")
	if !ok {
		t.Fatal("no status row for accounts")
	}
	healthyBefore, _ := replicaStatus(t, dssAddr, "orders")
	errorsBefore := dssMetrics(t, dssAddr)["sync_errors_total"]
	time.Sleep(600 * time.Millisecond)
	after, _ := replicaStatus(t, dssAddr, "accounts")
	if after.LastSyncMinutes != frozen.LastSyncMinutes {
		t.Errorf("dead table's freshness advanced %v → %v during the outage",
			frozen.LastSyncMinutes, after.LastSyncMinutes)
	}
	// The planner prices the fallback to this replica with the same frozen
	// stamp, not with a scheduled sync that came and went unserved.
	snap, err := dss.catalog.Snapshot([]core.TableID{"accounts"}, dss.now(), dss.cfg.PlannerHorizon)
	if err != nil || snap[0].Replica == nil || snap[0].Replica.LastSync != frozen.LastSyncMinutes {
		t.Errorf("planner's view of accounts during the outage = %+v (%v), the replica store holds the sync at %v",
			snap, err, frozen.LastSyncMinutes)
	}
	healthyAfter, _ := replicaStatus(t, dssAddr, "orders")
	if healthyAfter.LastSyncMinutes <= healthyBefore.LastSyncMinutes {
		t.Errorf("healthy table stalled: last sync %v → %v",
			healthyBefore.LastSyncMinutes, healthyAfter.LastSyncMinutes)
	}
	// Once open, the breaker short-circuits cycles: deferrals, not an
	// unbounded error count.
	if errorsAfter := dssMetrics(t, dssAddr)["sync_errors_total"]; errorsAfter > errorsBefore+2 {
		t.Errorf("sync_errors_total grew %v → %v during open-breaker window; cycles should defer",
			errorsBefore, errorsAfter)
	}

	// Heal. The next cycle doubles as the half-open probe; accounts resumes.
	proxy.SetMode(faults.ModePass, 0)
	eventually(t, 10*time.Second, "dead table resumes syncing", func() bool {
		st, ok := replicaStatus(t, dssAddr, "accounts")
		return ok && st.LastSyncMinutes > frozen.LastSyncMinutes
	})
	// And the replica still answers exactly its contents — freshness
	// bookkeeping and data stayed consistent through the outage.
	resp, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT a.a_id, a.a_balance FROM accounts a ORDER BY a.a_id", BusinessValue: 1,
	}, 5*time.Second)
	if err != nil || resp.Result == nil || resp.Result.NumRows() != 2 {
		t.Fatalf("post-heal query: err=%v resp=%+v", err, resp)
	}
}

// TestClosedServerReleasesItsReplicas opens and closes replicated DSS
// servers in a row. Each Listen arms the sync agent's next cycle an hour
// out; Close must leave nothing on the clock that still reaches the agent
// — and through its applier the server and its replica set — or every
// closed deployment stays on the heap until its timers fire.
func TestClosedServerReleasesItsReplicas(t *testing.T) {
	big := relation.NewTable("accounts", accountsTable(t).Schema)
	for i := 0; i < 40000; i++ { // ≈ 4 MB as a replica
		big.MustInsert(relation.Row{relation.IntVal(int64(i)), relation.FloatVal(float64(i))})
	}
	_, remoteAddr := startRemote(t, big)
	openClose := func() {
		dss, err := NewDSSServer(DSSConfig{
			Remotes:      map[core.SiteID]string{1: remoteAddr},
			Replicate:    map[core.TableID]time.Duration{"accounts": time.Hour},
			Rates:        core.DiscountRates{CL: .05, SL: .05},
			AdaptiveSync: true, // the cadence controller arms a timer too
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dss.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := dss.Close(); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	openClose() // warm up pools, codecs and the remote's clone buffers
	before := liveHeap()
	const rounds = 6
	for i := 0; i < rounds; i++ {
		openClose()
	}
	if grown := int64(liveHeap()) - int64(before); grown > 4<<20 {
		t.Errorf("live heap grew %d KiB over %d closed servers (≈ 4 MiB of replica each): Close left them reachable", grown>>10, rounds)
	}
}
