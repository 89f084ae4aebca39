package server

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/sqlmini"
)

// Admission-control tests: the bounded queue + worker pool in front of
// Exec/Batch, value-horizon shedding on arrival, at pickup, and
// mid-execution, and the metrics that make each decision visible.

// startDSSWith starts a DSS with the caller's config (Remotes filled in)
// and returns it with its bound address.
func startDSSWith(t testing.TB, cfg DSSConfig) (*DSSServer, string) {
	t.Helper()
	dss, err := NewDSSServer(cfg)
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

func metricsOf(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindMetrics}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Metrics
}

// TestDSSAdmissionMetricsPresentAtZero: a -metrics dump on a fresh server
// already lists the shedding counters and queue gauge, so operators can
// tell "no shedding" apart from "not instrumented".
func TestDSSAdmissionMetricsPresentAtZero(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)
	m := metricsOf(t, dssAddr)
	for _, name := range []string{
		"queries_shed_total",
		"queries_cancelled_total",
		"queries_deadline_exceeded_total",
		"admission_queue_depth",
	} {
		v, ok := m[name]
		if !ok {
			t.Errorf("metric %s missing from fresh server", name)
		}
		if v != 0 {
			t.Errorf("metric %s = %v on fresh server, want 0", name, v)
		}
	}
}

// TestDSSShedsWorthlessQueryOnArrival: a query whose business value is
// already at or below epsilon has a zero horizon — it is refused before
// any planning or remote I/O, with the typed expiry visible to the client.
func TestDSSShedsWorthlessQueryOnArrival(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr) // default Epsilon .01

	start := time.Now()
	_, err := netproto.Call(dssAddr, &netproto.Request{
		Kind:          netproto.KindExec,
		SQL:           "SELECT count(*) AS n FROM trades",
		BusinessValue: .01, // == epsilon: worthless on arrival
	}, 5*time.Second)
	if err == nil {
		t.Fatal("worthless query succeeded")
	}
	var remote *netproto.RemoteError
	if !errors.As(err, &remote) || !remote.Expired {
		t.Fatalf("error %v, want expired RemoteError", err)
	}
	if !strings.Contains(err.Error(), "projected-completion") {
		t.Errorf("error %q does not name the shed reason", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shed took %v, should be immediate", elapsed)
	}
	if m := metricsOf(t, dssAddr); m["queries_shed_total"] < 1 {
		t.Errorf("queries_shed_total = %v, want ≥ 1", m["queries_shed_total"])
	}
}

// Two different batches shed on arrival name different queries: each is
// named by its first member and its size, not by the empty text a batch
// request carries in SQL.
func TestDSSShedBatchesNameTheirMembers(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr) // default Epsilon .01
	named := regexp.MustCompile(`query (\S+) exceeds`)
	var names []string
	for _, first := range []string{"SELECT count(*) AS n FROM trades", "SELECT count(*) AS n FROM accounts"} {
		_, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindBatch, Batch: []netproto.BatchQuery{
			{SQL: first, BusinessValue: .01}, {SQL: "SELECT 1", BusinessValue: .01}, // worthless on arrival
		}}, 5*time.Second)
		var remote *netproto.RemoteError
		if !errors.As(err, &remote) || !remote.Expired {
			t.Fatalf("batch led by %q: %v, want an expired RemoteError", first, err)
		}
		m := named.FindStringSubmatch(err.Error())
		if want := "batch-of-2-from-" + sqlmini.QueryID(first); m == nil || m[1] != want {
			t.Fatalf("batch led by %q: error %q, want it to name the query %s", first, err, want)
		}
		names = append(names, m[1])
	}
	if names[0] == names[1] {
		t.Errorf("two different batches were both shed as %q", names[0])
	}
}

// TestDSSQueueFullShedsEvenWithValueSheddingDisabled: a negative Epsilon
// turns value-based shedding off, but the admission queue stays bounded —
// arrivals beyond Workers+QueueDepth are refused, not buffered forever.
func TestDSSQueueFullShedsEvenWithValueSheddingDisabled(t *testing.T) {
	remote, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	remote.SetScanDelay(400 * time.Millisecond) // keep workers busy
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:    map[core.SiteID]string{1: remoteAddr},
		Rates:      core.DiscountRates{CL: .05, SL: .05},
		TimeScale:  10,
		Workers:    1,
		QueueDepth: 1,
		Epsilon:    -1, // value shedding off; the queue bound still holds
	})

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// trades is unreplicated, so every execution pays the remote
			// scan delay and occupies its worker for ~400ms.
			_, err := netproto.Call(dssAddr, &netproto.Request{
				Kind: netproto.KindExec,
				SQL:  "SELECT count(*) AS n FROM trades",
			}, 10*time.Second)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)

	completed, queueFull := 0, 0
	for err := range errs {
		if err == nil {
			completed++
			continue
		}
		var remote *netproto.RemoteError
		if errors.As(err, &remote) && remote.Expired && strings.Contains(err.Error(), "queue-full") {
			queueFull++
			continue
		}
		t.Errorf("unexpected error: %v", err)
	}
	// Capacity is 1 running + 1 queued; of 6 simultaneous arrivals at
	// least 4 overflow (completions can admit a later retry-free arrival,
	// but the burst outnumbers every slot that can free in time).
	if completed == 0 {
		t.Error("no query completed")
	}
	if queueFull == 0 {
		t.Error("no query was shed queue-full")
	}
	if m := metricsOf(t, dssAddr); m["queries_shed_total"] != float64(queueFull) {
		t.Errorf("queries_shed_total = %v, want %d", m["queries_shed_total"], queueFull)
	}
}

// TestDSSShedsOnProjectedCompletion: once the service-time EWMA knows
// queries take longer than a new arrival's value horizon, the arrival is
// shed up front instead of being executed into worthlessness.
func TestDSSShedsOnProjectedCompletion(t *testing.T) {
	remote, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	remote.SetScanDelay(600 * time.Millisecond)
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		Workers:   1,
		Epsilon:   .5,
	})

	// Warm the EWMA: one full-value query completes in ~600ms (horizon
	// ln(.5)/ln(.95) ≈ 13.5 experiment minutes ≈ 1.35 s wall at scale 10).
	if _, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: 1,
	}, 10*time.Second); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}

	// A low-value arrival: horizon ln(.5/.6)/ln(.95) ≈ 3.6 experiment
	// minutes ≈ .36 s wall — under the learned ~.6 s service time.
	start := time.Now()
	_, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: .6,
	}, 10*time.Second)
	if err == nil {
		t.Fatal("doomed query was admitted and completed")
	}
	var remoteErr *netproto.RemoteError
	if !errors.As(err, &remoteErr) || !remoteErr.Expired {
		t.Fatalf("error %v, want expired RemoteError", err)
	}
	if !strings.Contains(err.Error(), "projected-completion") {
		t.Errorf("error %q, want projected-completion shed", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("projected-completion shed took %v, should not wait", elapsed)
	}
}

// TestDSSShedsExpiredQueuedQuery: a query admitted behind a slow
// predecessor whose horizon passes while it waits is shed at worker
// pickup, recorded as a shed (not a mid-execution cancellation).
func TestDSSShedsExpiredQueuedQuery(t *testing.T) {
	remote, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	remote.SetScanDelay(700 * time.Millisecond)
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		Workers:   1,
		Epsilon:   .5,
	})

	// A (bv 1, horizon ≈ 1.35 s wall) occupies the single worker ~700ms.
	slowDone := make(chan error, 1)
	go func() {
		_, err := netproto.Call(dssAddr, &netproto.Request{
			Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: 1,
		}, 10*time.Second)
		slowDone <- err
	}()
	time.Sleep(150 * time.Millisecond) // let A reach the worker

	// B (bv .6, horizon ≈ .36 s wall) queues behind A and expires there.
	_, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: .6,
	}, 10*time.Second)
	if err == nil {
		t.Fatal("queued query whose horizon passed still completed")
	}
	var remoteErr *netproto.RemoteError
	if !errors.As(err, &remoteErr) || !remoteErr.Expired {
		t.Fatalf("error %v, want expired RemoteError", err)
	}
	if !strings.Contains(err.Error(), "expired-queued") {
		t.Errorf("error %q, want expired-queued shed", err)
	}
	if aErr := <-slowDone; aErr != nil {
		t.Errorf("the slow but valuable predecessor failed: %v", aErr)
	}
	m := metricsOf(t, dssAddr)
	if m["queries_shed_total"] < 1 {
		t.Errorf("queries_shed_total = %v, want ≥ 1", m["queries_shed_total"])
	}
}

// TestDSSChaosShortHorizonAgainstBlackholedSite is the headline chaos
// scenario: a remote site black-holes (connects but never answers) and a
// short-horizon query over its unreplicated table must come back with the
// typed value expiry within ~2× the horizon — instead of hanging for the
// full dial timeout and retry budget — with the shedding counters visible
// over the metrics endpoint.
func TestDSSChaosShortHorizonAgainstBlackholedSite(t *testing.T) {
	_, siteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	proxy := faults.NewProxy(siteAddr, 1)
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	dss, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:     map[core.SiteID]string{1: proxy.Addr()},
		Rates:       core.DiscountRates{CL: .05, SL: .05},
		TimeScale:   10,
		DialTimeout: 5 * time.Second, // far beyond the horizon: the horizon must win
		Epsilon:     .5,
	})

	// Kill the site: new connections black-hole, established ones are cut.
	proxy.SetMode(faults.ModeBlackhole, 0)
	proxy.Sever()

	// bv 1, ε .5: horizon = ln(.5)/ln(.95) ≈ 13.5 experiment minutes,
	// ≈ 1.35 s wall at TimeScale 10.
	q := core.Query{BusinessValue: 1}
	horizonWall := dss.wallDelay(q.ValueHorizon(dss.cfg.Rates, dss.cfg.Epsilon))

	start := time.Now()
	_, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: 1,
	}, 30*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against black-holed site succeeded")
	}
	var remoteErr *netproto.RemoteError
	if !errors.As(err, &remoteErr) || !remoteErr.Expired {
		t.Fatalf("error %v, want expired RemoteError carrying the value expiry", err)
	}
	if !strings.Contains(err.Error(), "value expired") {
		t.Errorf("error %q does not carry the typed value expiry", err)
	}
	if elapsed < horizonWall/2 {
		t.Errorf("returned in %v, before the %v horizon could fire", elapsed, horizonWall)
	}
	if elapsed > 2*horizonWall {
		t.Errorf("returned in %v, more than 2× the %v horizon", elapsed, horizonWall)
	}

	// The cancellation is visible in the metrics the ISSUE promises, and a
	// worthless follow-up arrival ticks the shed counter too.
	_, _ = netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades", BusinessValue: .4,
	}, 5*time.Second)
	m := metricsOf(t, dssAddr)
	if m["queries_cancelled_total"] < 1 {
		t.Errorf("queries_cancelled_total = %v, want ≥ 1", m["queries_cancelled_total"])
	}
	if m["queries_shed_total"] < 1 {
		t.Errorf("queries_shed_total = %v, want ≥ 1", m["queries_shed_total"])
	}
}

// TestDSSWireDeadlineCountsAsDeadlineExceeded: a client that stamps a wire
// budget and stops waiting is recorded as a deadline expiry, distinct from
// value-based cancellation.
func TestDSSWireDeadlineCountsAsDeadlineExceeded(t *testing.T) {
	_, siteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	proxy := faults.NewProxy(siteAddr, 1)
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:     map[core.SiteID]string{1: proxy.Addr()},
		Rates:       core.DiscountRates{CL: .05, SL: .05},
		TimeScale:   10,
		DialTimeout: 5 * time.Second,
		Epsilon:     -1, // no value shedding: only the wire budget bounds the call
	})
	proxy.SetMode(faults.ModeBlackhole, 0)
	proxy.Sever()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := netproto.CallContext(ctx, dssAddr, &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM trades",
	}, 10*time.Second)
	// Either the client's own context fires first, or the server notices
	// the budget expiry and its expired response wins the race back.
	var remoteErr *netproto.RemoteError
	if !errors.Is(err, context.DeadlineExceeded) && !(errors.As(err, &remoteErr) && remoteErr.Expired) {
		t.Fatalf("client error %v, want DeadlineExceeded or expired RemoteError", err)
	}
	// The server noticed the budget expiry on its side too.
	eventually(t, 5*time.Second, "queries_deadline_exceeded_total ticks", func() bool {
		return metricsOf(t, dssAddr)["queries_deadline_exceeded_total"] >= 1
	})
}

// TestDSSConcurrentBatchesThroughWorkerPool drives several batches and ad
// hoc queries through the admission queue at once; everything must answer
// correctly. Run under -race this exercises the worker pool, the EWMA, and
// the shared metrics registry for data races.
func TestDSSConcurrentBatchesThroughWorkerPool(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"accounts": 200 * time.Millisecond},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		Workers:   4,
	})

	batch := &netproto.Request{
		Kind: netproto.KindBatch,
		Batch: []netproto.BatchQuery{
			{SQL: "SELECT count(*) AS n FROM accounts", BusinessValue: 1},
			{SQL: "SELECT sum(t_amount) AS s FROM trades", BusinessValue: 1},
		},
	}
	exec := &netproto.Request{
		Kind: netproto.KindExec, SQL: "SELECT a_id FROM accounts ORDER BY a_id", BusinessValue: 1,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, err := netproto.Call(dssAddr, batch, 30*time.Second)
			if err == nil {
				for _, item := range resp.Batch {
					if item.Err != "" {
						err = errors.New(item.Err)
						break
					}
				}
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := netproto.Call(dssAddr, exec, 30*time.Second)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent request failed: %v", err)
		}
	}
	m := metricsOf(t, dssAddr)
	if m["batches_total"] != 4 {
		t.Errorf("batches_total = %v, want 4", m["batches_total"])
	}
}
