package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/scheduler"
	"ivdss/internal/sqlmini"
)

// Live-scheduling tests: the DSS driving the shared engine — aging at
// dispatch, micro-batch MQO on the ad hoc stream, and the degraded-MQO
// fallback flag on the wire.

// The starvation scenario: a one-slot DSS whose remote holds every query
// for 150 ms (1.5 experiment minutes at TimeScale 10). A blocker takes the
// slot at 0; a cheap query (value .2) queues 100 ms later, and a convoy of
// five full-value queries 30 ms after that.
const (
	starvationBlocker = "SELECT count(*) AS n FROM trades"
	starvationCheap   = "SELECT sum(t_amount) AS s FROM trades"
	starvationService = 150 * time.Millisecond
)

var starvationArrivals = []struct {
	sql string
	bv  float64
	at  time.Duration
}{
	{starvationBlocker, 1, 0},
	{starvationCheap, .2, 100 * time.Millisecond},
	{starvationBlocker, 1, 130 * time.Millisecond},
	{starvationBlocker, 1, 130 * time.Millisecond},
	{starvationBlocker, 1, 130 * time.Millisecond},
	{starvationBlocker, 1, 130 * time.Millisecond},
	{starvationBlocker, 1, 130 * time.Millisecond},
}

func startStarvationDSS(t *testing.T, aging core.Aging) (*DSSServer, string) {
	t.Helper()
	remote, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	remote.SetScanDelay(starvationService)
	return startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		Workers:   1,
		Epsilon:   -1, // no shedding: starvation must be visible, not masked
		Aging:     aging,
	})
}

// serviceExecutor stands in for the remote on a hand-stepped clock: every
// dispatch holds its slot for one service time and is then calibrated,
// as runOne records a measured cost.
type serviceExecutor struct {
	clock   *scheduler.ManualClock
	dss     *DSSServer
	service core.Duration
}

func (x serviceExecutor) Execute(d scheduler.Dispatch, done func(core.Outcome)) {
	x.clock.AfterFunc(x.service, func() {
		x.dss.costs.RecordAccess(d.Query.ID, d.Plan.Access, core.CostEstimate{Process: x.service})
		done(core.Outcome{Query: d.Query, Plan: d.Plan})
	})
}

// starvationPosition replays the starvation scenario on the DSS's own
// planner, cost model and engine configuration, driven by a ManualClock,
// and returns the cheap query's completion position among all seven
// (1 = finished first).
func starvationPosition(t *testing.T, aging core.Aging) int {
	t.Helper()
	dss, _ := startStarvationDSS(t, aging)
	planner, err := core.NewPlanner(dss.costs, core.PlannerConfig{Rates: dss.cfg.Rates, Horizon: dss.cfg.PlannerHorizon})
	if err != nil {
		t.Fatal(err)
	}
	minutes := func(d time.Duration) core.Duration { return core.Duration(d.Seconds() * dss.cfg.TimeScale) }
	clock := &scheduler.ManualClock{}
	eng, err := scheduler.NewEngine(scheduler.EngineConfig{
		Clock:           clock,
		Executor:        serviceExecutor{clock: clock, dss: dss, service: minutes(starvationService)},
		Strategy:        &scheduler.IVQPStrategy{Planner: planner, Catalog: dss.catalog, Horizon: dss.cfg.PlannerHorizon},
		Rates:           dss.cfg.Rates,
		Slots:           dss.cfg.Workers,
		Aging:           dss.cfg.Aging,
		HaltOnPlanError: true,
		RecordOutcomes:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetEpsilon(dss.cfg.Epsilon)
	for _, a := range starvationArrivals {
		q, err := dss.plannerQuery(mustParse(t, a.sql), a.bv, minutes(a.at))
		if err != nil {
			t.Fatal(err)
		}
		clock.AfterFunc(minutes(a.at), func() { eng.Submit(q, nil) })
	}
	clock.Run()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	outcomes := eng.Outcomes()
	if len(outcomes) != len(starvationArrivals) {
		t.Fatalf("%d completions, want %d", len(outcomes), len(starvationArrivals))
	}
	for i, o := range outcomes {
		if o.Query.ID == sqlmini.QueryID(starvationCheap) {
			return i + 1
		}
	}
	t.Fatal("the cheap query never completed")
	return 0
}

// TestDSSAgingPreventsStarvation: under pure value-maximizing dispatch
// a cheap query starves behind a convoy of full-value queries; with the
// Section 3.3 aging boost its accumulated wait wins it a slot within a
// bounded number of dispatches. The DSS's planner and engine decide the
// order on a ManualClock, so wall-clock jitter cannot reorder a dispatch.
func TestDSSAgingPreventsStarvation(t *testing.T) {
	if pos := starvationPosition(t, core.Aging{}); pos != 7 {
		t.Errorf("aging off: cheap query finished %d of 7, want dead last (starved)", pos)
	}
	pos := starvationPosition(t, core.Aging{Coefficient: 1, Exponent: 1.5})
	if pos > 3 {
		t.Errorf("aging on: cheap query finished %d of 7, want within the first 3", pos)
	}
}

// TestDSSAgingPreventsStarvationLive runs the starvation scenario over the
// wire on an aging DSS: all seven queries queue behind one slot, and every
// report comes back answered, undegraded, unexpired and carrying its plan.
// The order they finish in is TestDSSAgingPreventsStarvation's to pin.
func TestDSSAgingPreventsStarvationLive(t *testing.T) {
	_, dssAddr := startStarvationDSS(t, core.Aging{Coefficient: 1, Exponent: 1.5})
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range starvationArrivals {
		time.Sleep(time.Until(start.Add(a.at)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: a.sql, BusinessValue: a.bv}, 30*time.Second)
			if err == nil {
				err = resp.ErrOrNil()
			}
			switch {
			case err != nil:
				t.Errorf("%q (value %v): %v", a.sql, a.bv, err)
			case resp.Degraded || resp.MQOFallback || resp.Meta == nil || resp.Result.NumRows() != 1:
				t.Errorf("%q: degraded %v, MQO fallback %v, meta %+v, %d rows", a.sql, resp.Degraded, resp.MQOFallback, resp.Meta, resp.Result.NumRows())
			case resp.Meta.PlanSignature == "" || resp.Meta.Value <= 0 || resp.Meta.Value >= a.bv:
				t.Errorf("%q: plan %q value %v, want a discounted value in (0, %v)", a.sql, resp.Meta.PlanSignature, resp.Meta.Value, a.bv)
			}
		}()
	}
	wg.Wait()
}

// TestDSSBatchMQOFallbackOnWire: a GA configuration that cannot run (elite
// exceeding the population) degrades batch scheduling to submission order;
// the reports still arrive, the response carries the MQOFallback flag, and
// mqo_fallback_total ticks.
func TestDSSBatchMQOFallbackOnWire(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		GA:        scheduler.GAConfig{Population: 2, Elite: 3, Seed: 1},
	})

	resp, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindBatch,
		Batch: []netproto.BatchQuery{
			{SQL: "SELECT count(*) AS n FROM accounts", BusinessValue: 1},
			{SQL: "SELECT sum(t_amount) AS s FROM trades", BusinessValue: 1},
			{SQL: "SELECT count(*) AS n FROM trades", BusinessValue: .8},
		},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.MQOFallback {
		t.Error("response does not flag the MQO fallback")
	}
	for i, item := range resp.Batch {
		if item.Err != "" {
			t.Errorf("member %d failed under fallback: %s", i, item.Err)
		}
		if item.Result == nil {
			t.Errorf("member %d has no result", i)
		}
	}
	m := metricsOf(t, dssAddr)
	if m["mqo_fallback_total"] < 1 {
		t.Errorf("mqo_fallback_total = %v, want ≥ 1", m["mqo_fallback_total"])
	}
}

// TestDSSBatchMQOCleanRunNotFlagged: a healthy batch must not carry the
// degraded-scheduling flag.
func TestDSSBatchMQOCleanRunNotFlagged(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSS(t, remoteAddr)
	resp, err := netproto.Call(dssAddr, &netproto.Request{
		Kind: netproto.KindBatch,
		Batch: []netproto.BatchQuery{
			{SQL: "SELECT count(*) AS n FROM accounts", BusinessValue: 1},
			{SQL: "SELECT count(*) AS n FROM trades", BusinessValue: 1},
		},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.MQOFallback {
		t.Error("healthy batch flagged as MQO fallback")
	}
}

// TestDSSMicroBatchWindowFormsWorkloads: with MQOWindow set, concurrent ad
// hoc arrivals are held briefly, formed into a workload, GA-ordered, and
// all answered — continuous MQO on the live stream, visible in the
// scheduler metrics and in the KindStatus response.
func TestDSSMicroBatchWindowFormsWorkloads(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	_, dssAddr := startDSSWith(t, DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		MQOWindow: 150 * time.Millisecond,
	})

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, sql := range []string{
		"SELECT count(*) AS n FROM accounts",
		"SELECT sum(t_amount) AS s FROM trades",
		"SELECT count(*) AS n FROM trades",
	} {
		sql := sql
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := netproto.Call(dssAddr, &netproto.Request{
				Kind: netproto.KindExec, SQL: sql, BusinessValue: 1,
			}, 30*time.Second)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("windowed query failed: %v", err)
		}
	}
	m := metricsOf(t, dssAddr)
	if m["workloads_formed_total"] < 1 {
		t.Errorf("workloads_formed_total = %v, want ≥ 1", m["workloads_formed_total"])
	}
	if m["mqo_fallback_total"] != 0 {
		t.Errorf("mqo_fallback_total = %v, want 0", m["mqo_fallback_total"])
	}

	// The scheduler slice of the metrics rides on KindStatus for `ivqp
	// -status`.
	st, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Metrics["workloads_formed_total"]; !ok || v < 1 {
		t.Errorf("status metrics workloads_formed_total = %v (present %v), want ≥ 1", v, ok)
	}
}

// countingCost counts the plans a planner prices through it.
type countingCost struct {
	core.CostModel
	estimates atomic.Int64
}

func (c *countingCost) Estimate(q core.Query, access []core.TableAccess, start core.Time) core.CostEstimate {
	c.estimates.Add(1)
	return c.CostModel.Estimate(q, access, start)
}

// recordingStrategy is the server's strategy plus a log of what it
// returned and how many plans the search priced on its behalf.
type recordingStrategy struct {
	inner scheduler.Strategy
	cost  *countingCost

	mu     sync.Mutex
	sigs   []string
	priced int64
}

func (r *recordingStrategy) Plan(q core.Query, now core.Time) (core.Plan, error) {
	before := r.cost.estimates.Load()
	plan, err := r.inner.Plan(q, now)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.priced += r.cost.estimates.Load() - before
	if err == nil {
		r.sigs = append(r.sigs, plan.Signature())
	}
	return plan, err
}

// TestDSSExecutesTheDispatchedPlan pins the DES contract on the live path:
// the plan a query was ranked and dispatched with is the plan that runs.
// One ad hoc query on an idle server is searched exactly once — every plan
// the cost model priced was priced inside the engine's Strategy call — and
// the report carries that call's plan, not a later re-plan's.
func TestDSSExecutesTheDispatchedPlan(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"accounts": time.Hour},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		MaxDelay:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	cost := &countingCost{CostModel: dss.costs}
	planner, err := core.NewPlanner(cost, core.PlannerConfig{Rates: dss.cfg.Rates, Horizon: dss.cfg.PlannerHorizon})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingStrategy{
		inner: &scheduler.IVQPStrategy{Planner: planner, Catalog: dss.catalog, Horizon: dss.cfg.PlannerHorizon},
		cost:  cost,
	}
	dss.engine.Stop()
	if dss.engine, err = dss.newEngine(rec); err != nil {
		t.Fatal(err)
	}
	addr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	for i, sql := range []string{
		"SELECT a.a_id FROM accounts a ORDER BY a.a_id", // replicated: replica and base plans compete
		"SELECT count(*) AS n FROM trades",              // base only
	} {
		resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindExec, SQL: sql, BusinessValue: 1}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rec.mu.Lock()
		sigs, priced := append([]string(nil), rec.sigs...), rec.priced
		rec.mu.Unlock()
		if len(sigs) != i+1 {
			t.Fatalf("query %d: %d strategy calls so far, want %d (one search per idle-server query)", i, len(sigs), i+1)
		}
		if got := resp.Meta.PlanSignature; got != sigs[i] {
			t.Errorf("query %d ran plan %q, was dispatched with %q", i, got, sigs[i])
		}
		if total := cost.estimates.Load(); total != priced || priced == 0 {
			t.Errorf("query %d: %d plans priced in all, %d inside the strategy: something searched a second time", i, total, priced)
		}
	}
}

// baseReadRecorder counts the plans a planner prices that read a base
// table on one site.
type baseReadRecorder struct {
	core.CostModel
	site  core.SiteID
	reads atomic.Int64
}

func (r *baseReadRecorder) Estimate(q core.Query, access []core.TableAccess, start core.Time) core.CostEstimate {
	for _, a := range access {
		if a.Kind == core.AccessBase && a.Site == r.site {
			r.reads.Add(1)
			break
		}
	}
	return r.CostModel.Estimate(q, access, start)
}

// TestDSSBatchFormationSeesOpenBreakers: batch formation plans through the
// same catalog, open breakers marked down, as dispatch. With site 1's breaker open, (a) a
// batch over its replicated table is formed and run without pricing one
// base read there, and (b) a batch with a member only site 1's base table
// can answer falls back to submission order: that member fails with the
// site-unavailable error, the others answer.
func TestDSSBatchFormationSeesOpenBreakers(t *testing.T) {
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
		BreakerOpenTimeout: time.Hour, // open for the rest of the test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	rec := &baseReadRecorder{CostModel: dss.costs, site: 1}
	planner, err := core.NewPlanner(rec, core.PlannerConfig{Rates: dss.cfg.Rates, Horizon: dss.cfg.PlannerHorizon})
	if err != nil {
		t.Fatal(err)
	}
	dss.engine.Stop()
	if dss.engine, err = dss.newEngine(&scheduler.IVQPStrategy{Planner: planner, Catalog: dss.catalog, Horizon: dss.cfg.PlannerHorizon}); err != nil {
		t.Fatal(err)
	}
	addr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Kill site 1: the failing replica pulls trip its breaker.
	proxy.SetMode(faults.ModeBlackhole, 0)
	proxy.Sever()
	eventually(t, 10*time.Second, "site 1 breaker opens", func() bool { return dss.catalog.SiteDown(1, dss.now()) })

	batch := func(sqls ...string) *netproto.Response {
		t.Helper()
		req := &netproto.Request{Kind: netproto.KindBatch}
		for _, sql := range sqls {
			req.Batch = append(req.Batch, netproto.BatchQuery{SQL: sql, BusinessValue: 1})
		}
		resp, err := netproto.Call(addr, req, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const (
		accountsSQL = "SELECT a.a_id, a.a_balance FROM accounts a ORDER BY a.a_id"
		countSQL    = "SELECT count(*) AS n FROM accounts"
		ordersSQL   = "SELECT o.o_id, o.o_qty FROM orders o ORDER BY o.o_id"
		tradesSQL   = "SELECT tr.t_account, tr.t_amount FROM trades tr ORDER BY tr.t_account"
	)

	// (a) Site 1's tables in the batch are all replicated.
	rec.reads.Store(0)
	resp := batch(accountsSQL, countSQL, ordersSQL)
	if n := rec.reads.Load(); n != 0 {
		t.Errorf("(a) %d plans priced reading base on site 1 behind its open breaker", n)
	}
	if resp.MQOFallback {
		t.Error("(a) batch over replicas flagged as MQO fallback")
	}
	for i, item := range resp.Batch {
		if item.Err != "" || item.Result == nil {
			t.Errorf("(a) member %d: err %q, result %v", i, item.Err, item.Result)
		}
	}

	// (b) One member reads a table only site 1's base holds.
	resp = batch(tradesSQL, accountsSQL, ordersSQL)
	if !resp.MQOFallback {
		t.Error("(b) batch with an unplannable member not flagged as MQO fallback")
	}
	if item := resp.Batch[0]; item.Err == "" || !item.Degraded {
		t.Errorf("(b) trades member: err %q, degraded %v; want the site-unavailable error", item.Err, item.Degraded)
	}
	for i, item := range resp.Batch[1:] {
		if item.Err != "" || item.Result == nil {
			t.Errorf("(b) member %d: err %q, result %v", i+1, item.Err, item.Result)
		}
	}
	if m := metricsOf(t, addr); m["mqo_fallback_total"] != 1 {
		t.Errorf("mqo_fallback_total = %v, want 1", m["mqo_fallback_total"])
	}
}
