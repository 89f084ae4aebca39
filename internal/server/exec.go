package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"sync"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// Execution path of the DSS: running one dispatched plan (bounded delay,
// replicas and remote sites, degradation around unreachable sites) and the
// per-report IV accounting. Scheduling — which query runs when, and with
// which plan — lives in sched.go; this file only knows how to run the one
// it is handed.

// latencyBounds buckets CL/SL histograms in experiment minutes.
var latencyBounds = []float64{.1, .5, 1, 2, 5, 10, 20, 40, 80, 160}

// valueBounds buckets information-value histograms.
var valueBounds = []float64{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1}

// expiryResponse classifies a mid-execution failure caused by the request
// context ending: a value-horizon cancellation, a wire-deadline expiry, or
// a client cancellation. It returns nil for ordinary errors. The matching
// counters distinguish work the admission controller killed for value
// reasons from work the client simply stopped waiting for.
func (s *DSSServer) expiryResponse(err error) *netproto.Response {
	var vee *core.ValueExpiredError
	switch {
	case errors.As(err, &vee):
		s.stats.Counter("queries_cancelled_total").Inc()
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.Counter("queries_deadline_exceeded_total").Inc()
	case errors.Is(err, context.Canceled):
		s.stats.Counter("queries_cancelled_total").Inc()
	default:
		return nil
	}
	return &netproto.Response{Err: err.Error(), Expired: true}
}

// isDegradedErr reports whether err is the typed degraded-mode failure: the
// query could not be answered because a site is down and no replica exists.
func isDegradedErr(err error) bool {
	var ue *core.SiteUnavailableError
	return errors.As(err, &ue)
}

// plannerQuery derives the planner's view of a compiled statement.
func (s *DSSServer) plannerQuery(st *sqlmini.Statement, bv float64, submit core.Time) (core.Query, error) {
	tables := make([]core.TableID, len(st.Tables))
	for i, name := range st.Tables {
		tables[i] = core.TableID(name)
	}
	if bv == 0 {
		bv = 1
	}
	q := core.Query{ID: st.ID, Tables: tables, BusinessValue: bv, SubmitAt: submit}
	// Fail fast on unknown tables so batch members error individually.
	for _, id := range tables {
		if _, err := s.catalog.Placement().SiteOf(id); err != nil {
			return core.Query{}, err
		}
	}
	return q, nil
}

// runOne runs the plan the engine dispatched q with: it honours a bounded
// delay, executes, and records calibration and metrics. The CL clock runs
// from q.SubmitAt, so queries queued behind their workload predecessors pay
// their waiting time.
func (s *DSSServer) runOne(ctx context.Context, st *sqlmini.Statement, sql string, q core.Query, plan core.Plan) (*relation.Table, *netproto.ReportMeta, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, context.Cause(ctx)
	}
	// A plan that touches a table whose base site is behind an open breaker
	// was searched around the outage (the catalog's BaseDown): flag its
	// answer.
	degradedPlanning := false
	released := math.Max(plan.Start, s.now())
	for _, a := range plan.Access {
		degradedPlanning = degradedPlanning || s.catalog.SiteDown(a.Site, released)
	}

	// Honour a delayed plan, bounded by MaxDelay — and by the request
	// context: a deadline that fires mid-delay aborts before any work runs.
	if delay := s.wallDelay(plan.Start - s.now()); delay > 0 {
		if delay > s.cfg.MaxDelay {
			delay = s.cfg.MaxDelay
		}
		t := wall.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, nil, context.Cause(ctx)
		case <-s.closed:
			t.Stop()
			return nil, nil, fmt.Errorf("server shutting down")
		}
	}

	// Processing is measured from here, after any delay, not from the
	// dispatch instant or the plan's start: the hand-off to this goroutine
	// is queueing, and a wait that MaxDelay cut short ends before
	// plan.Start. Neither is the plan's processing cost.
	began := s.now()
	result, freshness, degradedExec, err := s.executePlan(ctx, st, sql, plan)
	if err != nil {
		return nil, nil, err
	}
	// A degraded answer: the plan was searched around an open breaker, or
	// the executor itself had to fall back to a replica mid-read.
	degraded := degradedPlanning || degradedExec
	finish := s.now()

	// Online calibration: record the measured processing cost for this
	// (query, data-source configuration) pair. For plans without views the
	// key reduces to the legacy base-table subset, so saved calibrations
	// keep matching.
	if !s.costs.RecordAccess(q.ID, plan.Access, core.CostEstimate{Process: finish - began}) {
		s.stats.Counter("calibration_refused_total").Inc()
	}

	lat := core.Latencies{
		CL: math.Max(finish-q.SubmitAt, 0),
		SL: math.Max(finish-freshness, 0),
	}
	value := core.InformationValue(q.BusinessValue, lat, s.cfg.Rates)
	s.stats.Histogram("report_cl_minutes", latencyBounds).Observe(lat.CL)
	s.stats.Histogram("report_sl_minutes", latencyBounds).Observe(lat.SL)
	s.stats.Histogram("report_value", valueBounds).Observe(value)
	if _, viewPlan := plan.ViewAccess(); viewPlan {
		s.stats.Counter("plans_view_total").Inc()
	} else if len(plan.BaseTables()) == 0 {
		s.stats.Counter("plans_all_replica_total").Inc()
	} else if len(plan.BaseTables()) == len(plan.Access) {
		s.stats.Counter("plans_all_base_total").Inc()
	} else {
		s.stats.Counter("plans_mixed_total").Inc()
	}
	if plan.Start > q.SubmitAt {
		s.stats.Counter("plans_delayed_total").Inc()
	}
	if degraded {
		s.stats.Counter("degraded_answers_total").Inc()
	}
	// Feed the adaptive replication loop: what this report lost to
	// staleness, charged to the replicas its plan read, and the query
	// itself for the placement review's workload window. Nothing else
	// reads either.
	if s.cfg.AdaptiveSync {
		s.observeSyncLoss(plan, value, lat)
		s.noteRecentQuery(q)
	}
	return result, &netproto.ReportMeta{
		PlanSignature: plan.Signature(),
		CLMinutes:     lat.CL,
		SLMinutes:     lat.SL,
		Value:         value,
		Degraded:      degraded,
	}, nil
}

// executePlan evaluates the statement with per-table data sources chosen
// by the plan and returns the result, the oldest freshness timestamp
// actually used, and whether the answer is degraded (a base read fell back
// to a stale replica because the site was unreachable). sql is st's
// text as received, for the site a plan that reads only base tables is
// shipped to; st is the DSS's compiled statement for it, so the pushdowns
// are rendered and the plans prepared once per text, not per query.
//
// Such a plan runs at its heaviest site, the one whose tables hold the
// most rows (siteFetches): the other sites' pushdowns come back first,
// all at once, and go out again attached to that site's one KindExec
// carrying the statement, whose answer is the report. A plan that reads
// any replica runs here, over every base site's pushdowns. Either way a
// site gets one request per plan, and a failed request degrades exactly
// that site's tables to their replicas.
func (s *DSSServer) executePlan(ctx context.Context, st *sqlmini.Statement, sql string, plan core.Plan) (*relation.Table, core.Time, bool, error) {
	// A view plan is the whole answer, already materialized and
	// pre-aggregated: serve it without re-evaluating the statement. The
	// copy-on-write refresh discipline makes the returned snapshot stable.
	if va, ok := plan.ViewAccess(); ok {
		s.mu.RLock()
		vs, ok := s.views[va.View]
		var table *relation.Table
		var syncedAt core.Time
		if ok && vs.table != nil {
			table, syncedAt = vs.table, vs.syncedAt
		}
		s.mu.RUnlock()
		if table == nil {
			return nil, 0, false, fmt.Errorf("server: no materialized answer for view %s", va.View)
		}
		return table, syncedAt, false, nil
	}
	fetchedAt := s.now()
	fetches, ship := s.siteFetches(st, sql, plan)
	s.callSites(ctx, fetches, ship)
	if ctx.Err() != nil {
		// The request's own deadline is the caller's answer — degrading to
		// a replica would spend more time producing a report nobody is
		// waiting for.
		return nil, 0, false, context.Cause(ctx)
	}
	cat := make(sqlmini.MapCatalog, len(plan.Access))
	oldest := math.Inf(1)
	degraded := false
	// A fetched table is one-shot: its rows never reach the executor
	// again, so evict what running over them cached. Replica snapshots stay
	// cached until the next sync swaps them.
	var fetched []*relation.Table
	defer func() {
		for _, t := range fetched {
			s.execCache.Forget(t)
		}
	}()
	// bind adds to cat the tables the plan reads at the shipped site, or
	// those it reads anywhere else, which then ride the shipped request.
	bind := func(shipped bool) error {
		for _, a := range plan.Access {
			if (ship != nil && a.Site == ship.site) != shipped {
				continue
			}
			switch a.Kind {
			case core.AccessReplica:
				s.mu.RLock()
				snap, ok := s.replicas[a.Table]
				s.mu.RUnlock()
				if !ok {
					return fmt.Errorf("server: no replica snapshot for %s", a.Table)
				}
				cat.Add(string(a.Table), snap.table)
				oldest = math.Min(oldest, snap.syncedAt)
			case core.AccessBase:
				result, err := siteResult(fetches, a)
				if err == nil {
					result.Name = string(a.Table)
					cat.Add(string(a.Table), result)
					fetched = append(fetched, result)
					oldest = math.Min(oldest, fetchedAt)
					break
				}
				// Availability degradation: an unreachable site is survivable
				// when a replica snapshot exists — serve the stale copy and
				// let the SL accounting price the staleness honestly.
				s.mu.RLock()
				snap, ok := s.replicas[a.Table]
				s.mu.RUnlock()
				if !ok {
					var remote *netproto.RemoteError
					if errors.As(err, &remote) {
						// The site answered: an application error, not an
						// outage — surface it undecorated.
						return fmt.Errorf("server: site %d: %w", a.Site, err)
					}
					return &core.SiteUnavailableError{Table: a.Table, Site: a.Site, Cause: err}
				}
				log.Printf("server: site %d unreachable for %s, degrading to replica (synced %.2f): %v", a.Site, a.Table, snap.syncedAt, err)
				s.stats.Counter("degraded_reads_total").Inc()
				degraded = true
				cat.Add(string(a.Table), snap.table)
				oldest = math.Min(oldest, snap.syncedAt)
			case core.AccessView:
				// A view materializes a whole answer; the bypass above is the
				// only valid shape. The planner never emits mixed view plans.
				return fmt.Errorf("server: view %s cannot serve table %s inside a multi-source plan", a.View, a.Table)
			default:
				return fmt.Errorf("server: invalid access kind %d", int(a.Kind))
			}
			if ship != nil && !shipped {
				ship.req.Attach = append(ship.req.Attach, cat[string(a.Table)])
			}
		}
		return nil
	}
	if err := bind(false); err != nil {
		return nil, 0, false, err
	}
	if ship != nil {
		s.stats.Counter("whole_pushdowns_total").Inc()
		s.stats.Counter("attached_tables_total").Add(int64(len(ship.req.Attach)))
		s.callFetch(ctx, ship)
		if ctx.Err() != nil {
			return nil, 0, false, context.Cause(ctx)
		}
		if ship.err == nil {
			return ship.resp.Result, math.Min(oldest, fetchedAt), degraded, nil
		}
		// The heaviest site failed: its tables come from replicas, and the
		// statement runs here over them and the attachments.
		if err := bind(true); err != nil {
			return nil, 0, false, err
		}
	}
	out, err := st.Execute(ctx, cat, s.execCache)
	if err != nil {
		return nil, 0, false, err
	}
	if math.IsInf(oldest, 1) {
		oldest = s.now()
	}
	return out, oldest, degraded, nil
}

// siteFetch is one site's share of a plan's base reads: its tables, in
// plan order, their discovered row counts summed, and the one request
// that fetches them all.
type siteFetch struct {
	site   core.SiteID
	tables []core.TableID
	rows   int
	req    *netproto.Request
	resp   *netproto.Response
	err    error
}

// siteFetches groups the plan's base reads by site, in plan order, and
// builds each site's one request (query decomposition). When the plan
// reads every table from base, ship is the site whose tables hold the
// most rows (ties to the lowest site ID), and its request carries sql:
// the statement runs there, over the other sites' fetches attached. Any
// other site gets its tables' pushdown SELECTs (st.Pushdown, a KindExec
// for one, a KindBatch for several), SELECT * where a pushdown is refused.
func (s *DSSServer) siteFetches(st *sqlmini.Statement, sql string, plan core.Plan) (fetches []siteFetch, ship *siteFetch) {
	allBase := true
	for _, a := range plan.Access {
		if a.Kind != core.AccessBase {
			allBase = false
			continue
		}
		j := slices.IndexFunc(fetches, func(f siteFetch) bool { return f.site == a.Site })
		if j < 0 {
			j, fetches = len(fetches), append(fetches, siteFetch{site: a.Site})
		}
		fetches[j].tables = append(fetches[j].tables, a.Table)
		fetches[j].rows += s.tableRows[a.Table]
	}
	for j := range fetches {
		f := &fetches[j]
		if allBase && (ship == nil || f.rows > ship.rows || f.rows == ship.rows && f.site < ship.site) {
			ship = f
		}
	}
	for j := range fetches {
		f := &fetches[j]
		if f == ship {
			f.req = &netproto.Request{Kind: netproto.KindExec, SQL: sql}
			continue
		}
		f.req = &netproto.Request{Kind: netproto.KindBatch, Batch: make([]netproto.BatchQuery, len(f.tables))}
		for k, t := range f.tables {
			var ok bool
			if f.req.Batch[k].SQL, ok = st.Pushdown(string(t)); !ok {
				f.req.Batch[k].SQL = "SELECT * FROM " + string(t)
			}
		}
		if len(f.tables) == 1 {
			f.req = &netproto.Request{Kind: netproto.KindExec, SQL: f.req.Batch[0].SQL}
		}
	}
	return fetches, ship
}

// callSites sends the request of every fetch but skip, all at once,
// under ctx. A lone request calls inline, with no goroutine.
func (s *DSSServer) callSites(ctx context.Context, fetches []siteFetch, skip *siteFetch) {
	if n := len(fetches); n < 2 || n == 2 && skip != nil {
		for j := range fetches {
			if f := &fetches[j]; f != skip {
				s.callFetch(ctx, f)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for j := range fetches {
		if f := &fetches[j]; f != skip {
			wg.Add(1)
			go func(f *siteFetch) { defer wg.Done(); s.callFetch(ctx, f) }(f)
		}
	}
	wg.Wait()
}

// callFetch sends f's request. Every site request carries SQL, so each
// counts as a pushdown, the shipped statement included.
func (s *DSSServer) callFetch(ctx context.Context, f *siteFetch) {
	s.stats.Counter("pushdowns_total").Inc()
	f.resp, f.err = s.callSite(ctx, f.site, f.req)
}

// siteResult returns what a's site request brought back for a's table,
// or the request's failure, or its batch item's application error.
func siteResult(fetches []siteFetch, a core.TableAccess) (*relation.Table, error) {
	for _, f := range fetches {
		k := slices.Index(f.tables, a.Table)
		switch {
		case k < 0:
			continue
		case f.err != nil:
			return nil, f.err
		case f.req.Kind == netproto.KindExec:
			return f.resp.Result, nil
		case len(f.resp.Batch) != len(f.tables):
			return nil, fmt.Errorf("server: site %d answered %d of %d pushdowns", f.site, len(f.resp.Batch), len(f.tables))
		case f.resp.Batch[k].Err != "":
			return nil, &netproto.RemoteError{Msg: f.resp.Batch[k].Err}
		}
		return f.resp.Batch[k].Result, nil
	}
	return nil, fmt.Errorf("server: %s was not fetched from site %d", a.Table, a.Site)
}
