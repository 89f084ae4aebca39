package server

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/scheduler"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// Live scheduling: the DSS drives the shared scheduler.Engine on its
// scaled wall clock. Every Exec and Batch request flows through the
// engine, which buffers arrivals in the micro-batch window, forms
// workloads of range-overlapping queries, GA-orders them (Section 3.2),
// and dispatches highest-effective-value-first with anti-starvation aging
// (Section 3.3) and horizon shedding. The DES dispatcher drives the
// identical engine on virtual time — one scheduling core, two drivers.

// pendingQuery is the engine payload for one admitted query: the compiled
// statement plus the path back to the waiting client — a reply channel
// for ad hoc queries, a collector slot for batch members.
type pendingQuery struct {
	ctx context.Context
	st  *sqlmini.Statement
	sql string // as received: what a site holding every table runs whole
	// done receives the response for an ad hoc query (nil for batch
	// members).
	done chan *netproto.Response
	// batch/reqIdx place a batch member's result; nil for ad hoc queries.
	batch  *batchCollector
	reqIdx int
}

// deliver hands the finished response to whoever is waiting.
func (p *pendingQuery) deliver(resp *netproto.Response) {
	if p.batch != nil {
		item := &p.batch.items[p.reqIdx]
		item.Err = resp.Err
		item.Degraded = resp.Degraded
		item.Result = resp.Result
		item.Meta = resp.Meta
		if resp.MQOFallback {
			p.batch.fallback.Store(true)
		}
		p.batch.wg.Done()
		return
	}
	p.done <- resp
}

// batchCollector gathers one batch's member results. Members write
// disjoint item slots from executor goroutines; wg releases the waiting
// connection handler once every member delivered.
type batchCollector struct {
	items    []netproto.BatchItem
	fallback atomic.Bool
	wg       sync.WaitGroup
}

// newEngine wires the shared scheduling engine to this server: scaled
// wall clock, real execution, planning by strategy (IVQP over the
// catalog outside tests), and the configured MQO window, GA, aging, and
// admission bound. The catalog marks the sites behind open breakers
// down, so dispatch and workload formation search the same plan space,
// and the plan a query is ranked with is the plan liveExecutor runs, as
// in the DES (scheduler.PlanExecutor).
func (s *DSSServer) newEngine(strategy scheduler.Strategy) (*scheduler.Engine, error) {
	ecfg := scheduler.EngineConfig{
		Clock:    s.clock,
		Executor: liveExecutor{s},
		Strategy: strategy,
		Rates:    s.cfg.Rates,
		Slots:    s.cfg.Workers,
		Aging:    s.cfg.Aging,
		Window:   core.Duration(s.cfg.MQOWindow.Seconds() * s.cfg.TimeScale),
		GA:       s.cfg.GA,
		MaxQueue: s.cfg.QueueDepth,
		Stats:    s.stats,
		OnDrop:   s.onDrop,
	}
	if s.budgets != nil {
		// Weighted fair shedding: a full queue evicts the lowest
		// IV-per-budget-unit queued query instead of refusing the arrival.
		ecfg.Victim = s.budgets.Victim
	}
	eng, err := scheduler.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	eng.SetEpsilon(s.cfg.Epsilon)
	return eng, nil
}

// liveExecutor runs a dispatched plan for real: one goroutine per
// execution slot in use, through the execution path in exec.go.
type liveExecutor struct{ s *DSSServer }

var _ scheduler.Executor = liveExecutor{}

func (x liveExecutor) Execute(d scheduler.Dispatch, done func(core.Outcome)) {
	go func() {
		s := x.s
		p := d.Payload.(*pendingQuery)
		s.stats.Counter("queries_total").Inc()
		start := wall.Now()
		result, meta, err := s.runOne(p.ctx, p.st, p.sql, d.Query, d.Plan)
		var resp *netproto.Response
		if err != nil {
			resp = s.expiryResponse(err)
			if resp == nil {
				s.stats.Counter("query_errors_total").Inc()
				resp = &netproto.Response{Err: err.Error(), Degraded: isDegradedErr(err)}
			}
		} else {
			resp = &netproto.Response{Result: result, Meta: meta, Degraded: meta.Degraded}
		}
		resp.MQOFallback = d.MQOFallback
		if p.batch == nil {
			// Only single-query service times feed the admission projection;
			// a batch member's duration says nothing about the next ad hoc
			// query.
			s.observeService(wall.Since(start))
		}
		o := core.Outcome{Query: d.Query, Err: err}
		if meta != nil {
			o.Value = meta.Value
		}
		if s.budgets != nil {
			s.budgets.Charge(d.Query.Tenant, o.Value)
		}
		p.deliver(resp)
		s.noteQueueDepth()
		done(o)
	}()
}

// onDrop answers queries the engine dropped without executing: expired in
// the queue (value-horizon shedding) or impossible to plan.
func (s *DSSServer) onDrop(o core.Outcome, payload any) {
	p := payload.(*pendingQuery)
	var resp *netproto.Response
	if o.Expired {
		s.stats.Counter("queries_shed_total").Inc()
		err := &core.ValueExpiredError{
			Query:   o.Query.ID,
			Horizon: o.Query.ValueHorizon(s.cfg.Rates, s.cfg.Epsilon),
			Reason:  "expired-queued",
		}
		resp = &netproto.Response{Err: err.Error(), Expired: true}
	} else {
		s.stats.Counter("queries_total").Inc()
		s.stats.Counter("query_errors_total").Inc()
		resp = &netproto.Response{Err: o.Err.Error(), Degraded: isDegradedErr(o.Err)}
	}
	p.deliver(resp)
	s.noteQueueDepth()
}

// noteQueueDepth mirrors the engine's queue length into the admission
// gauge.
func (s *DSSServer) noteQueueDepth() {
	s.stats.Gauge("admission_queue_depth").Set(float64(s.engine.QueueLen()))
}

// submitExec admits one ad hoc query, compiled as st, into the engine and
// waits for its report. Catalog errors answer immediately — they are
// query errors, not scheduling outcomes.
func (s *DSSServer) submitExec(ctx context.Context, req *netproto.Request, st *sqlmini.Statement, horizon core.Duration) *netproto.Response {
	q, err := s.plannerQuery(st, req.BusinessValue, s.now())
	if err != nil {
		return s.execError(err)
	}
	q.Tenant = req.Tenant
	p := &pendingQuery{ctx: ctx, st: st, sql: req.SQL, done: make(chan *netproto.Response, 1)}
	if !s.engine.Submit(q, p) {
		return s.shed(st.ID, horizon, "queue-full")
	}
	s.noteQueueDepth()
	select {
	case resp := <-p.done:
		return resp
	case <-s.closed:
		return &netproto.Response{Err: "server shutting down"}
	}
}

// execError counts a query that failed before it could be scheduled.
func (s *DSSServer) execError(err error) *netproto.Response {
	s.stats.Counter("queries_total").Inc()
	s.stats.Counter("query_errors_total").Inc()
	return &netproto.Response{Err: err.Error()}
}

// submitBatch admits a client workload as one engine group: members that
// parse are formed into workloads and GA-ordered immediately (Section
// 3.2), then dispatched by the same engine that schedules ad hoc queries.
// Admission against the queue bound is all-or-nothing, as a batch was one
// admission unit on the wire.
func (s *DSSServer) submitBatch(ctx context.Context, req *netproto.Request, horizon core.Duration) *netproto.Response {
	if len(req.Batch) == 0 {
		return &netproto.Response{Err: "empty batch"}
	}
	s.stats.Counter("batches_total").Inc()
	submit := s.now()

	col := &batchCollector{items: make([]netproto.BatchItem, len(req.Batch))}
	queries := make([]core.Query, 0, len(req.Batch))
	payloads := make([]any, 0, len(req.Batch))
	for i, bq := range req.Batch {
		st, err := s.execCache.Statement(bq.SQL)
		if err != nil {
			col.items[i].Err = err.Error()
			continue
		}
		q, err := s.plannerQuery(st, bq.BusinessValue, submit)
		if err != nil {
			col.items[i].Err = err.Error()
			continue
		}
		q.Tenant = req.Tenant
		col.wg.Add(1)
		queries = append(queries, q)
		payloads = append(payloads, &pendingQuery{ctx: ctx, st: st, sql: bq.SQL, batch: col, reqIdx: i})
	}
	if len(queries) == 0 {
		return &netproto.Response{Batch: col.items}
	}
	if !s.engine.SubmitGroup(queries, payloads) {
		return s.shed(requestID(req, nil), horizon, "queue-full")
	}
	s.noteQueueDepth()

	delivered := make(chan struct{})
	go func() {
		col.wg.Wait()
		close(delivered)
	}()
	select {
	case <-delivered:
	case <-s.closed:
		return &netproto.Response{Err: "server shutting down"}
	}
	return &netproto.Response{Batch: col.items, MQOFallback: col.fallback.Load()}
}

// schedulerStatusMetrics is the scheduling slice of the registry included
// in KindStatus responses, so `ivqp -status` shows the live MQO engine
// (and how many site requests carried whole statements, and how many
// tables rode along attached) without a full metrics dump.
func (s *DSSServer) schedulerStatusMetrics() map[string]float64 {
	out := make(map[string]float64)
	for name, v := range s.stats.Flatten() {
		if strings.HasPrefix(name, "workloads_formed") ||
			strings.HasPrefix(name, "workload_size") ||
			strings.HasPrefix(name, "mqo_") ||
			strings.HasPrefix(name, "aging_") ||
			strings.HasPrefix(name, "gossip_") ||
			strings.HasPrefix(name, "steal") || strings.HasSuffix(name, "pushdowns_total") ||
			name == "attached_tables_total" {
			out[name] = v
		}
	}
	return out
}
