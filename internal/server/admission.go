package server

import (
	"context"
	"fmt"
	"math"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// submit runs admission control for an Exec/Batch request: derive the
// request context (wire budget and value horizon), shed on arrival when
// the queue is full or the projected completion already overshoots the
// horizon, otherwise hand the request to the scheduling engine and wait
// for the answer. Shedding here — before any planning or remote I/O — is
// what keeps an overloaded DSS producing valuable reports instead of
// uniformly late ones; the same horizon is re-checked inside the engine
// (value-horizon shedding at every dispatch decision) because queue time
// can kill a query that was worth admitting.
func (s *DSSServer) submit(req *netproto.Request) *netproto.Response {
	// Work-stealing: a backed-up shard hands the whole request to the
	// least-loaded covering peer before admission; a stolen request is
	// served locally no matter what (Forwarded stops steal chains).
	if resp, stolen := s.maybeSteal(req); stolen {
		return resp
	}
	if req.Forwarded {
		s.stats.Counter("steals_in_total").Inc()
	}
	ctx, cancel := req.BudgetContext(s.baseCtx)
	defer cancel()

	// An Exec's text compiles here, once per text, and its statement names
	// the request; a parse error answers after the shed checks, as a query
	// error.
	var st *sqlmini.Statement
	var stErr error
	if req.Kind == netproto.KindExec {
		st, stErr = s.execCache.Statement(req.SQL)
	}
	horizon := s.requestHorizon(req)
	if s.cfg.Epsilon > 0 && horizon <= 0 {
		// The business value already sits at or below the threshold: the
		// report is worthless before any work is done.
		return s.shed(requestID(req, st), horizon, "projected-completion")
	}
	if s.cfg.Epsilon > 0 && !math.IsInf(horizon, 1) {
		horizonWall := s.wallDelay(horizon)
		if projected := s.projectedCompletion(); projected > horizonWall {
			return s.shed(requestID(req, st), horizon, "projected-completion")
		}
		// Arm the horizon as a context deadline with a typed cause, so an
		// execution that overruns it is cancelled mid-flight and the error
		// names the value expiry rather than a generic timeout.
		var cancelHorizon context.CancelFunc
		ctx, cancelHorizon = context.WithDeadlineCause(ctx, wall.Now().Add(horizonWall),
			&core.ValueExpiredError{Query: requestID(req, st), Horizon: horizon, Reason: "expired-running"})
		defer cancelHorizon()
	}

	if req.Kind == netproto.KindBatch {
		return s.submitBatch(ctx, req, horizon)
	}
	if stErr != nil {
		return s.execError(stErr)
	}
	return s.submitExec(ctx, req, st, horizon)
}

// requestID names a request in its shed and value-expiry errors: an Exec
// by its statement (or its text, if that did not parse), a batch by its
// size and its first member, so two batches' errors tell them apart.
func requestID(req *netproto.Request, st *sqlmini.Statement) string {
	if st != nil {
		return st.ID
	}
	if req.Kind != netproto.KindBatch || len(req.Batch) == 0 {
		return sqlmini.QueryID(req.SQL)
	}
	return fmt.Sprintf("batch-of-%d-from-%s", len(req.Batch), sqlmini.QueryID(req.Batch[0].SQL))
}

// requestHorizon computes the request's value horizon in experiment
// minutes. A batch uses its richest member: the batch is worth admitting
// while any member would still produce value (per-member horizons are
// enforced at dispatch inside the engine).
func (s *DSSServer) requestHorizon(req *netproto.Request) core.Duration {
	if req.Kind == netproto.KindBatch {
		h := core.Duration(0)
		for _, m := range req.Batch {
			q := core.Query{BusinessValue: m.BusinessValue}
			if mh := q.ValueHorizon(s.cfg.Rates, s.cfg.Epsilon); mh > h {
				h = mh
			}
		}
		return h
	}
	q := core.Query{BusinessValue: req.BusinessValue}
	return q.ValueHorizon(s.cfg.Rates, s.cfg.Epsilon)
}

// shed refuses a request at admission with the typed value-expiry error.
func (s *DSSServer) shed(id string, horizon core.Duration, reason string) *netproto.Response {
	s.stats.Counter("queries_shed_total").Inc()
	err := &core.ValueExpiredError{Query: id, Horizon: horizon, Reason: reason}
	return &netproto.Response{Err: err.Error(), Expired: true}
}

// projectedCompletion estimates how long a newly admitted query will take
// from arrival to report: the smoothed service time, scaled by how many
// queued queries stand between it and an execution slot.
func (s *DSSServer) projectedCompletion() time.Duration {
	s.svcMu.Lock()
	ewma := s.svcEWMA
	s.svcMu.Unlock()
	if ewma <= 0 {
		return 0 // no completions yet: admit and learn
	}
	waiting := float64(s.engine.QueueLen())
	return time.Duration(float64(ewma) * (waiting/float64(s.cfg.Workers) + 1))
}

// observeService folds one measured query service time into the EWMA the
// admission projection uses.
func (s *DSSServer) observeService(d time.Duration) {
	const alpha = 0.3
	s.svcMu.Lock()
	if s.svcEWMA == 0 {
		s.svcEWMA = d
	} else {
		s.svcEWMA = time.Duration(alpha*float64(d) + (1-alpha)*float64(s.svcEWMA))
	}
	s.svcMu.Unlock()
}
