package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/router"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// Fixed-input layer measures: each calls one layer's public function on a
// stated input, a few times, and reports the median. They explain the
// replay's spans (what a columnar conversion or a clone costs on this
// data) and are measured only on the workloads whose steady state runs
// that layer; elsewhere the metric is zero by definition.

const (
	microReps     = 7
	deltaCallReps = 21
)

// medianOf times fn reps times and returns the median in microseconds.
func medianOf(reps int, fn func() error) (float64, error) {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = us(time.Since(start))
	}
	return median(times), nil
}

// bufConn is an in-memory net.Conn: what is written is read back. It lets
// the codec be timed on its own, encode apart from decode, with no socket.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error                     { return nil }
func (*bufConn) LocalAddr() net.Addr              { return nil }
func (*bufConn) RemoteAddr() net.Addr             { return nil }
func (*bufConn) SetDeadline(time.Time) error      { return nil }
func (*bufConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufConn) SetWriteDeadline(time.Time) error { return nil }

// codecCost pushes a lineitem pushdown Response through a netproto.Conn
// and returns encode ns/row, decode ns/row and wire bytes/row. The first
// message on a gob stream carries the type descriptors; it is sent once
// and discarded, as on a pooled connection.
func codecCost(ctx context.Context, lineitem *relation.Table, templates []template) (enc, dec, bytesPerRow float64, err error) {
	sql := ""
	for _, t := range templates {
		if s, ok := sqlmini.PushdownFor(t.Stmt, tpch.LineItem); ok {
			sql = s
			break
		}
	}
	if sql == "" {
		// No template of this workload pushes a lineitem filter: ship the
		// fragment Q3 would.
		sql = "SELECT * FROM lineitem WHERE l_shipdate > DATE '1995-03-15'"
	}
	out, err := sqlmini.RunWith(ctx, sql, sqlmini.MapCatalog{tpch.LineItem: lineitem}, sqlmini.Options{})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("codec fragment: %w", err)
	}
	rows := float64(len(out.Rows))
	if rows == 0 {
		return 0, 0, 0, fmt.Errorf("codec fragment %q returned no rows", sql)
	}
	resp := &netproto.Response{Result: out}
	buf := &bufConn{}
	conn := netproto.NewConn(buf)
	if err := conn.WriteResponse(resp); err != nil {
		return 0, 0, 0, err
	}
	if _, err := conn.ReadResponse(); err != nil {
		return 0, 0, 0, err
	}
	var size float64
	encUs, err := medianOf(microReps, func() error {
		buf.Reset()
		err := conn.WriteResponse(resp)
		size = float64(buf.Len())
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// Decode consumes the buffer, so each repetition re-encodes first,
	// outside the timed part.
	decTimes := make([]float64, microReps)
	for i := range decTimes {
		buf.Reset()
		if err := conn.WriteResponse(resp); err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		if _, err := conn.ReadResponse(); err != nil {
			return 0, 0, 0, err
		}
		decTimes[i] = us(time.Since(start))
	}
	return encUs * 1e3 / rows, median(decTimes) * 1e3 / rows, size / rows, nil
}

// pingRTT is a pooled KindPing to site 1: the floor under every remote call.
func pingRTT(ctx context.Context, pool *netproto.Pool, addr string) (float64, error) {
	return medianOf(200, func() error {
		_, err := pool.CallContext(ctx, addr, &netproto.Request{Kind: netproto.KindPing})
		return err
	})
}

// deltaCallCost is a KindDelta round trip for the last 100 lineitem rows:
// what one steady-state sync cycle pays on the wire.
func deltaCallCost(ctx context.Context, pool *netproto.Pool, addr string, lineitemRows int) (float64, error) {
	return medianOf(deltaCallReps, func() error {
		resp, err := pool.CallContext(ctx, addr, &netproto.Request{Kind: netproto.KindDelta, Table: tpch.LineItem, Cursor: uint64(lineitemRows - 100)})
		if err != nil {
			return err
		}
		if len(resp.DeltaRows) != 100 {
			return fmt.Errorf("delta call returned %d rows, want 100", len(resp.DeltaRows))
		}
		return resp.ErrOrNil()
	})
}

// columnarCost is one row-major → columnar conversion of lineitem: paid
// again after every sync that changes the table, and for every fetched
// base table.
func columnarCost(lineitem *relation.Table) (float64, error) {
	return medianOf(microReps, func() error {
		_, err := relation.Columnar(lineitem)
		return err
	})
}

// cloneCost is the copy-on-write step of a delta sync: clone lineitem and
// append 100 rows, which the DSS does under its replica lock.
func cloneCost(lineitem *relation.Table) (float64, error) {
	return medianOf(microReps, func() error {
		next := lineitem.Clone()
		for _, row := range lineitem.Rows[:100] {
			if err := next.Insert(row); err != nil {
				return err
			}
		}
		return nil
	})
}

// viewCost folds a 100-row delta into Q1's view program and renders it:
// per-row apply cost and per-refresh render cost.
func viewCost(ctx context.Context, lineitem *relation.Table) (applyUsPerRow, renderUs float64, err error) {
	q, err := tpch.QueryByID("Q1")
	if err != nil {
		return 0, 0, err
	}
	stmt, err := sqlmini.Parse(q.SQL)
	if err != nil {
		return 0, 0, err
	}
	prog, err := sqlmini.CompileView(stmt, lineitem.Schema)
	if err != nil {
		return 0, 0, err
	}
	if err := prog.Apply(ctx, lineitem.Rows); err != nil {
		return 0, 0, err
	}
	delta := lineitem.Rows[:100]
	applyUs, err := medianOf(microReps, func() error { return prog.Apply(ctx, delta) })
	if err != nil {
		return 0, 0, err
	}
	renderUs, err = medianOf(microReps, func() error {
		_, err := prog.Result(ctx)
		return err
	})
	return applyUs / float64(len(delta)), renderUs, err
}

// routeCost registers one multi-table query with a router built like the
// DSS's, under the QoS window handleRegister would derive, and times Route.
// No workload registers queries, so nothing on the live path pays this
// today; the number exists so a later change can weigh deleting the router
// against the planner path it shortcuts. hit reports whether Route served
// plans or handed the query back to the planner.
func routeCost(r *replayer) (routeUs float64, hit bool, err error) {
	t := r.b.templates[0]
	for _, cand := range r.b.templates {
		if len(cand.Tables) >= 3 {
			t = cand
			break
		}
	}
	rt, err := router.New(router.Config{Cost: r.costs, Rates: r.b.w.Rates})
	if err != nil {
		return 0, false, err
	}
	q := core.Query{ID: "route-" + t.ID, Tables: t.Tables, BusinessValue: 1}
	sites := make([]core.SiteID, len(t.Tables))
	replicated := make([]bool, len(t.Tables))
	window := core.Duration(0)
	for i, id := range t.Tables {
		if sites[i], err = r.catalog.Placement().SiteOf(id); err != nil {
			return 0, false, err
		}
		if period, ok := r.b.w.Replicate[id]; ok {
			replicated[i] = true
			window = max(window, period.Seconds()*timeScale)
		}
	}
	if window == 0 {
		window = 1
	}
	if err := rt.Register(q, sites, replicated, window); err != nil {
		return 0, false, err
	}
	now := r.clock.Now()
	if err := r.mirror(now); err != nil {
		return 0, false, err
	}
	snap, err := r.catalog.Snapshot(q.Tables, now, plannerHorizon)
	if err != nil {
		return 0, false, err
	}
	routeUs, err = medianOf(200, func() error {
		_, hit = rt.Route(q.ID, snap, now)
		return nil
	})
	return routeUs, hit, err
}
