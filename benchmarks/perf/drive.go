package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// Phases of a drive: clients run through all of them, but only operations
// that complete while the phase is measuring are recorded.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// opTimeout bounds one operation, so a hung server fails the run instead
// of hanging the benchmark past the driver's limit.
const opTimeout = 30 * time.Second

// tally is what one client recorded inside the measured window.
type tally struct {
	latMs     []float64 // one per operation (per batch on batch_mqo)
	clMs      []float64 // server-reported CL per query, wall ms
	slMs      []float64 // server-reported SL per query, wall ms
	attempted int       // queries
	completed int       // verified queries
	failed    int       // errors, shed, expired, degraded, fallbacks, mismatches
	iv, bv    float64
	firstErr  error // first failure seen, for the report
}

func (t *tally) merge(o *tally) {
	t.latMs = append(t.latMs, o.latMs...)
	t.clMs = append(t.clMs, o.clMs...)
	t.slMs = append(t.slMs, o.slMs...)
	t.attempted += o.attempted
	t.completed += o.completed
	t.failed += o.failed
	t.iv += o.iv
	t.bv += o.bv
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(n int, err error) {
	t.failed += n
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// driver runs one workload's clients against one federation.
type driver struct {
	w         workload
	f         *deployment
	templates []template
	oracle    *oracle
	seed      int64
	tracer    *tracer // nil when tracing is off

	phase       atomic.Int32
	done        atomic.Int64 // verified queries inside the window, all clients
	clientBytes atomic.Int64 // counted only when tracing
}

// reader is one closed-loop client: it owns one connection and sends its
// next operation only after the previous answer was read and checked.
func (d *driver) reader(id int, out *tally) error {
	raw, err := net.Dial("tcp", d.f.addr)
	if err != nil {
		return fmt.Errorf("client %d: %w", id, err)
	}
	defer raw.Close()
	if d.tracer != nil {
		raw = countingConn{raw, &d.clientBytes}
	}
	conn := netproto.NewConn(raw)
	ops := drawOps(d.seed, id, len(d.templates), d.w.Batch)
	for i := 0; d.phase.Load() != phaseStop; i++ {
		o := ops[i%len(ops)]
		req := d.request(o)
		if err := raw.SetDeadline(time.Now().Add(opTimeout)); err != nil {
			return fmt.Errorf("client %d: %w", id, err)
		}
		t0 := time.Now()
		werr := conn.WriteRequest(req)
		t1 := time.Now()
		var resp *netproto.Response
		var rerr error
		if werr == nil {
			resp, rerr = conn.ReadResponse()
		}
		t2 := time.Now()
		if d.phase.Load() != phaseMeasure {
			if werr != nil || rerr != nil {
				return fmt.Errorf("client %d outside the window: %v %v", id, werr, rerr)
			}
			continue
		}
		opID := int64(id)<<32 | int64(i)
		d.tracer.add(opID, "op", "", t0, t2)
		d.tracer.add(opID, "client.write", "op", t0, t1)
		d.tracer.add(opID, "client.await_read", "op", t1, t2)
		out.latMs = append(out.latMs, float64(t2.Sub(t0))/1e6)
		out.attempted += len(o)
		for _, m := range o {
			out.bv += m.BV
		}
		if werr != nil || rerr != nil {
			out.fail(len(o), fmt.Errorf("client %d: transport: %v %v", id, werr, rerr))
			return nil // the connection is gone; the rest of the window counts as lost
		}
		d.score(o, resp, out)
	}
	return nil
}

func (d *driver) request(o op) *netproto.Request {
	if d.w.Batch == 0 {
		return &netproto.Request{Kind: netproto.KindExec, SQL: d.templates[o[0].Template].SQL, BusinessValue: o[0].BV}
	}
	req := &netproto.Request{Kind: netproto.KindBatch, Batch: make([]netproto.BatchQuery, len(o))}
	for i, m := range o {
		req.Batch[i] = netproto.BatchQuery{SQL: d.templates[m.Template].SQL, BusinessValue: m.BV}
	}
	return req
}

// score verifies every answer of an operation and folds it into the tally.
func (d *driver) score(o op, resp *netproto.Response, out *tally) {
	if resp.Err != "" || resp.MQOFallback || (d.w.Batch > 0 && len(resp.Batch) != len(o)) {
		out.fail(len(o), fmt.Errorf("operation refused: err=%q expired=%v fallback=%v items=%d", resp.Err, resp.Expired, resp.MQOFallback, len(resp.Batch)))
		return
	}
	for i, m := range o {
		result, meta, errText, degraded := resp.Result, resp.Meta, resp.Err, resp.Degraded
		if d.w.Batch > 0 {
			it := resp.Batch[i]
			result, meta, errText, degraded = it.Result, it.Meta, it.Err, it.Degraded
		}
		t := d.templates[m.Template]
		switch {
		case errText != "":
			out.fail(1, fmt.Errorf("%s: %s", t.ID, errText))
		case degraded || meta == nil || meta.Degraded:
			out.fail(1, fmt.Errorf("%s: degraded or missing report meta", t.ID))
		default:
			if err := d.oracle.check(t, m.Template, result, !(d.w.Writer && t.ReadsLineitem)); err != nil {
				out.fail(1, fmt.Errorf("oracle mismatch: %s: %w", t.ID, err))
				continue
			}
			out.completed++
			d.done.Add(1)
			out.iv += meta.Value
			out.clMs = append(out.clMs, meta.CLMinutes/timeScale*1000)
			out.slMs = append(out.slMs, meta.SLMinutes/timeScale*1000)
		}
	}
}

// writerStats is the load generator's own health on hybrid_write.
type writerStats struct {
	insertUs []float64 // round trip measured from the due time
	lagMsMax float64   // how late the writer ran at worst
	sent     int
}

// writer is the paced open-loop client: one KindInsert of writerRows rows
// to site 2 every writerPeriod, each timed from when it was due. It runs
// from the start of warm-up to the end of the window, so lineitem grows by
// the same amount on every commit.
func (d *driver) writer(inserts [][]relation.Row, out *writerStats) error {
	conn, err := netproto.Dial(d.f.siteAddrs[1], 5*time.Second)
	if err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	defer conn.Close()
	conn.SetTimeout(opTimeout)
	start := time.Now()
	for i := 0; i < len(inserts) && d.phase.Load() != phaseStop; i++ {
		due := start.Add(time.Duration(i) * writerPeriod)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		begin := time.Now()
		resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindInsert, Table: tpch.LineItem, Rows: inserts[i]})
		if err == nil {
			err = resp.ErrOrNil()
		}
		if err != nil {
			return fmt.Errorf("writer insert %d: %w", i, err)
		}
		out.sent++
		if d.phase.Load() == phaseMeasure {
			out.insertUs = append(out.insertUs, float64(time.Since(due))/1e3)
			out.lagMsMax = max(out.lagMsMax, float64(begin.Sub(due))/1e6)
		}
	}
	return nil
}

// procSnapshot is the whole-process accounting read at the window's edges.
type procSnapshot struct {
	at        time.Time
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	// gcCPU and busyCPU are the runtime's own CPU accounting, in seconds:
	// time spent collecting, and total non-idle time.
	gcCPU, busyCPU float64
	// Wire counters, moving only on a traced (relayed, counted) pass.
	remoteBytes, clientBytes int64
}

// windowResult is everything one drive measured.
type windowResult struct {
	tally
	window     time.Duration
	begin, end procSnapshot
	writer     writerStats
	// metricsBegin/End are KindMetrics scrapes at the window's edges.
	metricsBegin, metricsEnd map[string]float64
	// heapPeak is the largest live-heap reading inside the window, bytes.
	heapPeak uint64
}

// sampleHeap polls the live heap until the window ends and returns its
// peak in bytes. Reading runtime/metrics stops nothing, so sampling does
// not disturb the run.
func (d *driver) sampleHeap() uint64 {
	var peak uint64
	for d.phase.Load() == phaseMeasure {
		peak = max(peak, heapObjectsBytes())
		time.Sleep(50 * time.Millisecond)
	}
	return peak
}

// drive runs warm-up then the measured window and returns what the
// clients and the process accounting saw. Every goroutine it starts has
// exited when it returns.
func (d *driver) drive(warmup, window time.Duration, lineitem *relation.Table) (*windowResult, error) {
	res := &windowResult{window: window}
	tallies := make([]tally, d.w.Readers)
	errs := make(chan error, d.w.Readers+1) // one slot per client, so none blocks on exit
	var wg sync.WaitGroup
	for id := 0; id < d.w.Readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- d.reader(id, &tallies[id])
		}(id)
	}
	if d.w.Writer {
		inserts := drawWriterRows(d.seed, lineitem, int((warmup+window)/writerPeriod)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- d.writer(inserts, &res.writer)
		}()
	}

	time.Sleep(warmup)
	var err error
	if res.metricsBegin, err = d.f.metrics(); err == nil {
		res.begin = d.edge()
		d.phase.Store(phaseMeasure)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.heapPeak = d.sampleHeap()
		}()
		time.Sleep(window)
		res.end = d.edge()
		res.metricsEnd, err = d.f.metrics()
	}
	d.phase.Store(phaseStop)
	wg.Wait()
	close(errs)
	for cerr := range errs {
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res.window = res.end.at.Sub(res.begin.at)
	for i := range tallies {
		res.merge(&tallies[i])
	}
	return res, nil
}

// edge reads the process and wire accounting at a window edge.
func (d *driver) edge() procSnapshot {
	snap := readProc()
	for _, r := range d.f.relays {
		if r != nil {
			snap.remoteBytes += r.bytes()
		}
	}
	snap.clientBytes = d.clientBytes.Load()
	return snap
}

// converge is hybrid_write's post-run check: with the writer stopped, the
// replicas and views must catch up with site 2 within a few sync periods,
// after which Q1 and Q6 through the DSS equal the reference engine's
// answer over site 2's final lineitem.
func (d *driver) converge(ctx context.Context, generated map[string]*relation.Table) error {
	resp, err := netproto.Call(d.f.siteAddrs[1], &netproto.Request{Kind: netproto.KindScan, Table: tpch.LineItem}, opTimeout)
	if err != nil {
		return fmt.Errorf("scan final lineitem: %w", err)
	}
	final := make(map[string]*relation.Table, len(generated))
	for name, t := range generated {
		final[name] = t
	}
	final[tpch.LineItem] = resp.Result
	cat := sqlmini.NewMapCatalog(final)

	var checks []template
	var wants []*relation.Table
	for _, t := range d.templates {
		if t.ID != "Q1" && t.ID != "Q6" {
			continue
		}
		want, err := sqlmini.ExecuteWith(ctx, t.Stmt, cat, sqlmini.Options{Engine: sqlmini.EngineTreeWalk})
		if err != nil {
			return fmt.Errorf("oracle %s over final lineitem: %w", t.ID, err)
		}
		checks, wants = append(checks, t), append(wants, want)
	}

	// Two periods is the wait the benchmark defines; up to four more are
	// tolerated (a cycle that was in flight when the writer stopped can
	// cost one) before a replica or view that never converges fails the run.
	const minPeriods, maxPeriods = 2, 6
	var last error
	for waited := 1; waited <= maxPeriods; waited++ {
		time.Sleep(d.w.syncPeriod())
		if waited < minPeriods {
			continue
		}
		last = nil
		for i, t := range checks {
			got, err := netproto.Call(d.f.addr, &netproto.Request{Kind: netproto.KindExec, SQL: t.SQL, BusinessValue: 1}, opTimeout)
			if err != nil {
				return fmt.Errorf("post-write %s: %w", t.ID, err)
			}
			if err := sameAnswer(wants[i], got.Result, len(t.Stmt.OrderBy) > 0); err != nil {
				last = fmt.Errorf("post-write %s after %d sync periods: %w", t.ID, waited, err)
			}
		}
		if last == nil {
			return nil
		}
	}
	return last
}
