package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/replication"
	"ivdss/internal/scheduler"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// The layer replay walks operations through each layer's public functions
// in the order DSSServer.runOne calls them, on one goroutine, recording a
// span per call. It measures the layers from outside: spans inside the
// program are a later change. What it cannot see — admission, the engine's
// queue, two clients sharing two cores — is exactly the gap
// trace.replay_coverage reports.

// plannerHorizon is DSSConfig.PlannerHorizon's default, in minutes.
const plannerHorizon = 30

// mirroredSyncs is how many upcoming syncs the sync agent mirrors into the
// replication manager (replsync's default); the replay's model of an
// on-time agent mirrors the same number.
const mirroredSyncs = 4

// replayer owns the replay's private copy of the DSS's planning and
// execution state, built from the same public constructors.
type replayer struct {
	b  *bench
	f  *deployment
	tr *tracer

	clock   *scheduler.WallClock
	manager *replication.Manager
	catalog *federation.Catalog
	costs   *costmodel.CalibratedModel
	planner *core.Planner
	pool    *netproto.Pool
	opts    sqlmini.Options
	// local holds the replay's replicas; views its materialized answers,
	// keyed by the template they answer.
	local map[string]*relation.Table
	views map[core.ViewID]*relation.Table
	// synced is each sync unit's last mirrored completion, in minutes.
	synced map[core.TableID]core.Time
	epoch  core.Time
	pair   *connPair
	gaSeq  int64

	samples map[string][]float64
	// fragments are the remote fragments seen, re-run locally after the
	// operation so their cost stays out of its spans.
	fragments []fragment
}

type fragment struct {
	site int
	sql  string // "" = whole-table scan
}

func (r *replayer) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

func newReplayer(ctx context.Context, b *bench, f *deployment, tr *tracer) (*replayer, error) {
	siteOf := make(map[core.TableID]core.SiteID)
	for i, names := range siteTables {
		for _, name := range names {
			siteOf[core.TableID(name)] = core.SiteID(i + 1)
		}
	}
	placement, err := federation.NewPlacement(siteOf)
	if err != nil {
		return nil, err
	}
	r := &replayer{b: b, f: f, tr: tr,
		clock:   scheduler.NewWallClock(timeScale),
		manager: replication.NewManager(),
		pool:    netproto.NewPool(5*time.Second, opTimeout),
		opts:    sqlmini.Options{Cache: sqlmini.NewExecCache()},
		local:   make(map[string]*relation.Table),
		views:   make(map[core.ViewID]*relation.Table),
		synced:  make(map[core.TableID]core.Time),
		samples: make(map[string][]float64),
	}
	for id := range b.w.Replicate {
		if err := r.manager.Register(id, replication.Schedule{}); err != nil {
			return nil, err
		}
		// The replica is the site's current table: after a writer ran, its
		// final contents, as a caught-up replica would hold.
		site := siteOf[id] - 1
		r.local[string(id)] = f.tables[site][string(id)].Clone()
	}
	if r.catalog, err = federation.NewCatalog(placement, r.manager); err != nil {
		return nil, err
	}
	for _, id := range b.w.Views {
		q, err := tpch.QueryByID(id)
		if err != nil {
			return nil, err
		}
		stmt, err := sqlmini.Parse(q.SQL)
		if err != nil {
			return nil, err
		}
		vid := core.ViewID("v-" + id)
		if err := r.catalog.RegisterView(core.ViewDef{ID: vid, QueryID: id, Table: tpch.LineItem, SQL: q.SQL}); err != nil {
			return nil, err
		}
		if err := r.manager.Register(core.ViewUnit(vid), replication.Schedule{}); err != nil {
			return nil, err
		}
		base := f.tables[1][tpch.LineItem]
		prog, err := sqlmini.CompileView(stmt, base.Schema)
		if err != nil {
			return nil, err
		}
		if err := prog.Apply(ctx, base.Rows); err != nil {
			return nil, err
		}
		if r.views[vid], err = prog.Result(ctx); err != nil {
			return nil, err
		}
	}
	// The cost model the DSS builds in NewDSSServer, constants included.
	if r.costs, err = costmodel.NewCalibratedModel(&costmodel.CountModel{LocalProcess: .02, PerBaseTable: .05, TransmitFlat: .02}); err != nil {
		return nil, err
	}
	if r.planner, err = core.NewPlanner(r.costs, core.PlannerConfig{Rates: b.w.Rates, Horizon: plannerHorizon}); err != nil {
		return nil, err
	}
	if r.pair, err = newConnPair(); err != nil {
		return nil, err
	}
	r.epoch = r.clock.Now()
	return r, nil
}

func (r *replayer) Close() {
	_ = r.pool.Close() // idle connections only; nothing to report
	r.pair.Close()
}

// mirror models an on-time sync agent: every unit's completions land on
// its period grid, and the next few are mirrored as the agent does.
func (r *replayer) mirror(now core.Time) error {
	sync := func(unit core.TableID, period core.Duration) error {
		last := r.epoch + math.Floor((now-r.epoch)/period)*period
		if prev, ok := r.synced[unit]; ok && prev >= last {
			return nil
		}
		r.synced[unit] = last
		if err := r.manager.RecordSync(unit, last); err != nil {
			return err
		}
		future := make([]core.Time, mirroredSyncs)
		for i := range future {
			future[i] = last + core.Time(i+1)*period
		}
		return r.manager.Reschedule(unit, future)
	}
	for id, p := range r.b.w.Replicate {
		if err := sync(id, p.Seconds()*timeScale); err != nil {
			return err
		}
	}
	for vid := range r.views {
		if err := sync(core.ViewUnit(vid), timeScale); err != nil { // views refresh every second
			return err
		}
	}
	return nil
}

// layer runs fn as one layer span of the operation and, when metric is
// named, samples its duration in microseconds under that name.
func (r *replayer) layer(id int64, span, metric string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.tr.add(id, span, "op", start, end)
	if metric != "" {
		r.sample(metric, us(end.Sub(start)))
	}
	return end.Sub(start), err
}

// query walks one parsed query to its result table, as runOne would.
func (r *replayer) query(ctx context.Context, id int64, t template, bv float64, submit core.Time, stmt *sqlmini.SelectStmt) (*relation.Table, error) {
	q := core.Query{ID: t.ID, Tables: t.Tables, BusinessValue: bv, SubmitAt: submit}
	now := r.clock.Now()
	if err := r.mirror(now); err != nil {
		return nil, err
	}
	var snap []core.TableState
	if _, err := r.layer(id, "federation.snapshot", "federation.snapshot_us", func() (err error) {
		snap, err = r.catalog.Snapshot(q.Tables, now, plannerHorizon)
		return err
	}); err != nil {
		return nil, err
	}
	var plan core.Plan
	var stats core.SearchStats
	if _, err := r.layer(id, "core.plan", "core.plan_us", func() (err error) {
		plan, stats, err = r.planner.Best(q, snap, now)
		return err
	}); err != nil {
		return nil, err
	}
	r.sample("core.plans_evaluated", float64(stats.PlansEvaluated))

	if delay := r.clock.WallDelay(plan.Start - r.clock.Now()); delay > 0 {
		// A delayed plan waits for its sync, as runOne honours it.
		_, _ = r.layer(id, "core.plan_delay", "", func() error { time.Sleep(delay); return nil })
	}

	var out *relation.Table
	if va, ok := plan.ViewAccess(); ok {
		out = r.views[va.View]
	} else {
		cat := make(sqlmini.MapCatalog, len(plan.Access))
		for _, a := range plan.Access {
			if a.Kind == core.AccessReplica {
				cat.Add(string(a.Table), r.local[string(a.Table)])
				continue
			}
			req := &netproto.Request{Kind: netproto.KindScan, Table: string(a.Table)}
			frag := fragment{site: int(a.Site) - 1}
			_, _ = r.layer(id, "sqlmini.pushdown", "sqlmini.pushdown_us", func() error {
				if sql, ok := sqlmini.PushdownFor(stmt, string(a.Table)); ok {
					req = &netproto.Request{Kind: netproto.KindExec, SQL: sql}
					frag.sql = sql
				}
				return nil
			})
			var resp *netproto.Response
			if _, err := r.layer(id, "server.remote_call", "server.remote_call_us", func() (err error) {
				resp, err = r.pool.CallContext(ctx, r.f.siteAddrs[frag.site], req)
				if err == nil {
					err = resp.ErrOrNil()
				}
				return err
			}); err != nil {
				return nil, fmt.Errorf("replay %s: site %d: %w", t.ID, a.Site, err)
			}
			r.fragments = append(r.fragments, frag)
			resp.Result.Name = string(a.Table)
			cat.Add(string(a.Table), resp.Result)
		}
		// The two MemStats reads sit outside the span: they stop the world.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.layer(id, "sqlmini.exec", "sqlmini.exec_us", func() (err error) {
			out, err = sqlmini.ExecuteWith(ctx, stmt, cat, r.opts)
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", t.ID, err)
		}
		r.sample("sqlmini.exec_allocs", float64(after.Mallocs-before.Mallocs))
		r.sample("sqlmini.exec_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	// Online calibration, as runOne does, so later plans see measured costs.
	r.costs.RecordAccess(q.ID, plan.Access, core.CostEstimate{Process: r.clock.Now() - plan.Start})
	return out, nil
}

func (r *replayer) parse(id int64, t template) (*sqlmini.SelectStmt, error) {
	var stmt *sqlmini.SelectStmt
	_, err := r.layer(id, "sqlmini.parse", "sqlmini.parse_us", func() (err error) {
		stmt, err = sqlmini.Parse(t.SQL)
		return err
	})
	return stmt, err
}

func (r *replayer) respond(id int64, resp *netproto.Response) error {
	_, err := r.layer(id, "netproto.respond", "", func() error { return r.pair.send(resp) })
	return err
}

// single replays one KindExec operation.
func (r *replayer) single(ctx context.Context, id int64, m member) error {
	t := r.b.templates[m.Template]
	stmt, err := r.parse(id, t)
	if err != nil {
		return err
	}
	out, err := r.query(ctx, id, t, m.BV, r.clock.Now(), stmt)
	if err != nil {
		return err
	}
	return r.respond(id, &netproto.Response{Result: out, Meta: &netproto.ReportMeta{}})
}

// batch replays one KindBatch operation the way submitBatch and the
// engine's formation do: parse all, derive ranges, form workloads,
// GA-order each, run members in that order, answer once.
func (r *replayer) batch(ctx context.Context, id int64, o op) error {
	stmts := make([]*sqlmini.SelectStmt, len(o))
	queries := make([]core.Query, len(o))
	submit := r.clock.Now()
	for i, m := range o {
		t := r.b.templates[m.Template]
		stmt, err := r.parse(id, t)
		if err != nil {
			return err
		}
		stmts[i] = stmt
		queries[i] = core.Query{ID: t.ID, Tables: t.Tables, BusinessValue: m.BV, SubmitAt: submit}
	}
	if err := r.mirror(submit); err != nil {
		return err
	}
	ev := &scheduler.Evaluator{Planner: r.planner, Catalog: r.catalog, Horizon: plannerHorizon}
	var formed []scheduler.Workload
	if _, err := r.layer(id, "scheduler.form", "scheduler.form_us", func() error {
		widths, err := scheduler.PlanRanges(queries, ev, 1e6)
		if err != nil {
			return err
		}
		formed, err = scheduler.FormWorkloads(queries, widths)
		return err
	}); err != nil {
		return err
	}

	var order []int
	var gaTime time.Duration
	evaluations := 0
	for _, wl := range formed {
		if len(wl.Indices) == 1 {
			order = append(order, wl.Indices[0])
			continue
		}
		group := make([]core.Query, len(wl.Indices))
		for j, qi := range wl.Indices {
			group[j] = queries[qi]
		}
		now := r.clock.Now()
		r.gaSeq++
		var local []int
		d, err := r.layer(id, "scheduler.ga", "", func() error {
			var st scheduler.GAStats
			var err error
			local, _, st, err = scheduler.OptimizeOrder(len(group), func(order []int) (float64, error) {
				res, err := ev.RunSequence(group, order, now)
				return res.TotalValue, err
			}, scheduler.GAConfig{Seed: r.gaSeq})
			evaluations += st.Evaluations
			return err
		})
		if err != nil {
			return err
		}
		gaTime += d
		for _, l := range local {
			order = append(order, wl.Indices[l])
		}
	}
	r.sample("scheduler.ga_ms", float64(gaTime)/1e6)
	r.sample("scheduler.ga_evaluations", float64(evaluations))

	items := make([]netproto.BatchItem, len(o))
	for _, i := range order {
		out, err := r.query(ctx, id, r.b.templates[o[i].Template], o[i].BV, submit, stmts[i])
		if err != nil {
			return err
		}
		items[i] = netproto.BatchItem{Result: out, Meta: &netproto.ReportMeta{}}
	}
	return r.respond(id, &netproto.Response{Batch: items})
}

// replayIDBase puts replay operation IDs above any client's.
const replayIDBase = int64(1) << 40

// run replays the first n operations of client 0's sequence, each under a
// root span. Afterwards it re-runs the remote fragments it saw over the
// sites' own tables, for server.remote_exec_us.
func (r *replayer) run(ctx context.Context, seed int64, n int) error {
	ops := drawOps(seed, 0, len(r.b.templates), r.b.w.Batch)
	for i := 0; i < n; i++ {
		id := replayIDBase | int64(i)
		start := time.Now()
		var err error
		if r.b.w.Batch > 0 {
			err = r.batch(ctx, id, ops[i])
		} else {
			err = r.single(ctx, id, ops[i][0])
		}
		if err != nil {
			return err
		}
		r.tr.add(id, "op", "", start, time.Now())
	}
	for _, frag := range r.fragments {
		if frag.sql == "" {
			continue // a scan executes nothing at the site
		}
		cat := sqlmini.NewMapCatalog(r.f.tables[frag.site])
		start := time.Now()
		if _, err := sqlmini.RunWith(ctx, frag.sql, cat, sqlmini.Options{}); err != nil {
			return fmt.Errorf("replay fragment %q: %w", frag.sql, err)
		}
		r.sample("server.remote_exec_us", us(time.Since(start)))
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// connPair is a loopback TCP connection with a netproto.Conn on each end:
// the stage that encodes a response, moves it and decodes it.
type connPair struct {
	server, client *netproto.Conn
}

func newConnPair() (*connPair, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	srv, err := l.Accept()
	if err != nil {
		client.Close()
		return nil, err
	}
	return &connPair{server: netproto.NewConn(srv), client: netproto.NewConn(client)}, nil
}

// send writes the response on one end while the other end reads it.
func (p *connPair) send(resp *netproto.Response) error {
	read := make(chan error, 1)
	go func() {
		_, err := p.client.ReadResponse()
		read <- err
	}()
	werr := p.server.WriteResponse(resp)
	if werr != nil {
		p.client.Close() // unblock the reader
	}
	if rerr := <-read; werr == nil {
		werr = rerr
	}
	return werr
}

func (p *connPair) Close() {
	p.server.Close()
	p.client.Close()
}
