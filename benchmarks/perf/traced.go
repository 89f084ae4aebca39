package main

import (
	"context"
	"fmt"
	"time"

	"ivdss/internal/tpch"
)

// runTraced is the traced run, separate from the gated one and never
// compared with a bound. It makes three passes over the same seed:
//
//  1. reference: the gated loop as is, for the latency and rate the
//     other two passes are compared with;
//  2. boundary: the same loop with byte-counting relays between the DSS
//     and each remote, counted client connections, client-side spans and
//     counter scrapes at the window's edges;
//  3. layer replay plus the fixed-input layer measures.
func runTraced(ctx context.Context, w workload, p runParams, traceOut string) (*runResult, error) {
	b, err := prepare(ctx, w)
	if err != nil {
		return nil, err
	}
	p.window = min(p.window, time.Duration(traceWindowSeconds*float64(time.Second)))
	lineitem := b.tables[tpch.LineItem]

	ref, err := b.pass(p)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}

	tr := newTracer()
	f, _, err := b.start(true)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := &driver{w: w, f: f, templates: b.templates, oracle: b.oracle, seed: p.seed, tracer: tr}
	win, err := d.drive(p.warmup, p.window, lineitem)
	if err != nil {
		return nil, fmt.Errorf("boundary pass: %w", err)
	}
	if win.completed == 0 || ref.completed == 0 {
		return nil, fmt.Errorf("no verified query completed (first failure: %v / %v)", ref.firstErr, win.firstErr)
	}

	res := &runResult{Workload: w.Name, Seed: p.seed, Trace: true, WarmupS: p.warmup.Seconds(), WindowS: win.window.Seconds(), Env: readEnvironment()}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.Correct = win.failed == 0
	if win.firstErr != nil {
		res.FirstFailure = win.firstErr.Error()
	}
	boundaryMetrics(res, w, win)
	refQPS := float64(ref.completed) / ref.window.Seconds()
	res.set("trace.overhead_pct", 100*(1-float64(win.completed)/win.window.Seconds()/refQPS), ref.completed)

	if err := replayMetrics(ctx, res, b, f, tr, p, percentile(ref.latMs, 50)); err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

// pass runs one untraced drive on a fresh federation and tears it down.
func (b *bench) pass(p runParams) (*windowResult, error) {
	f, _, err := b.start(false)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := &driver{w: b.w, f: f, templates: b.templates, oracle: b.oracle, seed: p.seed}
	return d.drive(p.warmup, p.window, b.tables[tpch.LineItem])
}

// boundaryMetrics fills the metrics measured at the boundaries of the live
// run: relays, counted client connections, server counter deltas, report
// meta and the runtime's own accounting.
func boundaryMetrics(res *runResult, w workload, win *windowResult) {
	done := float64(win.completed)
	seconds := win.window.Seconds()
	delta := func(name string) float64 { return win.metricsEnd[name] - win.metricsBegin[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	res.set("netproto.remote_bytes_per_query", float64(win.end.remoteBytes-win.begin.remoteBytes)/done, win.completed)
	res.set("netproto.client_bytes_per_query", float64(win.end.clientBytes-win.begin.clientBytes)/done, win.completed)
	calls := delta("remote_calls_total")
	res.set("netproto.remote_calls_per_query", calls/done, win.completed)
	res.set("server.pushdown_share", ratio(delta("pushdowns_total"), calls), int(calls))

	replica, mixed := delta("plans_all_replica_total"), delta("plans_mixed_total")
	base, view := delta("plans_all_base_total"), delta("plans_view_total")
	plans := replica + mixed + base + view
	res.set("server.plan_share_replica", ratio(replica, plans), int(plans))
	res.set("server.plan_share_mixed", ratio(mixed, plans), int(plans))
	res.set("server.plan_share_base", ratio(base, plans), int(plans))
	res.set("server.plan_share_view", ratio(view, plans), int(plans))

	res.set("server.shed_total", delta("queries_shed_total"), 0)
	res.set("server.degraded_total", delta("degraded_answers_total"), 0)
	res.set("server.mqo_fallback_total", delta("mqo_fallback_total"), 0)
	formed := delta("workload_size_count")
	res.set("scheduler.workload_size_mean", ratio(delta("workload_size_sum"), formed), int(formed))
	res.set("scheduler.mqo_iv_gain", ratio(delta("mqo_iv_gain_sum"), delta("mqo_iv_gain_count")), int(delta("mqo_iv_gain_count")))

	res.set("server.reported_cl_ms_p50", percentile(win.clMs, 50), len(win.clMs))
	res.set("server.reported_sl_ms_p50", percentile(win.slMs, 50), len(win.slMs))
	res.set("client.lat_p99_ms", percentile(win.latMs, 99), len(win.latMs))
	res.set("client.fail_ratio", float64(win.failed)/float64(win.attempted), win.attempted)

	res.set("replsync.sync_bytes_per_s", delta("sync_bytes_total")/seconds, 0)
	res.set("replsync.syncs_per_s", delta("syncs_total")/seconds, int(delta("syncs_total")))
	res.set("replsync.deferred_total", delta("sync_deferred_total"), 0)

	res.set("runtime.gc_cpu_share", ratio(win.end.gcCPU-win.begin.gcCPU, win.end.busyCPU-win.begin.busyCPU), 0)
	res.set("runtime.heap_peak_mb", float64(win.heapPeak)/(1<<20), 0)

	if w.Writer {
		res.set("server.insert_us", median(win.writer.insertUs), len(win.writer.insertUs))
		// A writer that was never late still has a lag; floor it at one
		// microsecond so "zero" keeps meaning "not measured".
		res.set("client.writer_lag_ms_max", max(win.writer.lagMsMax, .001), len(win.writer.insertUs))
	} else {
		res.set("server.insert_us", 0, 0)
		res.set("client.writer_lag_ms_max", 0, 0)
	}
}

// replayMetrics runs the layer replay and the fixed-input measures against
// the still-running boundary federation (its writer has stopped) and fills
// the remaining per-layer metrics.
func replayMetrics(ctx context.Context, res *runResult, b *bench, f *deployment, tr *tracer, p runParams, refP50 float64) error {
	r, err := newReplayer(ctx, b, f, tr)
	if err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	defer r.Close()
	n := replayOps
	if b.w.Batch > 0 {
		n = replayBatches
	}
	if p.quick {
		n /= 10
	}
	if err := r.run(ctx, p.seed, n); err != nil {
		return err
	}
	for _, name := range []string{
		"sqlmini.parse_us", "sqlmini.exec_us", "sqlmini.exec_allocs", "sqlmini.exec_alloc_kb", "sqlmini.pushdown_us",
		"core.plan_us", "core.plans_evaluated", "federation.snapshot_us",
		"scheduler.form_us", "scheduler.ga_ms", "scheduler.ga_evaluations",
		"server.remote_call_us", "server.remote_exec_us",
	} {
		xs := r.samples[name]
		if len(xs) == 0 {
			res.set(name, 0, 0) // the workload never ran this layer
			continue
		}
		res.set(name, median(xs), len(xs))
	}
	// Coverage: per replayed operation, the self times of its layer spans
	// (everything but the root) summed, against the live median latency.
	var sums []float64
	for id, self := range selfTimes(tr.spans) {
		if id < replayIDBase {
			continue // a boundary-pass operation
		}
		var ns int64
		for name, t := range self {
			if name != "op" {
				ns += t
			}
		}
		sums = append(sums, float64(ns)/1e6)
	}
	coverage := median(sums) / refP50
	res.set("trace.replay_coverage", coverage, len(sums))
	if coverage < .7 || coverage > 1.3 {
		res.Notes = append(res.Notes, fmt.Sprintf("trace.replay_coverage %.2f is outside 0.7-1.3: see README, 'Reading replay coverage'", coverage))
	}

	site2 := f.tables[1]
	lineitem := site2[tpch.LineItem]
	enc, dec, perRow, err := codecCost(ctx, lineitem, b.templates)
	if err != nil {
		return err
	}
	res.set("netproto.encode_ns_per_row", enc, microReps)
	res.set("netproto.decode_ns_per_row", dec, microReps)
	res.set("netproto.bytes_per_row", perRow, microReps)
	rtt, err := pingRTT(ctx, r.pool, f.siteAddrs[0])
	if err != nil {
		return err
	}
	res.set("netproto.ping_rtt_us", rtt, 200)
	route, hit, err := routeCost(r)
	if err != nil {
		return err
	}
	res.set("router.route_us", route, 200)
	if !hit {
		res.Notes = append(res.Notes, "router.route_us timed a refusal: Route handed the query back to the planner")
	}

	// Layers only a workload with remote reads or moving data runs in its
	// steady state; zero elsewhere by definition.
	for _, name := range []string{"relation.columnar_us", "relation.clone_us", "sqlmini.view_apply_us_per_row", "sqlmini.view_render_us", "replsync.delta_call_us"} {
		res.set(name, 0, 0)
	}
	if b.w.Writer || len(b.w.Replicate) < len(tpch.TableNames()) {
		columnar, err := columnarCost(lineitem)
		if err != nil {
			return err
		}
		res.set("relation.columnar_us", columnar, microReps)
	}
	if b.w.Writer {
		clone, err := cloneCost(lineitem)
		if err != nil {
			return err
		}
		apply, render, err := viewCost(ctx, lineitem)
		if err != nil {
			return err
		}
		deltaCall, err := deltaCallCost(ctx, r.pool, f.siteAddrs[1], lineitem.NumRows())
		if err != nil {
			return err
		}
		res.set("relation.clone_us", clone, microReps)
		res.set("sqlmini.view_apply_us_per_row", apply, microReps)
		res.set("sqlmini.view_render_us", render, microReps)
		res.set("replsync.delta_call_us", deltaCall, deltaCallReps)
	}
	return nil
}
