package main

// metricDef declares one metric: what BENCHMARK.json lists, what the
// result must carry, and how -compare judges it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening tolerated before -compare says
	// "worse"; AbsBound, when set, is an absolute tolerance instead (for a
	// metric whose healthy value is zero). Per-layer metrics have neither.
	Bound    float64
	AbsBound float64
	// NonZeroOn lists the workloads on which a zero means "nobody
	// populated it": the run fails rather than record it. "*" is all.
	NonZeroOn []string
}

var everywhere = []string{"*"}

// endToEnd are the gated metrics, reported with tracing off: what
// BENCHMARK.json lists. README.md, "Bounds and observed spread", says where
// each bound comes from.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "queries/s", Better: "higher", Bound: .25, NonZeroOn: everywhere},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: .25, NonZeroOn: everywhere},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: .25, NonZeroOn: everywhere},
	{Name: "iv_loss_pct", Unit: "%", Better: "lower", Bound: .25, NonZeroOn: everywhere},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: .25, NonZeroOn: everywhere},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: .20, NonZeroOn: everywhere},
	{Name: "alloc_kb_per_query", Unit: "KiB", Better: "lower", Bound: .05, NonZeroOn: everywhere},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: .25, NonZeroOn: everywhere},
}

// ungated are end-to-end metrics the gated run also prints and -compare
// also judges, but BENCHMARK.json cannot carry. fail_ratio's healthy value
// is exactly zero, which the driver's contract cannot bound as a share of
// a median; the contract's own failed/attempted fields carry it instead.
// peak_rss_mb (VmHWM) has an inter-quartile spread of 17-31 % between
// identical runs of replica_read, because one late GC cycle sets it (and
// the mean resident set over the window is no steadier), so no bound the
// contract allows can hold it; runtime.heap_peak_mb is its traced
// companion.
var ungated = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", AbsBound: .002},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: .25, NonZeroOn: everywhere},
}

// gatedRunMetrics is everything a gated run reports.
func gatedRunMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), ungated...)
}

var (
	remoteWorkloads = []string{"federated_read", "hybrid_write"}
	onlyFederated   = []string{"federated_read"}
	onlyBatch       = []string{"batch_mqo"}
	onlyHybrid      = []string{"hybrid_write"}
)

// perLayer are the traced run's metrics. Medians per query unless the
// README marks them [ctr] (server counter delta) or [wire] (relay).
var perLayer = []metricDef{
	{Name: "sqlmini.parse_us", Unit: "us", Better: "lower", NonZeroOn: everywhere},
	{Name: "sqlmini.exec_us", Unit: "us", Better: "lower", NonZeroOn: everywhere},
	{Name: "sqlmini.exec_allocs", Unit: "count", Better: "lower", NonZeroOn: everywhere},
	{Name: "sqlmini.exec_alloc_kb", Unit: "KiB", Better: "lower", NonZeroOn: everywhere},
	{Name: "sqlmini.pushdown_us", Unit: "us", Better: "lower", NonZeroOn: onlyFederated},
	{Name: "sqlmini.view_apply_us_per_row", Unit: "us", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "sqlmini.view_render_us", Unit: "us", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "relation.columnar_us", Unit: "us", Better: "lower", NonZeroOn: remoteWorkloads},
	{Name: "relation.clone_us", Unit: "us", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "core.plan_us", Unit: "us", Better: "lower", NonZeroOn: everywhere},
	{Name: "core.plans_evaluated", Unit: "count", Better: "lower", NonZeroOn: everywhere},
	{Name: "federation.snapshot_us", Unit: "us", Better: "lower", NonZeroOn: everywhere},
	{Name: "router.route_us", Unit: "us", Better: "lower", NonZeroOn: everywhere},
	{Name: "scheduler.form_us", Unit: "us", Better: "lower", NonZeroOn: onlyBatch},
	{Name: "scheduler.ga_ms", Unit: "ms", Better: "lower", NonZeroOn: onlyBatch},
	{Name: "scheduler.ga_evaluations", Unit: "count", Better: "lower", NonZeroOn: onlyBatch},
	{Name: "scheduler.mqo_iv_gain", Unit: "iv", Better: "higher"},
	{Name: "scheduler.workload_size_mean", Unit: "count", Better: "higher", NonZeroOn: onlyBatch},
	{Name: "netproto.encode_ns_per_row", Unit: "ns", Better: "lower", NonZeroOn: everywhere},
	{Name: "netproto.decode_ns_per_row", Unit: "ns", Better: "lower", NonZeroOn: everywhere},
	{Name: "netproto.bytes_per_row", Unit: "B", Better: "lower", NonZeroOn: everywhere},
	{Name: "netproto.ping_rtt_us", Unit: "us", Better: "lower", NonZeroOn: everywhere},
	{Name: "netproto.remote_bytes_per_query", Unit: "B", Better: "lower", NonZeroOn: remoteWorkloads},
	{Name: "netproto.client_bytes_per_query", Unit: "B", Better: "lower", NonZeroOn: everywhere},
	{Name: "netproto.remote_calls_per_query", Unit: "count", Better: "lower", NonZeroOn: remoteWorkloads},
	{Name: "server.remote_call_us", Unit: "us", Better: "lower", NonZeroOn: remoteWorkloads},
	{Name: "server.remote_exec_us", Unit: "us", Better: "lower", NonZeroOn: remoteWorkloads},
	{Name: "server.insert_us", Unit: "us", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "client.writer_lag_ms_max", Unit: "ms", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower", NonZeroOn: everywhere},
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.plan_share_replica", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_share_mixed", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_share_base", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_share_view", Unit: "ratio", Better: "higher"},
	{Name: "server.pushdown_share", Unit: "ratio", Better: "higher", NonZeroOn: onlyFederated},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.degraded_total", Unit: "count", Better: "lower"},
	{Name: "server.mqo_fallback_total", Unit: "count", Better: "lower"},
	{Name: "server.reported_cl_ms_p50", Unit: "ms", Better: "lower", NonZeroOn: everywhere},
	{Name: "server.reported_sl_ms_p50", Unit: "ms", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "replsync.delta_call_us", Unit: "us", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "replsync.sync_bytes_per_s", Unit: "B/s", Better: "lower", NonZeroOn: onlyHybrid},
	{Name: "replsync.syncs_per_s", Unit: "1/s", Better: "higher", NonZeroOn: onlyHybrid},
	{Name: "replsync.deferred_total", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower", NonZeroOn: everywhere},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower", NonZeroOn: everywhere},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.replay_coverage", Unit: "ratio", Better: "higher", NonZeroOn: everywhere},
}

func (m metricDef) mustBeNonZero(workload string) bool {
	for _, w := range m.NonZeroOn {
		if w == "*" || w == workload {
			return true
		}
	}
	return false
}
