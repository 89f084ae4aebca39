// Command ivqp-workload drives a query stream at a live DSS or DSS cluster
// and reports measured information-value statistics — the load-generator
// side of a live deployment experiment.
//
//	# remotes seeded with TPC-H (see ivqp-remote), DSS on :7100
//	ivqp-workload -addr 127.0.0.1:7100 -n 60 -mean 300ms \
//	    -queries Q1,Q3,Q6,Q13,Q22 -value 1.0 -seed 1
//
// The stream (arrival offsets with exponential gaps, a template, business
// value and tenant per arrival) is drawn up front from the seed and offered
// open-loop: every arrival fires at its scheduled offset and never waits
// for earlier responses, so the offered rate stays fixed while the server
// saturates; when service is faster than the gaps this is a sequential
// replay. The summary reports the IV, CL and SL the DSS measured, the
// client-side latency from each arrival's *intended* send time, and the
// plan mix.
//
// Several comma-separated addresses in -addr (shard-ID order, see ivqp-dss
// -shards) route each arrival client-side with the cluster.ShardMap the
// shards assume: its table footprint picks the shard, so overlapping
// queries land together and micro-batch MQO stays effective. -tenants
// hash-assigns every arrival a tenant for weighted fair shedding.
//
// With -scenario the stream is a named preset from the scenario matrix
// (ivqp-bench -fig scenario): its seeded arrival process sets the offsets
// (scaled to wall time by -timescale), its horizon mix the business values,
// and each synthetic query maps deterministically onto a TPC-H template —
// the same open arrivals the DES benched. Outage storms replay through
// fault proxies declared with repeated -outage-proxy site=listen=target
// flags (point the DSS's -remote at the listen addresses); without them an
// outage scenario refuses to run rather than silently skip the storms.
//
//	ivqp-workload -addr 127.0.0.1:7100 -scenario outage-storm -timescale 10 \
//	    -outage-proxy 1=127.0.0.1:7201=127.0.0.1:7101
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/netproto"
	"ivdss/internal/stats"
	"ivdss/internal/synth"
	"ivdss/internal/tpch"
)

// proxyFlags accumulates repeated -outage-proxy site=listen=target flags.
type proxyFlags map[core.SiteID]proxySpec

type proxySpec struct{ listen, target string }

func (p proxyFlags) String() string { return fmt.Sprintf("%v", map[core.SiteID]proxySpec(p)) }

func (p proxyFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) != 3 {
		return fmt.Errorf("want site=listen=target, got %q", v)
	}
	var site int
	if _, err := fmt.Sscanf(parts[0], "%d", &site); err != nil || site < 1 {
		return fmt.Errorf("invalid site id %q", parts[0])
	}
	p[core.SiteID(site)] = proxySpec{listen: parts[1], target: parts[2]}
	return nil
}

func main() {
	if err := cli(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ivqp-workload:", err)
		os.Exit(1)
	}
}

// cli declares the flags on fs, parses args and runs the selected stream.
func cli(fs *flag.FlagSet, args []string) error {
	addr := fs.String("addr", "127.0.0.1:7100", "DSS address; several comma-separated addresses in shard-ID order route each arrival client-side by the cluster shard map")
	n := fs.Int("n", 30, "number of arrivals to offer")
	mean := fs.Duration("mean", 300*time.Millisecond, "mean interarrival gap (open loop: arrivals never wait for earlier responses)")
	queries := fs.String("queries", "Q1,Q6,Q13,Q22", "comma-separated TPC-H template IDs arrivals draw from")
	value := fs.Float64("value", 1, "business value per report")
	seed := fs.Int64("seed", 1, "arrival-schedule and template-choice seed")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-query wall-clock deadline (0 = no deadline)")
	epsilon := fs.Float64("epsilon", 0, "tighten the per-query deadline to the value horizon: give up once IV would fall below this (0 = off)")
	lambdaCL := fs.Float64("lambda-cl", .01, "computational-latency discount rate used for the -epsilon horizon")
	timescale := fs.Float64("timescale", 1.0/60, "experiment minutes per wall second for the -epsilon horizon and -scenario replay (must match the server)")
	tenants := fs.String("tenants", "", "comma-separated tenant names: each arrival is hash-assigned one and carries it to the cluster's weighted fair shedding")
	scenario := fs.String("scenario", "", "offer this named scenario preset instead of the -n/-mean/-queries stream")
	proxies := proxyFlags{}
	fs.Var(proxies, "outage-proxy", "host a fault proxy for one remote site as site=listen=target (repeatable; used by outage scenarios)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	addrs, tenantNames := splitList(*addr), splitList(*tenants)
	if *scenario != "" {
		return runScenario(addrs, *scenario, *seed, *timescale, *timeout, tenantNames, proxies)
	}
	deadline, err := core.ClientDeadline(*timeout, *epsilon, *value, *lambdaCL, *timescale)
	if err != nil {
		return err
	}
	stream, err := poissonStream(*n, *mean, *queries, *value, *seed, tenantNames)
	if err != nil {
		return err
	}
	return offer(os.Stdout, addrs, stream, deadline)
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(spec string) []string {
	var out []string
	for _, item := range strings.Split(spec, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// template is one arrival choice: the SQL plus the table footprint the
// shard map routes by.
type template struct {
	q      tpch.Query
	tables []core.TableID
}

// loadTemplates derives the queries' footprints.
func loadTemplates(qs []tpch.Query) ([]template, error) {
	out := make([]template, len(qs))
	for i, q := range qs {
		names, err := q.Tables()
		if err != nil {
			return nil, err
		}
		out[i].q = q
		for _, name := range names {
			out[i].tables = append(out[i].tables, core.TableID(name))
		}
	}
	return out, nil
}

// arrival is one query of the materialized stream.
type arrival struct {
	at     time.Duration // intended send time, as an offset from the run's start
	tmpl   *template
	value  float64
	tenant string
}

// tenantOf hash-assigns arrival i a tenant ("" when none are configured).
func tenantOf(tenants []string, i int) string {
	if len(tenants) == 0 {
		return ""
	}
	return tenants[stats.FNV1a(fmt.Sprintf("arrival:%d", i))%uint64(len(tenants))]
}

// poissonStream materializes n arrivals with exponential gaps, each a
// seeded draw from the listed templates.
func poissonStream(n int, mean time.Duration, queryList string, value float64, seed int64, tenants []string) ([]arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("need a positive arrival count")
	}
	var qs []tpch.Query
	for _, id := range splitList(queryList) {
		q, err := tpch.QueryByID(id)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("no query templates selected")
	}
	templates, err := loadTemplates(qs)
	if err != nil {
		return nil, err
	}
	// Draw order (gap, then template, per arrival) is preserved so a given
	// seed replays the exact stream it always has.
	src := stats.NewSource(seed)
	stream := make([]arrival, n)
	at := time.Duration(0)
	for i := range stream {
		if i > 0 && mean > 0 {
			at += time.Duration(src.Expo(float64(mean)))
		}
		stream[i] = arrival{at: at, tmpl: &templates[src.Intn(len(templates))], value: value, tenant: tenantOf(tenants, i)}
	}
	return stream, nil
}

// scenarioStream converts a generated scenario workload into the live
// stream: wall-clock arrival offsets (experiment minutes scaled by
// timescale) and a deterministic synthetic-table → TPC-H template mapping,
// so the same spec drives DES and live runs.
func scenarioStream(wl *synth.Workload, timescale float64, tenants []string) ([]arrival, error) {
	if timescale <= 0 {
		return nil, fmt.Errorf("-timescale must be positive for scenario replay")
	}
	templates, err := loadTemplates(tpch.Queries())
	if err != nil {
		return nil, err
	}
	stream := make([]arrival, len(wl.Queries))
	for i, q := range wl.Queries {
		// Hash the query's table set: stable across runs, independent of
		// arrival order, and spread across the template catalog.
		var key strings.Builder
		for _, id := range q.Tables {
			key.WriteString(string(id))
			key.WriteByte(',')
		}
		stream[i] = arrival{
			at:     time.Duration(q.SubmitAt / timescale * float64(time.Second)),
			tmpl:   &templates[stats.FNV1a(key.String())%uint64(len(templates))],
			value:  q.BusinessValue,
			tenant: tenantOf(tenants, i),
		}
	}
	return stream, nil
}

// stormWindows scales the scenario's outage schedule to wall time and
// binds each affected site to its proxy target name.
func stormWindows(wl *synth.Workload, timescale float64) []faults.Window {
	var out []faults.Window
	for _, o := range wl.Outages {
		out = append(out, faults.Window{
			Target: fmt.Sprintf("site%d", o.Site),
			Start:  time.Duration(o.Start / timescale * float64(time.Second)),
			End:    time.Duration(o.End / timescale * float64(time.Second)),
		})
	}
	return out
}

// runScenario offers a named scenario preset to a live DSS.
func runScenario(addrs []string, name string, seed int64, timescale float64, timeout time.Duration, tenants []string, proxies proxyFlags) error {
	sc, err := synth.Preset(name)
	if err != nil {
		return err
	}
	sc.Seed = synth.SubSeedFor(seed, sc.Name)
	wl, err := sc.Generate()
	if err != nil {
		return err
	}
	stream, err := scenarioStream(wl, timescale, tenants)
	if err != nil {
		return err
	}

	// Outage storms need the fault proxies in place; running the scenario
	// without them would silently measure a calmer world than the DES did.
	if len(wl.Outages) > 0 && len(proxies) == 0 {
		return fmt.Errorf("scenario %s has outage storms: declare -outage-proxy site=listen=target for the affected sites", name)
	}
	if len(proxies) > 0 {
		hosted := make(map[string]*faults.Proxy, len(proxies))
		for site, spec := range proxies {
			p := faults.NewProxy(spec.target, stats.SubSeed(sc.Seed, fmt.Sprintf("proxy:%d", site)))
			bound, err := p.Listen(spec.listen)
			if err != nil {
				return err
			}
			defer p.Close()
			hosted[fmt.Sprintf("site%d", site)] = p
			fmt.Printf("proxy site%d: %s -> %s\n", site, bound, spec.target)
		}
		windows := stormWindows(wl, timescale)
		for _, w := range windows {
			if _, ok := hosted[w.Target]; !ok {
				return fmt.Errorf("scenario %s takes down %s but no -outage-proxy covers it", name, w.Target)
			}
		}
		if len(windows) > 0 {
			drv, err := faults.NewStormDriver(hosted, windows)
			if err != nil {
				return err
			}
			drv.Start()
			defer drv.Stop()
			fmt.Printf("storm schedule armed: %d windows across %d outages\n", len(windows), len(wl.Outages))
		}
	}

	fmt.Printf("scenario %s: %d tables, seed %d, timescale %g min/s\n", sc.Name, sc.Tables, sc.Seed, timescale)
	return offer(os.Stdout, addrs, stream, timeout)
}

// tally accumulates results across arrival goroutines.
type tally struct {
	mu            sync.Mutex
	ivs, cls, sls []float64 // as the DSS reported them
	lats          []float64 // client-side milliseconds from the intended send time
	errs, expired int
	degraded      int
	retried       int
	planMix       map[string]int
	tenantIV      map[string]float64
}

// offer pushes the materialized stream at the DSS open-loop: each arrival
// fires at its own offset whatever earlier ones are doing, so burst shapes
// and the offered rate survive slow queries.
func offer(out io.Writer, addrs []string, stream []arrival, deadline time.Duration) error {
	smap, err := cluster.NewShardMap(len(addrs))
	if err != nil {
		return fmt.Errorf("need at least one DSS address: %w", err)
	}
	fmt.Fprintf(out, "offering %d arrivals across %d shard(s)\n", len(stream), len(addrs))
	t := &tally{planMix: map[string]int{}, tenantIV: map[string]float64{}}
	perShard := make([]int, len(addrs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range stream {
		if wait := a.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		shard := smap.ShardOf(a.tmpl.tables)
		perShard[shard]++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.fire(out, addrs[shard], i, a, start, deadline)
		}()
	}
	offered := time.Since(start)
	wg.Wait()

	fmt.Fprintf(out, "\noffered %d arrivals in %v (%.1f/s), drained in %v (%d errors, %d expired, %d degraded, %d transport retries)\n",
		len(stream), offered.Round(time.Millisecond), float64(len(stream))/offered.Seconds(),
		time.Since(start).Round(time.Millisecond), t.errs, t.expired, t.degraded, t.retried)
	if len(addrs) > 1 {
		fmt.Fprintf(out, "arrivals per shard: %v\n", perShard)
	}
	if len(t.ivs) > 0 {
		total := 0.0
		for _, v := range t.ivs {
			total += v
		}
		fmt.Fprintf(out, "information value: total %.3f  mean %.4f  p50 %.4f  p95 %.4f\n",
			total, stats.Mean(t.ivs), stats.Percentile(t.ivs, 50), stats.Percentile(t.ivs, 95))
		fmt.Fprintf(out, "CL minutes:        mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f\n",
			stats.Mean(t.cls), stats.Percentile(t.cls, 50), stats.Percentile(t.cls, 95), stats.Percentile(t.cls, 99))
		fmt.Fprintf(out, "SL minutes:        mean %.2f  p50 %.2f  p95 %.2f\n",
			stats.Mean(t.sls), stats.Percentile(t.sls, 50), stats.Percentile(t.sls, 95))
		fmt.Fprintf(out, "client latency ms: p50 %.1f  p95 %.1f  p99 %.1f (from intended send time)\n",
			stats.Percentile(t.lats, 50), stats.Percentile(t.lats, 95), stats.Percentile(t.lats, 99))
		fmt.Fprintln(out, "plan mix:")
	}
	for _, line := range append(sortedLines(t.planMix, "  %-12s %d"), sortedLines(t.tenantIV, tenantLine)...) {
		fmt.Fprintln(out, line)
	}
	return nil
}

// retrier makes transport-level retries against the DSS itself; remote
// errors are the DSS's answer (possibly a typed degraded or expired
// refusal) and are not retried, and neither is a spent per-query deadline.
var retrier = netproto.Retrier{
	MaxAttempts: 3,
	BaseDelay:   50 * time.Millisecond,
	Budget:      2 * time.Second,
	Retryable: func(err error) bool {
		var remote *netproto.RemoteError
		return !errors.As(err, &remote) && !errors.Is(err, context.DeadlineExceeded)
	},
}

// fire runs arrival i to completion and folds its outcome into the tally.
func (t *tally) fire(out io.Writer, addr string, i int, a arrival, start time.Time, deadline time.Duration) {
	// The deadline covers the whole query including transport retries: a
	// retried attempt inherits whatever budget the first one left.
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	defer cancel()
	var resp *netproto.Response
	retries := 0
	err := retrier.DoContext(ctx, func(attempt int) error {
		if attempt > 0 {
			retries++
		}
		r, err := netproto.CallContext(ctx, addr, &netproto.Request{
			Kind: netproto.KindExec, SQL: a.tmpl.q.SQL, BusinessValue: a.value, Tenant: a.tenant,
		}, 2*time.Minute)
		resp = r
		return err
	})
	lat := time.Since(start) - a.at

	t.mu.Lock()
	defer t.mu.Unlock()
	t.retried += retries
	if err != nil {
		t.errs++
		kind := "ERROR"
		var remote *netproto.RemoteError
		switch {
		case errors.As(err, &remote) && remote.Expired, errors.Is(err, context.DeadlineExceeded):
			t.expired++
			kind = "EXPIRED"
		case errors.As(err, &remote) && remote.Degraded:
			t.degraded++
			kind = "DEGRADED"
		}
		fmt.Fprintf(out, "%4d  %-4s %s: %v\n", i+1, a.tmpl.q.ID, kind, err)
		return
	}
	meta := resp.Meta
	t.ivs = append(t.ivs, meta.Value)
	t.cls = append(t.cls, meta.CLMinutes)
	t.sls = append(t.sls, meta.SLMinutes)
	t.lats = append(t.lats, float64(lat)/float64(time.Millisecond))
	t.planMix[planShape(meta.PlanSignature)]++
	if a.tenant != "" {
		t.tenantIV[a.tenant] += meta.Value
	}
	mark := ""
	if meta.Degraded {
		t.degraded++
		mark = "  DEGRADED"
	}
	fmt.Fprintf(out, "%4d  %-4s rows=%-5d IV=%.4f CL=%.2f SL=%.2f  %s%s\n",
		i+1, a.tmpl.q.ID, resp.Result.NumRows(), meta.Value, meta.CLMinutes, meta.SLMinutes, meta.PlanSignature, mark)
}

const tenantLine = "tenant %-8s delivered IV %.3f"

// sortedLines renders one summary line per key of m (format takes the key
// and its value) in key order: ranging over the map directly would shuffle
// the lines between two runs of one seed.
func sortedLines[V any](m map[string]V, format string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf(format, k, m[k])
	}
	return lines
}

// planShape classifies a plan signature as all-base, all-replica, or mixed.
func planShape(sig string) string {
	hasBase := strings.Contains(sig, "=base")
	hasReplica := strings.Contains(sig, "=replica")
	switch {
	case hasBase && hasReplica:
		return "mixed"
	case hasReplica:
		return "all-replica"
	default:
		return "all-base"
	}
}
