// Command ivqp-loadgen drives an open-loop query stream at a live DSS
// cluster: arrivals fire on their own exponential schedule and never wait
// for earlier responses, so — unlike the closed-loop ivqp-workload replay —
// the offered rate stays fixed while the cluster saturates. This is the
// live leg of the cluster scaling experiment (ivqp-bench -fig cluster is
// the DES leg).
//
// Each arrival routes client-side with the same cluster.ShardMap the
// shards themselves assume: the query's table footprint picks the shard,
// so overlapping queries land together and micro-batch MQO stays
// effective. The shard count is the length of -addrs.
//
//	# 4-shard cluster on :7200..:7203 (see ivqp-dss -shards 4)
//	ivqp-loadgen -addrs 127.0.0.1:7200,127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203 \
//	    -n 2000 -rate 50 -queries Q1,Q3,Q6,Q13,Q22 -seed 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/sqlmini"
	"ivdss/internal/stats"
	"ivdss/internal/tpch"
)

func main() {
	addrsSpec := flag.String("addrs", "127.0.0.1:7200", "comma-separated shard addresses in shard-ID order; the shard count is the list length")
	n := flag.Int("n", 200, "total arrivals to fire")
	rate := flag.Float64("rate", 20, "offered arrival rate in queries per second (open loop)")
	queryList := flag.String("queries", "Q1,Q6,Q13,Q22", "comma-separated TPC-H template IDs arrivals draw from")
	value := flag.Float64("value", 1, "business value per report")
	seed := flag.Int64("seed", 1, "arrival-schedule and template-choice seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-query wall-clock deadline")
	tenants := flag.String("tenants", "", "comma-separated tenant names: each arrival is hash-assigned one and carries it to the cluster's weighted fair shedding")
	flag.Parse()

	if err := run(*addrsSpec, *n, *rate, *queryList, *value, *seed, *timeout, *tenants); err != nil {
		fmt.Fprintln(os.Stderr, "ivqp-loadgen:", err)
		os.Exit(1)
	}
}

// template is one prepared arrival choice: the SQL plus the footprint the
// shard map routes by.
type template struct {
	q      tpch.Query
	tables []core.TableID
}

// tally accumulates results across arrival goroutines.
type tally struct {
	mu        sync.Mutex
	ivs, cls  []float64
	completed int
	expired   int
	degraded  int
	errs      int
	perShard  map[cluster.ShardID]int
	tenantIV  map[string]float64
}

func run(addrsSpec string, n int, rate float64, queryList string, value float64, seed int64, timeout time.Duration, tenantSpec string) error {
	if n <= 0 {
		return fmt.Errorf("need a positive arrival count")
	}
	if rate <= 0 {
		return fmt.Errorf("need a positive arrival rate")
	}
	var addrs []string
	for _, a := range strings.Split(addrsSpec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("need at least one shard address")
	}
	smap, err := cluster.NewShardMap(len(addrs))
	if err != nil {
		return err
	}
	var templates []template
	for _, id := range strings.Split(queryList, ",") {
		q, err := tpch.QueryByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		stmt, err := sqlmini.Parse(q.SQL)
		if err != nil {
			return fmt.Errorf("template %s: %w", q.ID, err)
		}
		var tables []core.TableID
		for _, name := range stmt.TableNames() {
			tables = append(tables, core.TableID(strings.ToLower(name)))
		}
		templates = append(templates, template{q: q, tables: tables})
	}
	if len(templates) == 0 {
		return fmt.Errorf("no query templates selected")
	}
	var tenantNames []string
	for _, t := range strings.Split(tenantSpec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tenantNames = append(tenantNames, t)
		}
	}

	fmt.Printf("offering %d arrivals at %.1f/s across %d shard(s), %d templates, seed %d\n",
		n, rate, len(addrs), len(templates), seed)

	// The arrival schedule is drawn up front from the seed; the firing loop
	// only sleeps and launches, so slow responses never push back arrivals.
	src := stats.NewSource(seed)
	meanGap := float64(time.Second) / rate
	offsets := make([]time.Duration, n)
	picks := make([]int, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		if i > 0 {
			at += time.Duration(src.Expo(meanGap))
		}
		offsets[i] = at
		picks[i] = src.Intn(len(templates))
	}

	t := &tally{perShard: make(map[cluster.ShardID]int), tenantIV: make(map[string]float64)}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		if wait := offsets[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		tmpl := templates[picks[i]]
		shard := smap.ShardOf(tmpl.tables)
		tenant := ""
		if len(tenantNames) > 0 {
			tenant = tenantNames[stats.FNV1a(fmt.Sprintf("arrival:%d", i))%uint64(len(tenantNames))]
		}
		t.mu.Lock()
		t.perShard[shard]++
		t.mu.Unlock()
		wg.Add(1)
		go func(addr string, tmpl template, tenant string) {
			defer wg.Done()
			fire(t, addr, tmpl, value, tenant, timeout)
		}(addrs[shard], tmpl, tenant)
	}
	offered := time.Since(start)
	wg.Wait()
	total := time.Since(start)

	achieved := float64(n) / offered.Seconds()
	fmt.Printf("\noffered %d arrivals in %v (achieved rate %.1f/s), drained in %v\n",
		n, offered.Round(time.Millisecond), achieved, total.Round(time.Millisecond))
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Printf("completed %d, expired %d, degraded %d, errors %d\n",
		t.completed, t.expired, t.degraded, t.errs)
	var shardLine []string
	for s := 0; s < len(addrs); s++ {
		shardLine = append(shardLine, fmt.Sprintf("%d:%d", s, t.perShard[cluster.ShardID(s)]))
	}
	fmt.Printf("arrivals per shard: %s\n", strings.Join(shardLine, "  "))
	if len(t.ivs) > 0 {
		totalIV := 0.0
		for _, v := range t.ivs {
			totalIV += v
		}
		fmt.Printf("information value: total %.3f  mean %.4f  p95 %.4f\n",
			totalIV, stats.Mean(t.ivs), stats.Percentile(t.ivs, 95))
		fmt.Printf("CL minutes:        mean %.2f  p95 %.2f  p99 %.2f\n",
			stats.Mean(t.cls), stats.Percentile(t.cls, 95), stats.Percentile(t.cls, 99))
	}
	for _, line := range tenantLines(t.tenantIV) {
		fmt.Println(line)
	}
	return nil
}

// tenantLines renders the per-tenant delivered-IV summary in tenant-name
// order: ranging over the map directly would shuffle the lines between
// two runs of one seed.
func tenantLines(tenantIV map[string]float64) []string {
	tenants := make([]string, 0, len(tenantIV))
	for tenant := range tenantIV {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	lines := make([]string, len(tenants))
	for i, tenant := range tenants {
		lines[i] = fmt.Sprintf("tenant %-8s delivered IV %.3f", tenant, tenantIV[tenant])
	}
	return lines
}

// fire runs one arrival to completion and folds its outcome into the
// tally. Transport failures retry briefly; the DSS's own refusals (shed,
// expired, degraded) are answers, not failures.
func fire(t *tally, addr string, tmpl template, value float64, tenant string, timeout time.Duration) {
	retrier := netproto.Retrier{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		Budget:      2 * time.Second,
		Retryable: func(err error) bool {
			var remote *netproto.RemoteError
			return !errors.As(err, &remote) && !errors.Is(err, context.DeadlineExceeded)
		},
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	var resp *netproto.Response
	err := retrier.DoContext(ctx, func(int) error {
		r, err := netproto.CallContext(ctx, addr, &netproto.Request{
			Kind:          netproto.KindExec,
			SQL:           tmpl.q.SQL,
			BusinessValue: value,
			Tenant:        tenant,
		}, timeout)
		resp = r
		return err
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		var remote *netproto.RemoteError
		switch {
		case errors.As(err, &remote) && remote.Expired,
			errors.Is(err, context.DeadlineExceeded):
			t.expired++
		case errors.As(err, &remote) && remote.Degraded:
			t.degraded++
			t.errs++
		default:
			t.errs++
		}
		return
	}
	meta := resp.Meta
	t.completed++
	t.ivs = append(t.ivs, meta.Value)
	t.cls = append(t.cls, meta.CLMinutes)
	if meta.Degraded {
		t.degraded++
	}
	if tenant != "" {
		t.tenantIV[tenant] += meta.Value
	}
}
