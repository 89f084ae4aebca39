package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN, so hygiene catches it")
	}
	if got := samplesBeyond(400, 95); got != 20 {
		t.Errorf("samplesBeyond(400, 95) = %d, want 20", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: .10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: .07}
	abs := metricDef{Name: "fail_ratio", Better: "lower", AbsBound: .002}
	for _, c := range []struct {
		name         string
		def          metricDef
		a, b, spread float64
		want         string
	}{
		{"lower within bound", lower, 100, 109, 0, verdictOK},
		{"lower beyond bound", lower, 100, 111, 0, verdictWorse},
		{"lower improved", lower, 100, 50, 0, verdictOK},
		{"higher within bound", higher, 100, 94, 0, verdictOK},
		{"higher beyond bound", higher, 100, 92, 0, verdictWorse},
		{"baseline too noisy to say", lower, 100, 150, .12, verdictUnresolved},
		{"absolute within", abs, 0, .002, 0, verdictOK},
		{"absolute beyond", abs, 0, .003, 0, verdictWorse},
	} {
		if _, got := judge(c.def, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestOpsFollowSeed(t *testing.T) {
	for _, batch := range []int{0, batchSize} {
		a, b := drawOps(7, 0, 22, batch), drawOps(7, 0, 22, batch)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("batch %d: equal seeds drew different sequences", batch)
		}
		if reflect.DeepEqual(a, drawOps(8, 0, 22, batch)) {
			t.Errorf("batch %d: different seeds drew the same sequence", batch)
		}
		if reflect.DeepEqual(a, drawOps(7, 1, 22, batch)) {
			t.Errorf("batch %d: two clients of one run drew the same sequence", batch)
		}
	}
	// Decks: every template exactly once per 22 picks, whatever the seed.
	seen := make(map[int]int)
	for _, o := range drawOps(3, 0, 22, 0)[:22] {
		seen[o[0].Template]++
	}
	if len(seen) != 22 {
		t.Errorf("first deck covered %d of 22 templates", len(seen))
	}
}

// TestRelayCountsExactBytes sends a fixed request and response through a
// relay and checks it counted exactly those bytes, each in its direction.
func TestRelayCountsExactBytes(t *testing.T) {
	const request, response = "0123456789", "abcdefghijklmnopqrstuvwxyz"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		buf := make([]byte, len(request))
		if _, err := io.ReadFull(c, buf); err != nil {
			served <- err
			return
		}
		_, err = c.Write([]byte(response))
		served <- err
	}()
	r, err := startRelay(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte(request)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(response))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	r.Close() // waits for both pipes, so the counters are final
	if string(got) != response {
		t.Errorf("relay altered the response: %q", got)
	}
	if to, from := r.toSite.Load(), r.toDSS.Load(); to != int64(len(request)) || from != int64(len(response)) {
		t.Errorf("relay counted %d bytes out and %d back, want %d and %d", to, from, len(request), len(response))
	}
}

func TestOracleRejectsTamperedRow(t *testing.T) {
	ctx := context.Background()
	tables, err := tpch.Generate(tpch.Config{Scale: .2, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	templates, err := loadTemplates([]string{"Q1", "Q13"})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(ctx, templates, tables)
	if err != nil {
		t.Fatal(err)
	}
	for i, tpl := range templates {
		good := orc.want[i].Clone()
		if err := orc.check(tpl, i, good, true); err != nil {
			t.Fatalf("%s: an untouched answer was rejected: %v", tpl.ID, err)
		}
		// A float cell off by one part in a million, far above the tolerance.
		bad := orc.want[i].Clone()
		tampered := false
		for c, v := range bad.Rows[0] {
			if v.T == relation.Float {
				bad.Rows[0][c] = relation.FloatVal(v.F * (1 + 1e-6))
				tampered = true
				break
			}
			if v.T == relation.Int {
				bad.Rows[0][c] = relation.IntVal(v.I + 1)
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatalf("%s: no numeric cell to tamper with", tpl.ID)
		}
		if err := orc.check(tpl, i, bad, true); err == nil {
			t.Errorf("%s: a tampered row passed the oracle", tpl.ID)
		}
		short := orc.want[i].Clone()
		short.Rows = short.Rows[1:]
		if err := orc.check(tpl, i, short, true); err == nil {
			t.Errorf("%s: a missing row passed the oracle", tpl.ID)
		}
		// Within tolerance: association-order noise must pass.
		near := orc.want[i].Clone()
		for c, v := range near.Rows[0] {
			if v.T == relation.Float {
				near.Rows[0][c] = relation.FloatVal(v.F * (1 + 1e-12))
			}
		}
		if err := orc.check(tpl, i, near, true); err != nil {
			t.Errorf("%s: a last-digit float difference was rejected: %v", tpl.ID, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, Name: "a", Parent: "op", Start: 10, End: 40},
		{Op: 1, Name: "b", Parent: "op", Start: 40, End: 90},
		{Op: 1, Name: "b.inner", Parent: "b", Start: 50, End: 70},
		{Op: 2, Name: "op", Start: 0, End: 10},
	}
	got := selfTimes(spans)
	want := map[int64]map[string]int64{
		1: {"op": 20, "a": 30, "b": 30, "b.inner": 20},
		2: {"op": 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestHygieneFailsOnUnpopulatedMetric(t *testing.T) {
	full := func() *runResult {
		r := &runResult{Workload: "replica_read"}
		for _, def := range r.declared() {
			r.set(def.Name, 1, 1)
		}
		return r
	}
	if err := full().finish(); err != nil {
		t.Fatalf("a fully populated result failed hygiene: %v", err)
	}
	missing := full()
	delete(missing.Metrics, "qps")
	zero := full()
	zero.set("allocs_per_query", 0, 1)
	nan := full()
	nan.set("lat_p50_ms", math.NaN(), 0)
	extra := full()
	extra.set("made_up", 1, 1)
	for name, r := range map[string]*runResult{"missing": missing, "structurally zero": zero, "NaN": nan, "undeclared": extra} {
		if err := r.finish(); err == nil {
			t.Errorf("%s metric passed hygiene", name)
		}
	}
	// fail_ratio's healthy value is zero: it must be allowed.
	healthy := full()
	healthy.set("fail_ratio", 0, 10)
	if err := healthy.finish(); err != nil {
		t.Errorf("fail_ratio 0 failed hygiene: %v", err)
	}
}

// TestBenchmarkJSONMatchesSchema keeps the contract file and the harness's
// own metric and workload declarations from drifting apart.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmarks/perf"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness has %q / %q", i, file.Workloads[i].Name, file.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(file.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness has %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > .25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(file.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		got := file.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness has %+v", i, got, def)
		}
	}
}

// TestQuickPassIsolation drives every workload for two seconds through
// counting relays and checks what each claims to isolate, from the
// server's own counters: no failures anywhere; replica_read and batch_mqo
// plan replicas and leave the remotes alone inside the window;
// federated_read plans only base tables and pushes work down; batch_mqo's
// workloads have all sixteen members; hybrid_write syncs and converges.
func TestQuickPassIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live servers")
	}
	for _, w := range workloads() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			b, err := prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			p := quickParams(1)
			f, _, err := b.start(true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			d := &driver{w: w, f: f, templates: b.templates, oracle: b.oracle, seed: p.seed, tracer: newTracer()}
			win, err := d.drive(p.warmup, p.window, b.tables[tpch.LineItem])
			if err != nil {
				t.Fatal(err)
			}
			if win.failed != 0 || win.completed == 0 {
				t.Fatalf("attempted %d, completed %d, failed %d: %v", win.attempted, win.completed, win.failed, win.firstErr)
			}
			res := &runResult{Workload: w.Name, Trace: true}
			boundaryMetrics(res, w, win)
			m := func(name string) float64 { return res.Metrics[name].Value }
			if m("client.fail_ratio") != 0 || m("server.shed_total") != 0 || m("server.degraded_total") != 0 || m("server.mqo_fallback_total") != 0 {
				t.Errorf("failures: fail_ratio %v shed %v degraded %v fallback %v", m("client.fail_ratio"), m("server.shed_total"), m("server.degraded_total"), m("server.mqo_fallback_total"))
			}
			if m("netproto.client_bytes_per_query") == 0 {
				t.Error("counted client connections carried no bytes")
			}
			switch w.Name {
			case "replica_read", "batch_mqo":
				if w.Batch > 0 && m("scheduler.workload_size_mean") != batchSize {
					t.Errorf("workload_size_mean %v, want %d", m("scheduler.workload_size_mean"), batchSize)
				}
				// Not exactly 1 and 0 here: the four subtests share two cores,
				// and when a replica plan's measured cost overshoots the cost
				// model's uncalibrated estimate for a base plan (90 ms), the
				// planner tries that base plan once and calibrates it away. A
				// full run's 5 s warm-up absorbs that; this 1 s one may not.
				if raceEnabled {
					// Tenfold slower queries overshoot that estimate all the
					// time: the plan mix is no longer the workload's.
					t.Logf("race detector on: replica plan share %v not checked", m("server.plan_share_replica"))
					break
				}
				if m("server.plan_share_replica") < .95 {
					t.Errorf("replica plan share %v, want 1 (at least .95 under test load)", m("server.plan_share_replica"))
				}
				if m("netproto.remote_calls_per_query") > .05 {
					t.Errorf("remote traffic inside the window: %v calls/query, %v bytes/query", m("netproto.remote_calls_per_query"), m("netproto.remote_bytes_per_query"))
				}
			case "federated_read":
				if m("server.plan_share_base") != 1 {
					t.Errorf("base plan share %v, want 1", m("server.plan_share_base"))
				}
				if m("netproto.remote_bytes_per_query") == 0 || m("server.pushdown_share") == 0 {
					t.Errorf("no remote bytes (%v) or no pushdowns (%v)", m("netproto.remote_bytes_per_query"), m("server.pushdown_share"))
				}
			case "hybrid_write":
				if m("replsync.syncs_per_s") == 0 || m("server.insert_us") == 0 {
					t.Errorf("syncs/s %v, insert_us %v: the moving-data side did not run", m("replsync.syncs_per_s"), m("server.insert_us"))
				}
				start := time.Now()
				if err := d.converge(ctx, b.tables); err != nil {
					t.Errorf("post-write convergence: %v", err)
				}
				t.Logf("converged in %v", time.Since(start))
			}
		})
	}
}
