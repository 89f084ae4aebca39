// Benchmarks that regenerate the paper's evaluation (one per figure) plus
// micro-benchmarks of the core machinery. Run them all with
//
//	go test -bench=. -benchmem
//
// Figure benches execute the full experiment once per iteration and report
// headline metrics (mean IV, gains) through b.ReportMetric, so a bench run
// doubles as a compact reproduction report. cmd/ivqp-bench prints the same
// experiments as full tables.
package ivdss_test

import (
	"strings"
	"testing"

	"ivdss"
	"ivdss/internal/bench"
	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/scheduler"
	"ivdss/internal/tpch"
)

// BenchmarkFig5 regenerates Figure 5: mean information value of IVQP vs
// Federation vs Data Warehouse across Fq:Fs ratios and λ settings.
func BenchmarkFig5(b *testing.B) {
	cfg := bench.DefaultFig5Config()
	var res bench.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	report := func(name string, ratio, lambda string, m bench.Method) {
		if v, ok := res.Get(ratio, lambda, m); ok {
			b.ReportMetric(v, name)
		}
	}
	report("ivqp@1:20", "1:20", "λsl=λcl=.01", bench.MethodIVQP)
	report("fed@1:20", "1:20", "λsl=λcl=.01", bench.MethodFederation)
	report("dw@1:20", "1:20", "λsl=λcl=.01", bench.MethodWarehouse)
}

// BenchmarkFig6 regenerates Figure 6: per-query computational latency.
func BenchmarkFig6(b *testing.B) {
	cfg := bench.DefaultFig6Config()
	var res bench.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ivqp, fed, dw float64
	for _, p := range res.Points {
		ivqp += p.Values[bench.MethodIVQP]
		fed += p.Values[bench.MethodFederation]
		dw += p.Values[bench.MethodWarehouse]
	}
	n := float64(len(res.Points))
	b.ReportMetric(ivqp/n, "meanCL-ivqp")
	b.ReportMetric(fed/n, "meanCL-fed")
	b.ReportMetric(dw/n, "meanCL-dw")
}

// BenchmarkFig7 regenerates Figure 7: per-query synchronization latency.
func BenchmarkFig7(b *testing.B) {
	cfg := bench.DefaultFig7Config()
	var res bench.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, panel := range res.Panels {
		var ivqp, dw float64
		for _, p := range panel.Points {
			ivqp += p.Values[bench.MethodIVQP]
			dw += p.Values[bench.MethodWarehouse]
		}
		n := float64(len(panel.Points))
		b.ReportMetric(ivqp/n, "meanSL-ivqp@"+panel.Ratio)
		b.ReportMetric(dw/n, "meanSL-dw@"+panel.Ratio)
	}
}

// BenchmarkFig8 regenerates Figure 8: information value vs site count
// under skewed and uniform placements.
func BenchmarkFig8(b *testing.B) {
	cfg := bench.DefaultFig8Config()
	var res bench.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := res.Get("uniform", 2, bench.MethodIVQP); ok {
		b.ReportMetric(v, "ivqp-uniform@2")
	}
	if v, ok := res.Get("uniform", 22, bench.MethodIVQP); ok {
		b.ReportMetric(v, "ivqp-uniform@22")
	}
	if v, ok := res.Get("skewed", 22, bench.MethodIVQP); ok {
		b.ReportMetric(v, "ivqp-skewed@22")
	}
}

// BenchmarkFig9a regenerates Figure 9(a): MQO vs FIFO by overlap rate.
func BenchmarkFig9a(b *testing.B) {
	cfg := bench.DefaultFig9Config()
	var res bench.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFig9a(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Overlap) > 0 {
		first, last := res.Overlap[0], res.Overlap[len(res.Overlap)-1]
		b.ReportMetric((first.MQO-first.Without)/first.Without*100, "gain%@10")
		b.ReportMetric((last.MQO-last.Without)/last.Without*100, "gain%@50")
	}
}

// BenchmarkFig9b regenerates Figure 9(b): MQO vs FIFO by workload size.
func BenchmarkFig9b(b *testing.B) {
	cfg := bench.DefaultFig9Config()
	var res bench.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFig9b(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Counts) > 0 {
		last := res.Counts[len(res.Counts)-1]
		b.ReportMetric((last.MQO-last.Without)/last.Without*100, "gain%@14q")
	}
}

// BenchmarkAblationSearch compares the three plan-search modes.
func BenchmarkAblationSearch(b *testing.B) {
	cfg := bench.DefaultAblationSearchConfig()
	var res bench.AblationSearchResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunAblationSearch(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.MeanPlans, "plans/"+row.Mode.String())
	}
}

// BenchmarkAblationMQO compares workload-ordering strategies.
func BenchmarkAblationMQO(b *testing.B) {
	cfg := bench.DefaultAblationMQOConfig()
	var res bench.AblationMQOResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunAblationMQO(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.TotalValue, "iv/"+strings.ReplaceAll(row.Strategy, " ", "-"))
	}
}

// BenchmarkAblationAging measures the starvation effect of Section 3.3.
func BenchmarkAblationAging(b *testing.B) {
	cfg := bench.DefaultAblationAgingConfig()
	var res bench.AblationAgingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunAblationAging(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.MaxWait, "maxWait/"+strings.ReplaceAll(row.Policy, " ", "-"))
	}
}

// --- Micro-benchmarks of the core machinery ---

func benchWorld(b *testing.B) (*bench.Deployment, core.CostModel) {
	b.Helper()
	var tables []ivdss.TableID
	for _, name := range tpch.PartitionedTableNames(5) {
		tables = append(tables, ivdss.TableID(name))
	}
	dep, err := bench.BuildDeployment(bench.DeployConfig{
		Tables: tables, Sites: 4, ReplicaCount: 5,
		SyncMean: 15, ScheduleHorizon: 1e5, InitialSync: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return dep, &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 3, TransmitFlat: 2}
}

// BenchmarkPlannerScatterGather measures one bounded plan search over a
// 10-table query (5 replicated).
func BenchmarkPlannerScatterGather(b *testing.B) {
	dep, cost := benchWorld(b)
	planner, err := core.NewPlanner(cost, core.PlannerConfig{
		Rates: core.DiscountRates{CL: .01, SL: .05}, Horizon: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	q := ivdss.Query{ID: "q", Tables: dep.Tables[:10], BusinessValue: 1, SubmitAt: 500}
	snap, err := dep.Catalog.Snapshot(q.Tables, q.SubmitAt, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := planner.Best(q, snap, q.SubmitAt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerExhaustive is the unbounded reference search on the same
// scenario, for comparison with BenchmarkPlannerScatterGather.
func BenchmarkPlannerExhaustive(b *testing.B) {
	dep, cost := benchWorld(b)
	planner, err := core.NewPlanner(cost, core.PlannerConfig{
		Rates: core.DiscountRates{CL: .01, SL: .05}, Horizon: 30, Mode: core.Exhaustive,
	})
	if err != nil {
		b.Fatal(err)
	}
	q := ivdss.Query{ID: "q", Tables: dep.Tables[:10], BusinessValue: 1, SubmitAt: 500}
	snap, err := dep.Catalog.Snapshot(q.Tables, q.SubmitAt, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := planner.Best(q, snap, q.SubmitAt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGASchedule measures the genetic algorithm over an 8-query
// workload with memoized fitness.
func BenchmarkGASchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, _, err := scheduler.OptimizeOrder(8, func(order []int) (float64, error) {
			score := 0.0
			for pos, g := range order {
				score += float64(g*pos) * .01
			}
			return score, nil
		}, scheduler.GAConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCHQ1 measures end-to-end SQL execution of the heaviest
// single-table query over the generated data set.
func BenchmarkTPCHQ1(b *testing.B) {
	catalog, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.QueryByID("Q1")
	if err != nil {
		b.Fatal(err)
	}
	cat := make(map[string]*ivdss.RelTable, len(catalog))
	for k, v := range catalog {
		cat[k] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ivdss.RunSQL(q.SQL, mapCatalog(cat)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCHQ5 measures a six-way join query.
func BenchmarkTPCHQ5(b *testing.B) {
	catalog, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.QueryByID("Q5")
	if err != nil {
		b.Fatal(err)
	}
	cat := make(map[string]*ivdss.RelTable, len(catalog))
	for k, v := range catalog {
		cat[k] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ivdss.RunSQL(q.SQL, mapCatalog(cat)); err != nil {
			b.Fatal(err)
		}
	}
}

// mapCatalog adapts a plain map to the SQL catalog interface.
type mapCatalog map[string]*ivdss.RelTable

func (m mapCatalog) Table(name string) (*ivdss.RelTable, error) {
	if t, ok := m[name]; ok {
		return t, nil
	}
	return nil, errUnknownTable(name)
}

type errUnknownTable string

func (e errUnknownTable) Error() string { return "unknown table " + string(e) }

// BenchmarkDispatcherStream pushes a 200-query stream through the
// simulated dispatcher with IVQP planning.
func BenchmarkDispatcherStream(b *testing.B) {
	dep, cost := benchWorld(b)
	rates := core.DiscountRates{CL: .01, SL: .05}
	strategy, err := dep.Strategy(bench.MethodIVQP, cost, rates, 30)
	if err != nil {
		b.Fatal(err)
	}
	var queries []ivdss.Query
	for i := 0; i < 200; i++ {
		queries = append(queries, ivdss.Query{
			ID:            "q" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Tables:        dep.Tables[i%8 : i%8+4],
			BusinessValue: 1,
			SubmitAt:      float64(i) * 3,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunStream(strategy, queries, rates, 1, core.Aging{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInformationValue measures the hot IV formula.
func BenchmarkInformationValue(b *testing.B) {
	rates := ivdss.DiscountRates{CL: .01, SL: .05}
	lat := ivdss.Latencies{CL: 12.5, SL: 30.25}
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += ivdss.InformationValue(1, lat, rates)
	}
	_ = sink
}

// BenchmarkAblationAdvisor compares the placement advisor's replication
// plan with random plans under independent simulation.
func BenchmarkAblationAdvisor(b *testing.B) {
	cfg := bench.DefaultAdvisorConfig()
	var res bench.AdvisorResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunAdvisor(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.MeanIV, "iv/"+strings.ReplaceAll(row.Plan, " ", "-"))
	}
}

// BenchmarkRouterRoute measures the precomputed-routing fast path of
// Section 3.1 (compare with BenchmarkPlannerScatterGather, the full
// search it replaces for registered queries).
func BenchmarkRouterRoute(b *testing.B) {
	cfg := ivdss.RouterConfig{
		Cost:  &ivdss.CountModel{LocalProcess: 2, PerBaseTable: 3, TransmitFlat: 1},
		Rates: ivdss.DiscountRates{CL: .03, SL: .05},
	}
	r, err := ivdss.NewRouter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := ivdss.Query{ID: "q", Tables: []ivdss.TableID{"a", "b", "c", "d"}, BusinessValue: 1}
	sites := []ivdss.SiteID{1, 2, 1, 2}
	replicated := []bool{true, true, true, false}
	const window = 20.0
	if err := r.Register(q, sites, replicated, window); err != nil {
		b.Fatal(err)
	}
	now := ivdss.Time(100)
	snap := make([]ivdss.TableState, 4)
	for i, id := range q.Tables {
		snap[i] = ivdss.TableState{ID: id, Site: sites[i]}
		if replicated[i] {
			snap[i].Replica = &ivdss.ReplicaState{
				LastSync:  now - 7,
				NextSyncs: []ivdss.Time{now + 13, now + 33},
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Route("q", snap, now); !ok {
			b.Fatal("route refused")
		}
	}
}
