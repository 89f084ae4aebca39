package scheduler

import (
	"fmt"
	"sync"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/metrics"
	"ivdss/internal/replication"
	"ivdss/internal/sim"
)

// equivalenceQueries is an arrival pattern dense enough that the dispatch
// ranking, aging, and expiry all make real decisions: bursts early on, a
// lull, then a second burst.
func equivalenceQueries() []core.Query {
	qs := queriesAt([]core.Time{0, 1, 2, 3, 8, 9, 30, 31})
	bvs := []float64{1, .4, .9, .3, 1, .5, .8, .6}
	for i := range qs {
		qs[i].BusinessValue = bvs[i]
	}
	qs[1].Tables = []core.TableID{"t3"}
	qs[3].Tables = []core.TableID{"t3", "t4"}
	qs[5].Tables = []core.TableID{"t1"}
	return qs
}

// TestEngineManualClockMatchesDESDispatcher is the refactor's equivalence
// proof: the DES dispatcher (engine on the simulator's virtual clock) and
// the engine on a hand-stepped clock — the shape the live server mounts it
// in — produce identical plan choices and outcome sequences for the same
// stream, including expiries and aging decisions.
func TestEngineManualClockMatchesDESDispatcher(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	aging := core.Aging{Coefficient: .05, Exponent: 1.5}
	const epsilon = .25

	catalogA, plannerA := testWorld(t, rates)
	s := sim.New()
	d, err := NewSimEngine(s, &IVQPStrategy{Planner: plannerA, Catalog: catalogA, Horizon: 100}, rates, 1, aging)
	if err != nil {
		t.Fatal(err)
	}
	d.SetEpsilon(epsilon)
	submitAll(s, d, equivalenceQueries())
	s.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	catalogB, plannerB := testWorld(t, rates)
	clock := &ManualClock{}
	eng, err := NewEngine(EngineConfig{
		Clock:           clock,
		Executor:        PlanExecutor{Clock: clock, Rates: rates},
		Strategy:        &IVQPStrategy{Planner: plannerB, Catalog: catalogB, Horizon: 100},
		Rates:           rates,
		Slots:           1,
		Aging:           aging,
		HaltOnPlanError: true,
		RecordOutcomes:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetEpsilon(epsilon)
	for _, q := range equivalenceQueries() {
		q := q
		clock.AfterFunc(core.Duration(q.SubmitAt), func() { eng.Submit(q, nil) })
	}
	clock.Run()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	a, b := d.Outcomes(), eng.Outcomes()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("outcome counts differ: dispatcher %d, manual-clock engine %d", len(a), len(b))
	}
	completed, expired := 0, 0
	for i := range a {
		if a[i].Query.ID != b[i].Query.ID {
			t.Fatalf("outcome %d: query %s vs %s", i, a[i].Query.ID, b[i].Query.ID)
		}
		if a[i].Expired != b[i].Expired {
			t.Errorf("outcome %d (%s): expired %v vs %v", i, a[i].Query.ID, a[i].Expired, b[i].Expired)
		}
		if a[i].Wait != b[i].Wait {
			t.Errorf("outcome %d (%s): wait %v vs %v", i, a[i].Query.ID, a[i].Wait, b[i].Wait)
		}
		if a[i].Value != b[i].Value {
			t.Errorf("outcome %d (%s): value %v vs %v", i, a[i].Query.ID, a[i].Value, b[i].Value)
		}
		if a[i].Plan.Signature() != b[i].Plan.Signature() {
			t.Errorf("outcome %d (%s): plan %q vs %q", i, a[i].Query.ID, a[i].Plan.Signature(), b[i].Plan.Signature())
		}
		if a[i].Expired {
			expired++
		} else {
			completed++
		}
	}
	if completed == 0 || expired == 0 {
		t.Errorf("scenario too tame: %d completed, %d expired — both paths must be exercised", completed, expired)
	}
	if d.Shed() != eng.Shed() {
		t.Errorf("shed counts differ: %d vs %d", d.Shed(), eng.Shed())
	}
}

// flagExecutor records each dispatch's MQOFallback flag before delegating
// to model execution.
type flagExecutor struct {
	inner PlanExecutor
	mu    sync.Mutex
	flags map[string]bool
}

func (f *flagExecutor) Execute(d Dispatch, done func(core.Outcome)) {
	f.mu.Lock()
	f.flags[d.Query.ID] = d.MQOFallback
	f.mu.Unlock()
	f.inner.Execute(d, done)
}

// TestEngineMicroBatchFormsWorkloads: with a window configured, arrivals
// inside it are formed into a GA-ordered workload, the formation metrics
// tick, and every member still completes.
func TestEngineMicroBatchFormsWorkloads(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	clock := &ManualClock{}
	reg := metrics.NewRegistry()
	exec := &flagExecutor{inner: PlanExecutor{Clock: clock, Rates: rates}, flags: make(map[string]bool)}
	eng, err := NewEngine(EngineConfig{
		Clock:          clock,
		Executor:       exec,
		Strategy:       &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100},
		Rates:          rates,
		Slots:          1,
		Window:         5,
		GA:             GAConfig{Seed: 1},
		RecordOutcomes: true,
		Stats:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queriesAt([]core.Time{0, 0, 0}) {
		if !eng.Submit(q, nil) {
			t.Fatalf("submit %s refused", q.ID)
		}
	}
	if got := eng.Outcomes(); len(got) != 0 {
		t.Fatalf("dispatched %d queries before the window closed", len(got))
	}
	clock.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d queries left pending", eng.Pending())
	}
	if got := len(eng.Outcomes()); got != 3 {
		t.Fatalf("outcomes = %d, want 3", got)
	}
	flat := reg.Flatten()
	if flat["workloads_formed_total"] < 1 {
		t.Errorf("workloads_formed_total = %v, want >= 1", flat["workloads_formed_total"])
	}
	if flat["mqo_fallback_total"] != 0 {
		t.Errorf("mqo_fallback_total = %v, want 0", flat["mqo_fallback_total"])
	}
	for id, fb := range exec.flags {
		if fb {
			t.Errorf("query %s dispatched with the fallback flag", id)
		}
	}
}

// TestEngineMQOFallbackMarksDispatches: when GA ordering cannot run (an
// invalid GA configuration), the group still executes — in submission
// order, with every dispatch flagged and mqo_fallback_total counted.
func TestEngineMQOFallbackMarksDispatches(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	clock := &ManualClock{}
	reg := metrics.NewRegistry()
	exec := &flagExecutor{inner: PlanExecutor{Clock: clock, Rates: rates}, flags: make(map[string]bool)}
	eng, err := NewEngine(EngineConfig{
		Clock:    clock,
		Executor: exec,
		Strategy: &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100},
		Rates:    rates,
		Slots:    1,
		// Elite exceeding the population fails GAConfig validation inside
		// OptimizeOrder — the formation failure this test wants.
		GA:             GAConfig{Population: 2, Elite: 3},
		RecordOutcomes: true,
		Stats:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesAt([]core.Time{0, 0, 0})
	payloads := make([]any, len(queries))
	if !eng.SubmitGroup(queries, payloads) {
		t.Fatal("group refused")
	}
	clock.Run()
	if got := len(eng.Outcomes()); got != 3 {
		t.Fatalf("outcomes = %d, want 3", got)
	}
	if flat := reg.Flatten(); flat["mqo_fallback_total"] != 1 {
		t.Errorf("mqo_fallback_total = %v, want 1", flat["mqo_fallback_total"])
	}
	if len(exec.flags) != 3 {
		t.Fatalf("executed %d queries, want 3", len(exec.flags))
	}
	for id, fb := range exec.flags {
		if !fb {
			t.Errorf("query %s not flagged as MQO fallback", id)
		}
	}
	// Fallback preserves submission order.
	for i, o := range eng.Outcomes() {
		if want := queries[i].ID; o.Query.ID != want {
			t.Errorf("outcome %d: %s, want %s (submission order)", i, o.Query.ID, want)
		}
	}
}

// TestEngineFIFODispatchesInSubmissionOrder: FIFO mode ignores value — the
// baseline the live-path bench compares micro-batch MQO against.
func TestEngineFIFODispatchesInSubmissionOrder(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	clock := &ManualClock{}
	eng, err := NewEngine(EngineConfig{
		Clock:           clock,
		Executor:        PlanExecutor{Clock: clock, Rates: rates},
		Strategy:        &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100},
		Rates:           rates,
		Slots:           1,
		FIFO:            true,
		HaltOnPlanError: true,
		RecordOutcomes:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Later arrivals are more valuable; FIFO must still serve in order.
	queries := queriesAt([]core.Time{0, 1, 2})
	queries[0].BusinessValue = .3
	queries[1].BusinessValue = .6
	queries[2].BusinessValue = 1
	for _, q := range queries {
		q := q
		clock.AfterFunc(core.Duration(q.SubmitAt), func() { eng.Submit(q, nil) })
	}
	clock.Run()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	out := eng.Outcomes()
	if len(out) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(out))
	}
	for i, o := range out {
		if want := queries[i].ID; o.Query.ID != want {
			t.Errorf("outcome %d: %s, want %s", i, o.Query.ID, want)
		}
	}
}

// TestEngineFormationIsScheduleMQO ties the two callers of the formation
// loop together: a group submitted at t=0 forms one workload, and a
// one-slot engine dispatches it in exactly the order ScheduleMQO returns
// for the same GA seed.
func TestEngineFormationIsScheduleMQO(t *testing.T) {
	rates := core.DiscountRates{CL: .15, SL: .15}
	catalog, planner := testWorld(t, rates)
	sets := [][]core.TableID{{"t1", "t2"}, {"t3"}, {"t1", "t3", "t4"}, {"t2"}, {"t1"}, {"t4", "t2"}}
	queries := make([]core.Query, 10)
	for i := range queries {
		queries[i] = core.Query{
			ID:            fmt.Sprintf("q%d", i+1),
			Tables:        sets[i%len(sets)],
			BusinessValue: .3 + .6*float64(7*i%10)/9,
		}
	}
	orders := make(map[string]bool)
	for seed := int64(1); seed <= 6; seed++ {
		mqo, err := ScheduleMQO(queries, &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}, GAConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(mqo.Workloads) != 1 {
			t.Fatalf("seed %d: %d workloads, want one", seed, len(mqo.Workloads))
		}
		orders[fmt.Sprint(mqo.Order)] = true
		clock := &ManualClock{}
		eng, err := NewEngine(EngineConfig{
			Clock:           clock,
			Executor:        PlanExecutor{Clock: clock, Rates: rates},
			Strategy:        &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100},
			Rates:           rates,
			Slots:           1,
			GA:              GAConfig{Seed: seed},
			HaltOnPlanError: true,
			RecordOutcomes:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !eng.SubmitGroup(queries, make([]any, len(queries))) {
			t.Fatal("group refused")
		}
		clock.Run()
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		out := eng.Outcomes()
		if len(out) != len(queries) {
			t.Fatalf("seed %d: %d outcomes, want %d", seed, len(out), len(queries))
		}
		for pos, qi := range mqo.Order {
			if got, want := out[pos].Query.ID, queries[qi].ID; got != want {
				t.Errorf("seed %d: dispatch %d is %s, ScheduleMQO orders %s", seed, pos, got, want)
			}
		}
	}
	// Seeds must matter, or a seed-derivation drift between the two callers
	// would go unnoticed.
	if len(orders) < 2 {
		t.Errorf("every seed gave the same order: the scenario cannot tell seed derivations apart")
	}
}

// TestEngineFormationNeedsIVQPStrategy: formation scores through the
// dispatch strategy's planner, so an engine over any other strategy
// refuses a micro-batch window and sends submitted groups to the flagged
// submission-order fallback.
func TestEngineFormationNeedsIVQPStrategy(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, _ := testWorld(t, rates)
	clock := &ManualClock{}
	reg := metrics.NewRegistry()
	exec := &flagExecutor{inner: PlanExecutor{Clock: clock, Rates: rates}, flags: make(map[string]bool)}
	cfg := EngineConfig{
		Clock:          clock,
		Executor:       exec,
		Strategy:       &FixedStrategy{Catalog: catalog, Cost: &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2}, Kind: core.AccessBase},
		Rates:          rates,
		Slots:          1,
		Window:         5,
		RecordOutcomes: true,
		Stats:          reg,
	}
	if _, err := NewEngine(cfg); err == nil {
		t.Error("a micro-batch window over a fixed strategy was accepted")
	}
	cfg.Window = 0
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.SubmitGroup(queriesAt([]core.Time{0, 0, 0}), make([]any, 3)) {
		t.Fatal("group refused")
	}
	clock.Run()
	if got := len(eng.Outcomes()); got != 3 {
		t.Fatalf("outcomes = %d, want 3", got)
	}
	if flat := reg.Flatten(); flat["mqo_fallback_total"] != 1 {
		t.Errorf("mqo_fallback_total = %v, want 1", flat["mqo_fallback_total"])
	}
	for id, fb := range exec.flags {
		if !fb {
			t.Errorf("query %s not flagged as MQO fallback", id)
		}
	}
}

// pricingCounter counts the plans a planner prices through it.
type pricingCounter struct {
	core.CostModel
	n int
}

func (c *pricingCounter) Estimate(q core.Query, access []core.TableAccess, start core.Time) core.CostEstimate {
	c.n++
	return c.CostModel.Estimate(q, access, start)
}

// BenchmarkFormBatch times the GA layer on the shape of the batch_mqo
// workload: one 16-query batch submitted at one instant over fully
// replicated tables, formed and GA-ordered with the default 40×50 GA.
// /uniform gives every member one processing cost, so the instants members
// reach the head collapse onto a few values; /weighted gives them ten
// distinct per-query weights, as the ten light templates have, which is
// what a formation really prices. /calibrated prices /uniform's plans
// through a CalibratedModel warmed with every configuration they read, as
// the live server's model is, so each estimate builds and looks up a
// configuration key. /live prices /weighted's plans over the DSS's
// catalog: replica freshness from a sync agent, site health from
// breakers (LiveCatalog).
func BenchmarkFormBatch(b *testing.B) {
	b.Run("uniform", func(b *testing.B) { benchmarkFormBatch(b, nil, false, false) })
	weights := make(map[string]float64)
	for i := 0; i < 16; i++ {
		weights[fmt.Sprintf("q%d", i)] = .5 + .25*float64(i%10)
	}
	b.Run("weighted", func(b *testing.B) { benchmarkFormBatch(b, weights, false, false) })
	b.Run("calibrated", func(b *testing.B) { benchmarkFormBatch(b, nil, true, false) })
	b.Run("live", func(b *testing.B) { benchmarkFormBatch(b, weights, false, true) })
}

// LiveCatalog builds the DSS's catalog over placement: each table kept
// fresh by a replsync.Agent, synced at 0 and armed every period, and each
// site's health read from a breaker. The external test package sets it,
// since replsync and faults import this package.
var LiveCatalog func(tb testing.TB, placement *federation.Placement, period core.Duration) *federation.Catalog

func benchmarkFormBatch(b *testing.B, weights map[string]float64, calibrated, live bool) {
	tables := []core.TableID{"c", "o", "n", "r", "l", "s", "p", "ps"}
	sites := make(map[core.TableID]core.SiteID, len(tables))
	mgr := replication.NewManager()
	for i, id := range tables {
		sites[id] = core.SiteID(1 + i/4)
		sched, err := replication.Periodic(60, 0, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Register(id, sched); err != nil {
			b.Fatal(err)
		}
	}
	placement, err := federation.NewPlacement(sites)
	if err != nil {
		b.Fatal(err)
	}
	catalog, err := federation.NewCatalog(placement, mgr)
	if err != nil {
		b.Fatal(err)
	}
	if live {
		catalog = LiveCatalog(b, placement, 60)
	}
	count := &costmodel.CountModel{LocalProcess: .02, PerBaseTable: .05, TransmitFlat: .02, QueryWeights: weights}
	cost := &pricingCounter{CostModel: count}
	queries := make([]core.Query, 16)
	for i := range queries {
		queries[i] = core.Query{
			ID:            fmt.Sprintf("q%d", i),
			Tables:        []core.TableID{tables[i%len(tables)], tables[(3*i+1)%len(tables)]},
			BusinessValue: 1,
			SubmitAt:      1,
		}
	}
	if calibrated {
		cal, err := costmodel.NewCalibratedModel(count)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range queries {
			for mask := 0; mask < 1<<len(q.Tables); mask++ {
				access := make([]core.TableAccess, len(q.Tables))
				for i, id := range q.Tables {
					access[i] = core.TableAccess{Table: id, Site: sites[id], Kind: core.AccessReplica}
					if mask&(1<<i) != 0 {
						access[i].Kind = core.AccessBase
					}
				}
				cal.RecordAccess(q.ID, access, count.Estimate(q, access, 0))
			}
		}
		cost.CostModel = cal
	}
	// The live server's defaults: λCL .5 as batch_mqo runs, a 30-minute
	// planner horizon.
	planner, err := core.NewPlanner(cost, core.PlannerConfig{Rates: core.DiscountRates{CL: .5}, Horizon: 30})
	if err != nil {
		b.Fatal(err)
	}
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 30}
	evaluations := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := form(queries, ev, GAConfig{Seed: 1}, func() core.Time { return 1 },
			func(int) int64 { return 1 },
			func(o ordered) error { evaluations += o.ga.Evaluations; return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cost.n)/float64(b.N), "plans/op")
	b.ReportMetric(float64(evaluations)/float64(b.N), "evals/op")
}
