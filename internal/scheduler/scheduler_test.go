package scheduler

import (
	"fmt"
	"math"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/replication"
	"ivdss/internal/sim"
	"ivdss/internal/stats"
)

func newTestSource(seed int64) *stats.Source { return stats.NewSource(seed) }

// testWorld builds a small hybrid deployment: four tables on two sites,
// two of them replicated on periodic schedules.
func testWorld(t *testing.T, rates core.DiscountRates) (*federation.Catalog, *core.Planner) {
	t.Helper()
	placement, err := federation.NewPlacement(map[core.TableID]core.SiteID{
		"t1": 1, "t2": 1, "t3": 2, "t4": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := replication.NewManager()
	for _, spec := range []struct {
		id     core.TableID
		period core.Duration
	}{{"t1", 10}, {"t3", 15}} {
		sched, err := replication.Periodic(spec.period, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Register(spec.id, sched); err != nil {
			t.Fatal(err)
		}
	}
	catalog, err := federation.NewCatalog(placement, mgr)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.NewPlanner(
		&costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2},
		core.PlannerConfig{Rates: rates, Horizon: 200},
	)
	if err != nil {
		t.Fatal(err)
	}
	return catalog, planner
}

func queriesAt(times []core.Time, tables ...[]core.TableID) []core.Query {
	out := make([]core.Query, len(times))
	for i, at := range times {
		tbls := []core.TableID{"t1", "t2"}
		if i < len(tables) {
			tbls = tables[i]
		}
		out[i] = core.Query{
			ID:            fmt.Sprintf("q%d", i+1),
			Tables:        tbls,
			BusinessValue: 1,
			SubmitAt:      at,
		}
	}
	return out
}

func TestRunSequenceSerializesCoordinator(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}

	queries := queriesAt([]core.Time{0, 0, 0})
	res, err := ev.RunSequence(queries, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	// Later queries in the order must not start before earlier ones end.
	for i := 1; i < len(res.Outcomes); i++ {
		prev, cur := res.Outcomes[i-1], res.Outcomes[i]
		if cur.Plan.Start < prev.Plan.ResultAt() {
			t.Errorf("query %d started at %v before predecessor finished at %v",
				i, cur.Plan.Start, prev.Plan.ResultAt())
		}
	}
	// Values decline down the sequence (same query shape, more waiting).
	if res.Outcomes[2].Value > res.Outcomes[0].Value {
		t.Errorf("third query value %v exceeds first %v", res.Outcomes[2].Value, res.Outcomes[0].Value)
	}
	if res.Makespan <= 0 || res.TotalValue <= 0 {
		t.Errorf("result = %+v", res)
	}
	if got := res.MeanValue(); math.Abs(got-res.TotalValue/3) > 1e-12 {
		t.Errorf("MeanValue = %v", got)
	}
}

func TestRunSequenceValidatesOrder(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog}
	queries := queriesAt([]core.Time{0, 1})
	for _, order := range [][]int{{0}, {0, 0}, {0, 5}, {0, -1}} {
		if _, err := ev.RunSequence(queries, order, 0); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	if _, err := (&Evaluator{}).RunSequence(queries, []int{0, 1}, 0); err == nil {
		t.Error("evaluator without planner accepted")
	}
}

func TestOptimizeOrderFindsPlantedOptimum(t *testing.T) {
	// Fitness rewards a specific permutation's pairwise order; the GA must
	// find (or closely approach) it.
	want := []int{3, 1, 4, 0, 2, 5}
	pos := make([]int, len(want))
	for i, g := range want {
		pos[g] = i
	}
	fitness := func(order []int) (float64, error) {
		score := 0.0
		for i, g := range order {
			if pos[g] == i {
				score++
			}
		}
		return score, nil
	}
	got, fit, st, err := OptimizeOrder(len(want), fitness, GAConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fit < float64(len(want)) {
		t.Errorf("GA fitness %v did not reach optimum %d (order %v)", fit, len(want), got)
	}
	if st.Evaluations == 0 || st.Generations != 50 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOptimizeOrderNeverWorseThanFIFO(t *testing.T) {
	// Identity is seeded into the initial population, so the GA result can
	// never be worse than FIFO for any fitness function.
	fitness := func(order []int) (float64, error) {
		// FIFO-favouring fitness.
		score := 0.0
		for i, g := range order {
			if g == i {
				score += 10
			}
		}
		return score, nil
	}
	_, fit, _, err := OptimizeOrder(8, fitness, GAConfig{Seed: 1, Generations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fit < 80 {
		t.Errorf("GA fitness %v below the seeded FIFO fitness 80", fit)
	}
}

// goldenFitness is a fixed synthetic score: gene g weighs
// 1 + (7g mod 13)/10 and earns it discounted by 0.9 per position. Genes
// 0 and 13 (and 1 and 14) weigh the same, so at n = 16 which of the tied
// optima the GA lands on is decided by its random stream alone.
func goldenFitness(order []int) (float64, error) {
	total, discount := 0.0, 1.0
	for _, g := range order {
		total += (1 + float64(7*g%13)/10) * discount
		discount *= 0.9
	}
	return total, nil
}

// TestOptimizeOrderGolden pins the GA's whole random stream: the order it
// returns, its fitness bits and its counters, for three seeds and three
// sizes, against the fixed goldenFitness. A change to crossover, mutation,
// ranking or the memo that draws the stream differently, or ranks ties
// differently, moves at least one of these.
func TestOptimizeOrderGolden(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		n        int
		order    []int
		fitBits  uint64
		evals    int
		identity uint64
	}{
		{1, 2, []int{1, 0}, 0x4004cccccccccccd, 2, 0x40043d70a3d70a3e},
		{1, 5, []int{3, 1, 4, 2, 0}, 0x40170a3d70a3d70a, 71, 0x4016150331e3a7db},
		{1, 16, []int{11, 9, 7, 5, 3, 1, 12, 14, 10, 8, 6, 4, 2, 15, 0, 13}, 0x402bf8efc549ad2f, 542, 0x40287b666a9e0f56},
		{7, 2, []int{1, 0}, 0x4004cccccccccccd, 2, 0x40043d70a3d70a3e},
		{7, 5, []int{3, 1, 4, 2, 0}, 0x40170a3d70a3d70a, 68, 0x4016150331e3a7db},
		{7, 16, []int{11, 9, 7, 5, 3, 1, 14, 12, 10, 8, 6, 4, 2, 13, 15, 0}, 0x402bfa5b2c6ec3bc, 648, 0x40287b666a9e0f56},
		{42, 2, []int{1, 0}, 0x4004cccccccccccd, 2, 0x40043d70a3d70a3e},
		{42, 5, []int{3, 1, 4, 2, 0}, 0x40170a3d70a3d70a, 62, 0x4016150331e3a7db},
		{42, 16, []int{9, 11, 7, 5, 3, 14, 1, 12, 10, 8, 6, 4, 2, 15, 13, 0}, 0x402bf6899efa0d33, 659, 0x40287b666a9e0f56},
	} {
		order, fit, st, err := OptimizeOrder(c.n, goldenFitness, GAConfig{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != fmt.Sprint(c.order) || math.Float64bits(fit) != c.fitBits {
			t.Errorf("seed %d n %d: order %v fitness %#x, want %v %#x", c.seed, c.n, order, math.Float64bits(fit), c.order, c.fitBits)
		}
		if st.Evaluations != c.evals || st.Generations != 50 || math.Float64bits(st.Identity) != c.identity {
			t.Errorf("seed %d n %d: stats %+v (identity %#x), want %d evaluations, 50 generations, identity %#x",
				c.seed, c.n, st, math.Float64bits(st.Identity), c.evals, c.identity)
		}
	}
}

func TestOptimizeOrderSingleQuery(t *testing.T) {
	order, fit, _, err := OptimizeOrder(1, func([]int) (float64, error) { return 7, nil }, GAConfig{})
	if err != nil || len(order) != 1 || fit != 7 {
		t.Errorf("single query: %v %v %v", order, fit, err)
	}
}

func TestOptimizeOrderConfigValidation(t *testing.T) {
	fit := func([]int) (float64, error) { return 0, nil }
	if _, _, _, err := OptimizeOrder(0, fit, GAConfig{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, _, err := OptimizeOrder(3, fit, GAConfig{Population: 1}); err == nil {
		t.Error("population 1 accepted")
	}
	if _, _, _, err := OptimizeOrder(3, fit, GAConfig{MutationRate: 2}); err == nil {
		t.Error("mutation rate 2 accepted")
	}
	if _, _, _, err := OptimizeOrder(3, fit, GAConfig{Elite: 40, Population: 40}); err == nil {
		t.Error("elite == population accepted")
	}
}

func TestOptimizeOrderPropagatesFitnessError(t *testing.T) {
	boom := fmt.Errorf("boom")
	_, _, _, err := OptimizeOrder(4, func([]int) (float64, error) { return 0, boom }, GAConfig{})
	if err == nil {
		t.Error("fitness error swallowed")
	}
}

func TestOrderCrossoverProducesPermutations(t *testing.T) {
	srcLike := func(seed int64) {
		a := []int{0, 1, 2, 3, 4, 5, 6}
		b := []int{6, 5, 4, 3, 2, 1, 0}
		src := newTestSource(seed)
		child := make([]int, len(a))
		for trial := 0; trial < 200; trial++ {
			for i := range child {
				child[i] = -1 // a gene left unwritten shows
			}
			orderCrossover(a, b, src, make([]bool, len(a)), child)
			seen := make([]bool, len(a))
			for _, g := range child {
				if g < 0 || g >= len(a) || seen[g] {
					t.Fatalf("child %v is not a permutation", child)
				}
				seen[g] = true
			}
		}
	}
	srcLike(1)
	srcLike(99)
}

func TestFormWorkloads(t *testing.T) {
	queries := queriesAt([]core.Time{0, 5, 50, 52, 200})
	widths := []core.Duration{10, 10, 10, 10, 10}
	ws, err := FormWorkloads(queries, widths)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("workloads = %d, want 3 (got %+v)", len(ws), ws)
	}
	if len(ws[0].Indices) != 2 || len(ws[1].Indices) != 2 || len(ws[2].Indices) != 1 {
		t.Errorf("workload sizes = %v %v %v", ws[0].Indices, ws[1].Indices, ws[2].Indices)
	}
	if _, err := FormWorkloads(queries, widths[:2]); err == nil {
		t.Error("mismatched widths accepted")
	}
}

func TestFormWorkloadsChainedOverlap(t *testing.T) {
	// 0-10, 8-18, 16-26: transitive overlap forms one workload.
	queries := queriesAt([]core.Time{0, 8, 16})
	ws, err := FormWorkloads(queries, []core.Duration{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || len(ws[0].Indices) != 3 {
		t.Errorf("workloads = %+v", ws)
	}
}

func TestPlanRanges(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}
	queries := queriesAt([]core.Time{0, 10})
	widths, err := PlanRanges(queries, ev, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range widths {
		if w <= 0 || math.IsInf(w, 1) {
			t.Errorf("width[%d] = %v", i, w)
		}
	}
	if _, err := PlanRanges(queries, ev, 0); err == nil {
		t.Error("zero fallback accepted")
	}
}

func TestPlanRangesZeroRatesFallsBack(t *testing.T) {
	catalog, _ := testWorld(t, core.DiscountRates{})
	planner, err := core.NewPlanner(&costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2},
		core.PlannerConfig{Rates: core.DiscountRates{}})
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{Planner: planner, Catalog: catalog} // no horizon either
	queries := queriesAt([]core.Time{0})
	widths, err := PlanRanges(queries, ev, 123)
	if err != nil {
		t.Fatal(err)
	}
	if widths[0] != 123 {
		t.Errorf("width = %v, want fallback 123", widths[0])
	}
}

func TestScheduleMQOBeatsOrMatchesFIFO(t *testing.T) {
	rates := core.DiscountRates{CL: .15, SL: .15}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}

	// A bursty workload with mixed table sets, the regime where ordering
	// matters (Figure 9).
	queries := queriesAt(
		[]core.Time{0, 0.5, 1, 1.5, 2, 2.5},
		[]core.TableID{"t1", "t2"},
		[]core.TableID{"t3"},
		[]core.TableID{"t1", "t3", "t4"},
		[]core.TableID{"t2"},
		[]core.TableID{"t1"},
		[]core.TableID{"t4", "t2"},
	)
	fifo, err := ScheduleFIFO(queries, ev)
	if err != nil {
		t.Fatal(err)
	}
	mqo, err := ScheduleMQO(queries, ev, GAConfig{Seed: 5, Generations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if mqo.TotalValue < fifo.TotalValue-1e-9 {
		t.Errorf("MQO total %v worse than FIFO %v", mqo.TotalValue, fifo.TotalValue)
	}
	if len(mqo.Outcomes) != len(queries) {
		t.Errorf("MQO outcomes = %d", len(mqo.Outcomes))
	}
	if mqo.Evaluations == 0 {
		t.Error("GA never evaluated")
	}
	// Every query appears exactly once in the final order.
	seen := make(map[int]bool)
	for _, idx := range mqo.Order {
		if seen[idx] {
			t.Errorf("query index %d scheduled twice", idx)
		}
		seen[idx] = true
	}
}

// submitAll schedules every query's arrival on the simulator; call before
// running it.
func submitAll(s *sim.Simulator, e *Engine, queries []core.Query) {
	for _, q := range queries {
		s.ScheduleAt(q.SubmitAt, func() { e.Submit(q, nil) })
	}
}

func TestDispatcherCompletesAllQueries(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	s := sim.New()
	strategy := &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}
	d, err := NewSimEngine(s, strategy, rates, 1, core.Aging{})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesAt([]core.Time{0, 1, 2, 3, 20})
	submitAll(s, d, queries)
	s.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if len(d.Outcomes()) != 5 || d.Pending() != 0 {
		t.Fatalf("outcomes = %d, pending = %d", len(d.Outcomes()), d.Pending())
	}
	for _, o := range d.Outcomes() {
		if o.Value <= 0 || o.Value > 1 {
			t.Errorf("%s value = %v", o.Query.ID, o.Value)
		}
		if o.Latencies.CL < 0 || o.Latencies.SL < 0 {
			t.Errorf("%s latencies = %+v", o.Query.ID, o.Latencies)
		}
	}
}

func TestDispatcherBaselines(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	cost := &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2}
	queries := queriesAt([]core.Time{5, 6}) // after the t=0 syncs

	run := func(strategy Strategy) []Outcome {
		s := sim.New()
		d, err := NewSimEngine(s, strategy, rates, 1, core.Aging{})
		if err != nil {
			t.Fatal(err)
		}
		submitAll(s, d, queries)
		s.Run()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		return d.Outcomes()
	}

	fed := run(&FixedStrategy{Catalog: catalog, Cost: cost, Kind: core.AccessBase})
	ivqp := run(&IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100})
	var fedTotal, ivqpTotal float64
	for i := range fed {
		fedTotal += fed[i].Value
		ivqpTotal += ivqp[i].Value
	}
	if ivqpTotal < fedTotal-1e-9 {
		t.Errorf("IVQP total %v below Federation %v", ivqpTotal, fedTotal)
	}
	for _, o := range fed {
		if len(o.Plan.BaseTables()) != len(o.Query.Tables) {
			t.Errorf("federation plan used a replica: %s", o.Plan.Signature())
		}
	}
}

func TestDispatcherWarehouseNeedsReplicas(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, _ := testWorld(t, rates)
	cost := &costmodel.CountModel{LocalProcess: 2}
	s := sim.New()
	d, err := NewSimEngine(s, &FixedStrategy{Catalog: catalog, Cost: cost, Kind: core.AccessReplica}, rates, 1, core.Aging{})
	if err != nil {
		t.Fatal(err)
	}
	// t2 has no replica: the warehouse strategy must fail and surface it.
	submitAll(s, d, queriesAt([]core.Time{5}))
	s.Run()
	if d.Err() == nil {
		t.Error("warehouse dispatch over unreplicated table succeeded")
	}
}

// TestDispatcherAgingPreventsStarvation reproduces the Section 3.3
// scenario: under a steady stream of high-value cheap queries, a low-value
// query starves without aging and completes with it.
func TestDispatcherAgingPreventsStarvation(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)

	var queries []core.Query
	// The victim: modest business value, arriving into an already-loaded
	// system so every dispatch decision can pass it over.
	queries = append(queries, core.Query{ID: "victim", Tables: []core.TableID{"t1"}, BusinessValue: .2, SubmitAt: 1})
	// A saturating stream of valuable queries arriving faster than they finish.
	for i := 0; i < 40; i++ {
		queries = append(queries, core.Query{
			ID:            fmt.Sprintf("hot%02d", i),
			Tables:        []core.TableID{"t1", "t2"},
			BusinessValue: 1,
			SubmitAt:      core.Time(i) * 0.5,
		})
	}

	waitOf := func(aging core.Aging) core.Duration {
		s := sim.New()
		d, err := NewSimEngine(s, &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}, rates, 1, aging)
		if err != nil {
			t.Fatal(err)
		}
		submitAll(s, d, queries)
		s.Run()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		for _, o := range d.Outcomes() {
			if o.Query.ID == "victim" {
				return o.Wait
			}
		}
		t.Fatal("victim never completed")
		return 0
	}

	without := waitOf(core.Aging{})
	with := waitOf(core.Aging{Coefficient: .05, Exponent: 1.5})
	if with >= without {
		t.Errorf("aging did not reduce the victim's wait: %v with vs %v without", with, without)
	}
}

func TestNewDispatcherValidation(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	strategy := &IVQPStrategy{Planner: planner, Catalog: catalog}
	s := sim.New()
	if _, err := NewSimEngine(nil, strategy, rates, 1, core.Aging{}); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := NewSimEngine(s, nil, rates, 1, core.Aging{}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := NewSimEngine(s, strategy, rates, 0, core.Aging{}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewSimEngine(s, strategy, core.DiscountRates{CL: 5}, 1, core.Aging{}); err == nil {
		t.Error("bad rates accepted")
	}
	if _, err := NewSimEngine(s, strategy, rates, 1, core.Aging{Coefficient: -1}); err == nil {
		t.Error("bad aging accepted")
	}
}

func TestDispatcherMultipleSlots(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	queries := queriesAt([]core.Time{0, 0, 0, 0})

	makespan := func(slots int) core.Time {
		s := sim.New()
		d, err := NewSimEngine(s, &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}, rates, slots, core.Aging{})
		if err != nil {
			t.Fatal(err)
		}
		submitAll(s, d, queries)
		s.Run()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if len(d.Outcomes()) != len(queries) {
			t.Fatalf("slots=%d: %d outcomes", slots, len(d.Outcomes()))
		}
		return s.Now()
	}
	one := makespan(1)
	four := makespan(4)
	if four >= one {
		t.Errorf("4 slots (%v) not faster than 1 slot (%v)", four, one)
	}
}

func TestDispatcherOutcomesValueSumMatchesIVFormula(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	s := sim.New()
	d, err := NewSimEngine(s, &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}, rates, 1, core.Aging{})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesAt([]core.Time{0, 1, 7})
	submitAll(s, d, queries)
	s.Run()
	for _, o := range d.Outcomes() {
		want := core.InformationValue(o.Query.BusinessValue, o.Latencies, rates)
		if math.Abs(o.Value-want) > 1e-12 {
			t.Errorf("%s: value %v != formula %v", o.Query.ID, o.Value, want)
		}
		if o.Plan.Start < o.Query.SubmitAt {
			t.Errorf("%s: started before submission", o.Query.ID)
		}
		if o.Wait < 0 {
			t.Errorf("%s: negative wait %v", o.Query.ID, o.Wait)
		}
	}
}

func TestRunSequenceOutOfOrderSubmissionTimes(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}
	// Order runs the LATE query first: the early one then queues behind it.
	queries := queriesAt([]core.Time{0, 50})
	res, err := ev.RunSequence(queries, []int{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The late query cannot start before its own submission.
	if res.Outcomes[0].Plan.Start < 50 {
		t.Errorf("late query started at %v before submission", res.Outcomes[0].Plan.Start)
	}
	// The early query waited for the late one's completion.
	if res.Outcomes[1].Wait <= 0 {
		t.Errorf("early query should have waited, got %v", res.Outcomes[1].Wait)
	}
}

func TestScheduleMQOWorkloadCarryOver(t *testing.T) {
	rates := core.DiscountRates{CL: .1, SL: .1}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}
	// Two workloads: the first is long enough to overrun the second's
	// start; the scheduler must carry the clock forward, not overlap.
	queries := queriesAt([]core.Time{0, 0.5, 1, 1.5, 8})
	res, err := ScheduleMQO(queries, ev, GAConfig{Seed: 2, Generations: 5})
	if err != nil {
		t.Fatal(err)
	}
	var lastEnd core.Time
	for _, o := range res.Outcomes {
		if o.Plan.Start < lastEnd-1e-9 {
			t.Errorf("%s started at %v before previous finished at %v", o.Query.ID, o.Plan.Start, lastEnd)
		}
		if end := o.Plan.ResultAt(); end > lastEnd {
			lastEnd = end
		}
	}
}
