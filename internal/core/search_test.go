package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// countCost mirrors the paper's Figure 4 cost shape: `local` time units
// when only replicas are read, plus `perBase` per remote base table. It is
// identity-blind, the regime in which prefix pruning is exact.
type countCost struct {
	local, perBase Duration
}

func (c countCost) Estimate(_ Query, access []TableAccess, _ Time) CostEstimate {
	bases := 0
	for _, a := range access {
		if a.Kind == AccessBase {
			bases++
		}
	}
	return CostEstimate{Process: c.local + c.perBase*Duration(bases)}
}

// weightedCost charges a distinct remote cost per table, which breaks
// identity-blindness and makes prefix pruning heuristic.
type weightedCost struct {
	local   Duration
	weights map[TableID]Duration
}

func (c weightedCost) Estimate(_ Query, access []TableAccess, _ Time) CostEstimate {
	process := c.local
	for _, a := range access {
		if a.Kind == AccessBase {
			process += c.weights[a.Table]
		}
	}
	return CostEstimate{Process: process}
}

// figure4State builds the catalog of the paper's Figure 4 walkthrough:
// four replicated tables; at submission time 11 the replicas were last
// synchronized at 2 (R4), 4 (R1), 6 (R2) and 8 (R3), and R4 is the next to
// synchronize again.
func figure4State() []TableState {
	return []TableState{
		{ID: "T1", Site: 1, Replica: &ReplicaState{LastSync: 4, NextSyncs: []Time{20, 36}}},
		{ID: "T2", Site: 2, Replica: &ReplicaState{LastSync: 6, NextSyncs: []Time{24, 42}}},
		{ID: "T3", Site: 3, Replica: &ReplicaState{LastSync: 8, NextSyncs: []Time{28}}},
		{ID: "T4", Site: 4, Replica: &ReplicaState{LastSync: 2, NextSyncs: []Time{12, 22, 32}}},
	}
}

func figure4Query() Query {
	return Query{
		ID:            "Q",
		Tables:        []TableID{"T1", "T2", "T3", "T4"},
		BusinessValue: 1,
		SubmitAt:      11,
	}
}

func mustPlanner(t *testing.T, cost CostModel, cfg PlannerConfig) *Planner {
	t.Helper()
	p, err := NewPlanner(cost, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlannerValidation(t *testing.T) {
	cost := countCost{local: 2, perBase: 2}
	if _, err := NewPlanner(nil, PlannerConfig{}); err == nil {
		t.Error("nil cost model accepted")
	}
	if _, err := NewPlanner(cost, PlannerConfig{Rates: DiscountRates{CL: 2}}); err == nil {
		t.Error("invalid rates accepted")
	}
	if _, err := NewPlanner(cost, PlannerConfig{Mode: SearchMode(42)}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewPlanner(cost, PlannerConfig{Horizon: -1}); err == nil {
		t.Error("negative horizon accepted")
	}
	p := mustPlanner(t, cost, PlannerConfig{})
	if p.Mode() != ScatterGather {
		t.Errorf("default mode = %v, want scatter-gather", p.Mode())
	}
}

func TestBestRejectsBadInput(t *testing.T) {
	p := mustPlanner(t, countCost{2, 2}, PlannerConfig{Rates: DiscountRates{CL: .1, SL: .1}})
	states := figure4State()
	if _, _, err := p.Best(Query{}, states, 0); err == nil {
		t.Error("invalid query accepted")
	}
	q := figure4Query()
	if _, _, err := p.Best(q, states, q.SubmitAt-1); err == nil {
		t.Error("decision time before submission accepted")
	}
	if _, _, err := p.Best(q, states[:2], q.SubmitAt); err == nil {
		t.Error("missing table state accepted")
	}
}

// TestFigure4Walkthrough reproduces the scatter step of the paper's worked
// example: the all-base seed plan has CL = SL = 10, information value
// 0.9^10 × 0.9^10, and a tolerated computational latency of 20 (search
// boundary 11 + 20 = 31).
func TestFigure4Walkthrough(t *testing.T) {
	rates := DiscountRates{CL: .1, SL: .1}
	cost := countCost{local: 2, perBase: 2}
	q := figure4Query()
	states := figure4State()

	seed, err := FixedPlan(q, states, q.SubmitAt, cost, func(TableState) AccessKind { return AccessBase })
	if err != nil {
		t.Fatal(err)
	}
	lat := seed.Latencies()
	if lat.CL != 10 || lat.SL != 10 {
		t.Fatalf("seed latencies = %+v, want CL=SL=10", lat)
	}
	seedVal := seed.Value(rates)
	if want := math.Pow(.9, 20); math.Abs(seedVal-want) > 1e-12 {
		t.Fatalf("seed IV = %v, want %v", seedVal, want)
	}
	if b := ToleratedCL(1, seedVal, rates); math.Abs(b-20) > 1e-9 {
		t.Fatalf("tolerated CL = %v, want 20", b)
	}

	p := mustPlanner(t, cost, PlannerConfig{Rates: rates})
	best, stats, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if best.Value(rates) < seedVal {
		t.Errorf("search returned %v, worse than the seed %v", best.Value(rates), seedVal)
	}
	if stats.PlansEvaluated == 0 || stats.TimePoints == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	// The all-replica plan at t=11 has CL=2 and SL = 13−2 = 11:
	// IV = 0.9^13 ≈ 0.254, beating the seed 0.9^20 ≈ 0.122. The boundary
	// must therefore have shrunk below the initial 20.
	if stats.FinalBound >= 20 {
		t.Errorf("final bound %v did not shrink below 20", stats.FinalBound)
	}
}

func TestScatterGatherMatchesExhaustiveOnFigure4(t *testing.T) {
	rates := DiscountRates{CL: .1, SL: .1}
	cost := countCost{local: 2, perBase: 2}
	q := figure4Query()
	states := figure4State()

	var values []float64
	var evaluated []int
	for _, mode := range []SearchMode{ScatterGather, ScatterGatherFull, Exhaustive} {
		p := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: mode})
		best, stats, err := p.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, best.Value(rates))
		evaluated = append(evaluated, stats.PlansEvaluated)
	}
	for i := 1; i < len(values); i++ {
		if math.Abs(values[i]-values[0]) > 1e-12 {
			t.Errorf("mode %d found value %v, mode 0 found %v", i, values[i], values[0])
		}
	}
	if evaluated[0] >= evaluated[2] {
		t.Errorf("scatter-gather evaluated %d plans, not fewer than exhaustive %d", evaluated[0], evaluated[2])
	}
}

func TestPlannerPrefersFreshDataWhenSLDominates(t *testing.T) {
	// λSL >> λCL: stale replicas hurt much more than slow remote reads, so
	// the planner should run at base tables (Figure 1, plan 1).
	cost := countCost{local: 2, perBase: 2}
	states := []TableState{
		{ID: "T1", Site: 1, Replica: &ReplicaState{LastSync: 0}},
		{ID: "T2", Site: 2, Replica: &ReplicaState{LastSync: 0}},
	}
	q := Query{ID: "q", Tables: []TableID{"T1", "T2"}, BusinessValue: 1, SubmitAt: 100}
	p := mustPlanner(t, cost, PlannerConfig{Rates: DiscountRates{CL: .001, SL: .2}})
	best, _, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(best.BaseTables()); got != 2 {
		t.Errorf("plan uses %d base tables, want 2: %s", got, best.Signature())
	}
}

func TestPlannerPrefersReplicasWhenCLDominates(t *testing.T) {
	// λCL >> λSL: response time is everything (Figure 1, plan 2).
	cost := countCost{local: 2, perBase: 20}
	states := []TableState{
		{ID: "T1", Site: 1, Replica: &ReplicaState{LastSync: 95}},
		{ID: "T2", Site: 2, Replica: &ReplicaState{LastSync: 97}},
	}
	q := Query{ID: "q", Tables: []TableID{"T1", "T2"}, BusinessValue: 1, SubmitAt: 100}
	p := mustPlanner(t, cost, PlannerConfig{Rates: DiscountRates{CL: .2, SL: .001}})
	best, _, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(best.BaseTables()); got != 0 {
		t.Errorf("plan uses %d base tables, want 0: %s", got, best.Signature())
	}
}

func TestPlannerDelaysForImminentSync(t *testing.T) {
	// Figure 2: a sync completes moments after submission; with λSL > λCL
	// waiting for it beats running on a very stale replica or a slow base.
	cost := countCost{local: 1, perBase: 50}
	states := []TableState{
		{ID: "T1", Site: 1, Replica: &ReplicaState{LastSync: 0, NextSyncs: []Time{101}}},
	}
	q := Query{ID: "q", Tables: []TableID{"T1"}, BusinessValue: 1, SubmitAt: 100}
	p := mustPlanner(t, cost, PlannerConfig{Rates: DiscountRates{CL: .01, SL: .1}})
	best, _, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if best.Start != 101 {
		t.Errorf("plan start = %v, want 101 (delayed to sync): %s", best.Start, best.Signature())
	}
	if len(best.BaseTables()) != 0 {
		t.Errorf("plan should use the fresh replica: %s", best.Signature())
	}
}

func TestPlannerIgnoresSyncsBeyondBound(t *testing.T) {
	// A sync far in the future cannot beat the current optimum once the
	// discount has eaten the business value; the search must prune it.
	cost := countCost{local: 1, perBase: 2}
	states := []TableState{
		{ID: "T1", Site: 1, Replica: &ReplicaState{LastSync: 99, NextSyncs: []Time{10000}}},
	}
	q := Query{ID: "q", Tables: []TableID{"T1"}, BusinessValue: 1, SubmitAt: 100}
	p := mustPlanner(t, cost, PlannerConfig{Rates: DiscountRates{CL: .05, SL: .05}})
	best, stats, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedEvents != 1 {
		t.Errorf("PrunedEvents = %d, want 1", stats.PrunedEvents)
	}
	if best.Start != 100 {
		t.Errorf("plan start = %v, want immediate execution", best.Start)
	}
}

func TestPlannerHorizonCapsDelays(t *testing.T) {
	cost := countCost{local: 1, perBase: 100}
	states := []TableState{
		{ID: "T1", Site: 1, Replica: &ReplicaState{LastSync: 0, NextSyncs: []Time{150}}},
	}
	q := Query{ID: "q", Tables: []TableID{"T1"}, BusinessValue: 1, SubmitAt: 100}
	// Without a horizon the planner would happily wait until 150 under a
	// tiny λCL; a 10-minute horizon forbids it.
	p := mustPlanner(t, cost, PlannerConfig{Rates: DiscountRates{CL: .0001, SL: .1}, Horizon: 10})
	best, _, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if best.Start > 110 {
		t.Errorf("plan start %v violates 10-minute horizon", best.Start)
	}
}

func TestExhaustiveMaxPlansGuard(t *testing.T) {
	cost := countCost{local: 1, perBase: 1}
	var states []TableState
	var tables []TableID
	for _, id := range []TableID{"a", "b", "c", "d", "e"} {
		states = append(states, TableState{ID: id, Site: 1, Replica: &ReplicaState{LastSync: 0, NextSyncs: []Time{5, 6, 7}}})
		tables = append(tables, id)
	}
	q := Query{ID: "q", Tables: tables, BusinessValue: 1, SubmitAt: 1}
	p := mustPlanner(t, cost, PlannerConfig{Rates: DiscountRates{CL: .1, SL: .1}, Mode: Exhaustive, MaxPlans: 100})
	if _, _, err := p.Best(q, states, q.SubmitAt); err == nil {
		t.Error("exhaustive search over MaxPlans accepted")
	}
}

func TestFixedPlanErrors(t *testing.T) {
	cost := countCost{local: 1, perBase: 1}
	states := []TableState{{ID: "a", Site: 1}} // no replica
	q := Query{ID: "q", Tables: []TableID{"a"}, BusinessValue: 1}
	if _, err := FixedPlan(q, states, 0, cost, func(TableState) AccessKind { return AccessReplica }); err == nil {
		t.Error("replica plan without replica accepted")
	}
	if _, err := FixedPlan(q, states, 0, cost, func(TableState) AccessKind { return AccessKind(9) }); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := FixedPlan(Query{}, states, 0, cost, func(TableState) AccessKind { return AccessBase }); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestReplicaVersionAt(t *testing.T) {
	rs := &ReplicaState{LastSync: 5, NextSyncs: []Time{8, 12}}
	tests := []struct {
		t      Time
		want   Time
		wantOK bool
	}{
		{4, 0, false}, // before first sync
		{5, 5, true},
		{7, 5, true},
		{8, 8, true},
		{20, 12, true},
	}
	for _, tt := range tests {
		got, ok := replicaVersionAt(rs, tt.t)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("replicaVersionAt(%v) = (%v, %v), want (%v, %v)", tt.t, got, ok, tt.want, tt.wantOK)
		}
	}
	if _, ok := replicaVersionAt(nil, 10); ok {
		t.Error("nil replica reported a version")
	}
}

// randomScenario builds a random planning problem for the equivalence
// properties below.
func randomScenario(rng *rand.Rand) (Query, []TableState) {
	n := 1 + rng.Intn(4)
	states := make([]TableState, n)
	tables := make([]TableID, n)
	now := 10 + rng.Float64()*20
	for i := range states {
		id := TableID(string(rune('A' + i)))
		tables[i] = id
		ts := TableState{ID: id, Site: SiteID(1 + rng.Intn(3))}
		if rng.Float64() < .8 {
			last := now - rng.Float64()*15
			rs := &ReplicaState{LastSync: last}
			next := last
			for k := rng.Intn(3); k > 0; k-- {
				next += .5 + rng.Float64()*10
				if next > last {
					rs.NextSyncs = append(rs.NextSyncs, next)
				}
			}
			ts.Replica = rs
		}
		states[i] = ts
	}
	q := Query{ID: "q", Tables: tables, BusinessValue: .5 + rng.Float64(), SubmitAt: now}
	return q, states
}

// TestScatterGatherOptimalUnderCountCost is the central search property:
// under an identity-blind cost model, the paper's prefix-pruned
// scatter-and-gather search finds the same optimal information value as the
// exhaustive reference, on hundreds of random scenarios.
func TestScatterGatherOptimalUnderCountCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rateChoices := []float64{0, .01, .05, .1, .3}
	for trial := 0; trial < 500; trial++ {
		q, states := randomScenario(rng)
		rates := DiscountRates{
			CL: rateChoices[rng.Intn(len(rateChoices))],
			SL: rateChoices[rng.Intn(len(rateChoices))],
		}
		cost := countCost{local: rng.Float64() * 3, perBase: rng.Float64() * 5}
		sg := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: ScatterGather})
		ex := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: Exhaustive})
		sgBest, _, err := sg.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		exBest, _, err := ex.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		sgVal, exVal := sgBest.Value(rates), exBest.Value(rates)
		if math.Abs(sgVal-exVal) > 1e-9 {
			t.Fatalf("trial %d: scatter-gather %v (%s) != exhaustive %v (%s); rates %+v",
				trial, sgVal, sgBest.Signature(), exVal, exBest.Signature(), rates)
		}
	}
}

// TestScatterGatherFullOptimalUnderWeightedCost: with per-table costs the
// prefix chain is only a heuristic, but the full-subset timeline search
// must still match the exhaustive optimum.
func TestScatterGatherFullOptimalUnderWeightedCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		q, states := randomScenario(rng)
		rates := DiscountRates{CL: rng.Float64() * .3, SL: rng.Float64() * .3}
		weights := make(map[TableID]Duration, len(states))
		for _, ts := range states {
			weights[ts.ID] = rng.Float64() * 8
		}
		cost := weightedCost{local: rng.Float64() * 3, weights: weights}
		full := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: ScatterGatherFull})
		ex := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: Exhaustive})
		fullBest, _, err := full.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		exBest, _, err := ex.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		fullVal, exVal := fullBest.Value(rates), exBest.Value(rates)
		if math.Abs(fullVal-exVal) > 1e-9 {
			t.Fatalf("trial %d: full timeline %v (%s) != exhaustive %v (%s)",
				trial, fullVal, fullBest.Signature(), exVal, exBest.Signature())
		}
	}
}

// TestPrefixHeuristicNeverBeatsOptimum: the heuristic can fall short under
// weighted costs but must never report a value above the true optimum and
// must always at least match the all-base seed.
func TestPrefixHeuristicNeverBeatsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		q, states := randomScenario(rng)
		rates := DiscountRates{CL: rng.Float64() * .3, SL: rng.Float64() * .3}
		weights := make(map[TableID]Duration, len(states))
		for _, ts := range states {
			weights[ts.ID] = rng.Float64() * 8
		}
		cost := weightedCost{local: rng.Float64() * 3, weights: weights}
		sg := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: ScatterGather})
		ex := mustPlanner(t, cost, PlannerConfig{Rates: rates, Mode: Exhaustive})
		sgBest, _, err := sg.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		exBest, _, err := ex.Best(q, states, q.SubmitAt)
		if err != nil {
			t.Fatal(err)
		}
		if sgBest.Value(rates) > exBest.Value(rates)+1e-9 {
			t.Fatalf("trial %d: heuristic exceeded the optimum", trial)
		}
		seed, err := FixedPlan(q, states, q.SubmitAt, cost, func(TableState) AccessKind { return AccessBase })
		if err != nil {
			t.Fatal(err)
		}
		if sgBest.Value(rates) < seed.Value(rates)-1e-9 {
			t.Fatalf("trial %d: heuristic worse than its own seed", trial)
		}
	}
}

func TestSearchModeString(t *testing.T) {
	if ScatterGather.String() != "scatter-gather" ||
		ScatterGatherFull.String() != "scatter-gather-full" ||
		Exhaustive.String() != "exhaustive" {
		t.Error("unexpected mode names")
	}
}

// recordingCost prices like its inner model and logs every candidate it is
// asked about, in order, so two searches can be compared call for call.
type recordingCost struct {
	inner CostModel
	calls []pricedCall
}

type pricedCall struct {
	access []TableAccess
	start  Time
}

func (c *recordingCost) Estimate(q Query, access []TableAccess, start Time) CostEstimate {
	c.calls = append(c.calls, pricedCall{append([]TableAccess(nil), access...), start})
	return c.inner.Estimate(q, access, start)
}

// randomPlanningState draws a planning problem over 1–6 tables that mixes
// every shape the enumerator branches on: replicas current, pending (a
// LastSync still in the future) or absent, with and without scheduled
// syncs; views covering this query and views covering another; BaseDown
// tables with and without a local source. Half the draws put every
// instant on a whole-minute grid, so freshness ties are common.
func randomPlanningState(rng *rand.Rand) (Query, []TableState, Time) {
	n := 1 + rng.Intn(6)
	grid := rng.Intn(2) == 0
	at := func(x float64) Time {
		if grid {
			return math.Round(x)
		}
		return x
	}
	submit := at(10 + rng.Float64()*20)
	now := submit + at(rng.Float64()*3)
	timeline := func() (Time, []Time) {
		last := at(now - rng.Float64()*15)
		if rng.Intn(4) == 0 {
			last = at(now + .5 + rng.Float64()*6) // first sync still pending
		}
		var next []Time
		prev := last
		for k := rng.Intn(4); k > 0; k-- {
			prev = at(prev + 1 + rng.Float64()*8)
			next = append(next, prev)
		}
		return last, next
	}
	q := Query{ID: "q", BusinessValue: .5 + rng.Float64(), SubmitAt: submit}
	states := make([]TableState, n)
	for i := range states {
		ts := TableState{ID: TableID(string(rune('A' + i))), Site: SiteID(1 + rng.Intn(3)), BaseDown: rng.Intn(5) == 0}
		if rng.Intn(10) < 7 {
			last, next := timeline()
			ts.Replica = &ReplicaState{LastSync: last, NextSyncs: next}
		}
		for v := rng.Intn(3); v > 0; v-- {
			last, next := timeline()
			covers := q.ID
			if rng.Intn(3) == 0 {
				covers = "other"
			}
			ts.Views = append(ts.Views, ViewState{ID: ViewID(fmt.Sprintf("v%d", len(ts.Views))), QueryID: covers, LastSync: last, NextSyncs: next})
		}
		states[i] = ts
		q.Tables = append(q.Tables, ts.ID)
	}
	return q, states, now
}

// TestEnumeratorMatchesOracle: on thousands of random states, a search
// episode prices exactly the assignments the parent enumerator listed, in
// the same order, at every time point, in prefix and full mode, with and
// without skipAllBase; and it walks the same sync events.
func TestEnumeratorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 2500; trial++ {
		q, states, now := randomPlanningState(rng)
		rec := &recordingCost{inner: countCost{local: 1, perBase: 2}}
		p := mustPlanner(t, rec, PlannerConfig{Rates: DiscountRates{CL: .1, SL: .1}})
		for _, until := range []Time{math.Inf(1), now + 6} {
			want := syncEventsWithin(q, states, now, until)
			s := newSearch(p, q, states, nil)
			got := s.syncEvents(nil, now, until)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: sync events in (%v, %v] = %v, oracle %v", trial, now, until, got, want)
			}
		}
		times := append([]Time{now, now + 2.5}, syncEventsWithin(q, states, now, math.Inf(1))...)
		for _, tp := range times {
			for _, full := range []bool{false, true} {
				for _, skip := range []bool{false, true} {
					want := p.combinationsAt(q, states, tp, full, skip)
					rec.calls = nil
					s := newSearch(p, q, states, nil)
					s.gatherAt(tp, full, skip)
					if len(rec.calls) != len(want) {
						t.Fatalf("trial %d t=%v full=%v skip=%v: %d assignments, oracle %d", trial, tp, full, skip, len(rec.calls), len(want))
					}
					for i, c := range rec.calls {
						if c.start != tp || !slices.Equal(c.access, want[i]) {
							t.Fatalf("trial %d t=%v full=%v skip=%v: assignment %d = %v @%v, oracle %v",
								trial, tp, full, skip, i, c.access, c.start, want[i])
						}
					}
					if got := s.stats.PlansEvaluated; got != len(want) {
						t.Fatalf("trial %d: %d plans counted for %d priced", trial, got, len(want))
					}
				}
			}
		}
	}
}

// TestBestMatchesOracle: Best and the parent's Best, on the same random
// states, price the same candidates in the same order and return the same
// plan (signature, value bits, cost, start), the same SearchStats and the
// same error, in all three search modes, under identity-blind and
// per-table costs, with and without a horizon, from an ordered snapshot
// and from a shuffled one carrying a table the query does not read.
func TestBestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rateChoices := []float64{0, .01, .05, .1, .3}
	for trial := 0; trial < 2500; trial++ {
		q, states, now := randomPlanningState(rng)
		rates := DiscountRates{CL: rateChoices[rng.Intn(len(rateChoices))], SL: rateChoices[rng.Intn(len(rateChoices))]}
		var inner CostModel = countCost{local: rng.Float64() * 3, perBase: rng.Float64() * 5}
		if rng.Intn(2) == 0 {
			weights := make(map[TableID]Duration, len(states))
			for _, ts := range states {
				weights[ts.ID] = rng.Float64() * 8
			}
			inner = weightedCost{local: rng.Float64() * 3, weights: weights}
		}
		horizon := Duration(0)
		if rng.Intn(2) == 0 {
			horizon = 2 + rng.Float64()*20
		}
		snapshot := states
		if rng.Intn(3) == 0 {
			snapshot = append([]TableState{{ID: "unread", Site: 9}}, states...)
			rng.Shuffle(len(snapshot), func(i, j int) { snapshot[i], snapshot[j] = snapshot[j], snapshot[i] })
		}
		for _, mode := range []SearchMode{ScatterGather, ScatterGatherFull, Exhaustive} {
			cfg := PlannerConfig{Rates: rates, Mode: mode, Horizon: horizon, MaxPlans: 4096}
			oracleRec, rec := &recordingCost{inner: inner}, &recordingCost{inner: inner}
			wantPlan, wantStats, wantErr := mustPlanner(t, oracleRec, cfg).oracleBest(q, snapshot, now)
			gotPlan, gotStats, gotErr := mustPlanner(t, rec, cfg).Best(q, snapshot, now)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d %v: error %v, oracle %v", trial, mode, gotErr, wantErr)
			}
			if gotStats != wantStats {
				t.Fatalf("trial %d %v: stats %+v, oracle %+v", trial, mode, gotStats, wantStats)
			}
			if gotPlan.Signature() != wantPlan.Signature() ||
				math.Float64bits(gotPlan.Value(rates)) != math.Float64bits(wantPlan.Value(rates)) ||
				!reflect.DeepEqual(gotPlan, wantPlan) {
				t.Fatalf("trial %d %v: plan %s (%v), oracle %s (%v)", trial, mode,
					gotPlan.Signature(), gotPlan.Value(rates), wantPlan.Signature(), wantPlan.Value(rates))
			}
			if len(rec.calls) != len(oracleRec.calls) {
				t.Fatalf("trial %d %v: %d candidates priced, oracle %d", trial, mode, len(rec.calls), len(oracleRec.calls))
			}
			for i, c := range rec.calls {
				if c.start != oracleRec.calls[i].start || !slices.Equal(c.access, oracleRec.calls[i].access) {
					t.Fatalf("trial %d %v: candidate %d = %v @%v, oracle %v @%v", trial, mode, i,
						c.access, c.start, oracleRec.calls[i].access, oracleRec.calls[i].start)
				}
			}
		}
	}
}

// The enumerator the planner had before a planning episode learned to
// price candidates in place, kept verbatim as the oracle the differential
// tests below compare against: the DataSource interface and its three
// implementations, TableState.Sources, the [][]TableAccess enumerator
// combinationsAt, the map-based syncEventsWithin, and the searches built
// on them.

// DataSource is one way to answer a table access. Implementations are
// immutable snapshots taken at planning time.
type DataSource interface {
	// Kind is the access kind plans built from this source carry.
	Kind() AccessKind
	// VersionAt returns the freshness timestamp of the newest version
	// available at t, and whether one exists. Base tables are always
	// current; replicas and views have the versions their sync timelines
	// say they have.
	VersionAt(t Time) (Time, bool)
	// EarliestAt returns the earliest instant ≥ now at which any version
	// exists (now itself when one already does).
	EarliestAt(now Time) (Time, bool)
	// EventsWithin lists the future version-completion times in
	// (after, until], ascending.
	EventsWithin(after, until Time) []Time
	// Access builds the plan's table access for the version with
	// freshness v.
	Access(v Time) TableAccess
}

// BaseSource is the authoritative remote base table.
type BaseSource struct {
	Table TableID
	Site  SiteID
}

// Kind returns AccessBase.
func (s BaseSource) Kind() AccessKind { return AccessBase }

// VersionAt reports the base table current at every instant.
func (s BaseSource) VersionAt(t Time) (Time, bool) { return t, true }

// EarliestAt reports the base table available immediately.
func (s BaseSource) EarliestAt(now Time) (Time, bool) { return now, true }

// EventsWithin returns nothing: the base table has no sync timeline.
func (s BaseSource) EventsWithin(after, until Time) []Time { return nil }

// Access builds a base access; base freshness is derived at evaluation
// time, so v is ignored.
func (s BaseSource) Access(Time) TableAccess {
	return TableAccess{Table: s.Table, Site: s.Site, Kind: AccessBase}
}

// ReplicaSource is a synchronized local replica.
type ReplicaSource struct {
	Table TableID
	Site  SiteID // site of the base table the replica mirrors
	State *ReplicaState
}

// Kind returns AccessReplica.
func (s ReplicaSource) Kind() AccessKind { return AccessReplica }

// VersionAt returns the newest replica version synchronized at or before t.
func (s ReplicaSource) VersionAt(t Time) (Time, bool) { return replicaVersionAt(s.State, t) }

// EarliestAt returns the earliest instant ≥ now a replica version exists.
func (s ReplicaSource) EarliestAt(now Time) (Time, bool) { return earliestReplicaAt(s.State, now) }

// EventsWithin lists the replica's scheduled completions in (after, until].
func (s ReplicaSource) EventsWithin(after, until Time) []Time {
	if s.State == nil {
		return nil
	}
	return eventsWithin(s.State.NextSyncs, after, until)
}

// Access builds a replica access at version v.
func (s ReplicaSource) Access(v Time) TableAccess {
	return TableAccess{Table: s.Table, Site: s.Site, Kind: AccessReplica, Freshness: v}
}

// ViewSource is an incrementally maintained materialized view covering one
// query over the table.
type ViewSource struct {
	Table TableID
	Site  SiteID // site of the base table the view is maintained over
	State ViewState
}

// Kind returns AccessView.
func (s ViewSource) Kind() AccessKind { return AccessView }

// VersionAt returns the newest view version refreshed at or before t.
func (s ViewSource) VersionAt(t Time) (Time, bool) {
	rs := ReplicaState{LastSync: s.State.LastSync, NextSyncs: s.State.NextSyncs}
	return replicaVersionAt(&rs, t)
}

// EarliestAt returns the earliest instant ≥ now a view version exists.
func (s ViewSource) EarliestAt(now Time) (Time, bool) {
	rs := ReplicaState{LastSync: s.State.LastSync, NextSyncs: s.State.NextSyncs}
	return earliestReplicaAt(&rs, now)
}

// EventsWithin lists the view's scheduled refresh completions in
// (after, until].
func (s ViewSource) EventsWithin(after, until Time) []Time {
	return eventsWithin(s.State.NextSyncs, after, until)
}

// Access builds a view access at version v.
func (s ViewSource) Access(v Time) TableAccess {
	return TableAccess{Table: s.Table, Site: s.Site, Kind: AccessView, Freshness: v, View: s.State.ID}
}

// eventsWithin filters an ascending timeline to (after, until].
func eventsWithin(times []Time, after, until Time) []Time {
	var out []Time
	for _, n := range times {
		if n > after && n <= until {
			out = append(out, n)
		}
	}
	return out
}

// Sources enumerates the table's data sources usable by query q, in
// canonical order: the base table, the replica (when one is registered),
// then every view covering q (snapshot order, which the catalog keeps
// sorted by ViewID). BaseDown filtering is the planner's job: the base
// source is always listed so callers see the full registry.
func (ts TableState) Sources(q Query) []DataSource {
	out := []DataSource{BaseSource{Table: ts.ID, Site: ts.Site}}
	if ts.Replica != nil {
		out = append(out, ReplicaSource{Table: ts.ID, Site: ts.Site, State: ts.Replica})
	}
	for _, vs := range ts.Views {
		if vs.QueryID == q.ID {
			out = append(out, ViewSource{Table: ts.ID, Site: ts.Site, State: vs})
		}
	}
	return out
}

// LocalSources lists the sources served from the DSS itself — everything
// except the base table. These are the fallbacks a BaseDown table can
// degrade to and the units the sync agent maintains.
func (ts TableState) LocalSources(q Query) []DataSource {
	var out []DataSource
	for _, s := range ts.Sources(q) {
		if s.Kind() != AccessBase {
			out = append(out, s)
		}
	}
	return out
}

// bestLocalAt picks the freshest local version available at t across the
// given sources; on a freshness tie the earlier-listed source wins (the
// replica, given Sources order). It is what BaseDown pinning uses.
func bestLocalAt(sources []DataSource, t Time) (TableAccess, bool) {
	var best TableAccess
	bestV := Time(0)
	found := false
	for _, s := range sources {
		v, ok := s.VersionAt(t)
		if !ok {
			continue
		}
		if !found || v > bestV {
			best, bestV, found = s.Access(v), v, true
		}
	}
	return best, found
}

// earliestLocalAt returns the earliest instant ≥ now at which any of the
// given sources has a version.
func earliestLocalAt(sources []DataSource, now Time) (Time, bool) {
	best := Time(0)
	found := false
	for _, s := range sources {
		at, ok := s.EarliestAt(now)
		if !ok {
			continue
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

// oracleBest is the parent's Planner.Best.
func (p *Planner) oracleBest(q Query, snapshot []TableState, now Time) (Plan, SearchStats, error) {
	var stats SearchStats
	if err := q.Validate(); err != nil {
		return Plan{}, stats, err
	}
	if now < q.SubmitAt {
		return Plan{}, stats, fmt.Errorf("core: decision time %v precedes submission %v of %s", now, q.SubmitAt, q.ID)
	}
	states, err := oracleStatesFor(q, snapshot)
	if err != nil {
		return Plan{}, stats, err
	}
	switch p.cfg.Mode {
	case Exhaustive:
		return p.exhaustive(q, states, now, &stats)
	default:
		return p.scatterGather(q, states, now, p.cfg.Mode == ScatterGatherFull, &stats)
	}
}

// evaluate builds and scores a plan from a per-table access assignment.
func (p *Planner) evaluate(q Query, access []TableAccess, start Time, stats *SearchStats) (Plan, float64) {
	plan := Plan{Query: q, Access: access, Start: start}
	plan.Cost = p.cost.Estimate(q, access, start)
	stats.PlansEvaluated++
	return plan, plan.Value(p.cfg.Rates)
}

// scatterGather implements the paper's bounded timeline search.
func (p *Planner) scatterGather(q Query, states []TableState, now Time, full bool, stats *SearchStats) (Plan, SearchStats, error) {
	// Scatter: the all-base-tables plan executed immediately seeds the
	// current optimum and the tolerated-latency bound. Tables whose base
	// site is down are pinned to their freshest local source (replica or
	// view) instead; if one of them only gains a version at a future sync,
	// the seed start slides to that instant.
	seedAccess, seedStart, err := availableSeed(q, states, now, p.horizonEnd(now))
	if err != nil {
		return Plan{}, *stats, err
	}
	best, bestVal := p.evaluate(q, seedAccess, seedStart, stats)
	boundary := q.SubmitAt + ToleratedCL(q.BusinessValue, bestVal, p.cfg.Rates)

	end := math.Min(p.horizonEnd(now), boundary)
	events := syncEventsWithin(q, states, now, p.horizonEnd(now))

	// Gather: enumerate combinations at the decision time and then at each
	// future synchronization completion, shrinking the boundary as better
	// plans appear. Delayed all-base plans are never enumerated after the
	// first time point: delaying pure-base execution only adds CL.
	times := append([]Time{now}, events...)
	for i, t := range times {
		if t > end {
			stats.PrunedEvents += len(times) - i
			break
		}
		stats.TimePoints++
		improved := false
		for _, access := range p.combinationsAt(q, states, t, full, i > 0) {
			plan, val := p.evaluate(q, access, t, stats)
			if val > bestVal {
				best, bestVal = plan, val
				improved = true
			}
		}
		if improved {
			boundary = q.SubmitAt + ToleratedCL(q.BusinessValue, bestVal, p.cfg.Rates)
			end = math.Min(p.horizonEnd(now), boundary)
		}
	}
	stats.FinalBound = boundary - q.SubmitAt
	return best, *stats, nil
}

// combinationsAt enumerates candidate access assignments for a plan started
// at time t. Tables without a usable replica always read their base table.
// With full=false only the non-dominated prefix chain is produced: order
// the usable replicas by freshness (oldest first) and, for k = 0..m, send
// the k oldest to their base tables. Replacing any other replica with its
// base raises CL without raising the minimum freshness, so those plans are
// dominated whenever remote cost is identity-blind. With full=true all 2^m
// subsets are produced. When skipAllBase is set the combination using no
// replicas is suppressed (used for t beyond the first time point).
//
// A table with BaseDown is pinned to its freshest local source at t and
// excluded from the demotion chain; when it has no usable local version at
// t there is no valid assignment and nil is returned.
//
// Materialized views extend the enumeration: a view materializes the
// covered query's entire answer, so each usable view version contributes
// one whole-plan combination of its own rather than entering the per-table
// chain (views only ever cover single-table queries, enforced at
// registration).
func (p *Planner) combinationsAt(q Query, states []TableState, t Time, full, skipAllBase bool) [][]TableAccess {
	type replicated struct {
		idx       int
		freshness Time
		src       DataSource
	}
	var reps []replicated
	base := make([]TableAccess, len(states))
	var views []TableAccess
	for i, ts := range states {
		sources := ts.Sources(q)
		if len(states) == 1 {
			for _, src := range sources {
				if src.Kind() != AccessView {
					continue
				}
				if v, ok := src.VersionAt(t); ok {
					views = append(views, src.Access(v))
				}
			}
		}
		if ts.BaseDown {
			acc, ok := bestLocalAt(ts.LocalSources(q), t)
			if !ok {
				return nil
			}
			base[i] = acc
			// The pinned source gets fresher at later time points, so the
			// "no optional replicas" combination is no longer a dominated
			// pure-base delay — keep it.
			skipAllBase = false
			continue
		}
		for _, src := range sources {
			switch src.Kind() {
			case AccessBase:
				base[i] = src.Access(t)
			case AccessReplica:
				if v, ok := src.VersionAt(t); ok {
					reps = append(reps, replicated{idx: i, freshness: v, src: src})
				}
			}
		}
	}
	sort.SliceStable(reps, func(a, b int) bool { return reps[a].freshness < reps[b].freshness })

	assignment := func(replicaSet []replicated) []TableAccess {
		access := make([]TableAccess, len(base))
		copy(access, base)
		for _, r := range replicaSet {
			access[r.idx] = r.src.Access(r.freshness)
		}
		return access
	}

	var out [][]TableAccess
	if full {
		m := len(reps)
		for mask := 0; mask < 1<<m; mask++ {
			if skipAllBase && mask == 0 {
				continue
			}
			var subset []replicated
			for j := 0; j < m; j++ {
				if mask&(1<<j) != 0 {
					subset = append(subset, reps[j])
				}
			}
			out = append(out, assignment(subset))
		}
	} else {
		// Prefix chain: k oldest replicas demoted to base, the rest kept.
		for k := 0; k <= len(reps); k++ {
			if skipAllBase && k == len(reps) {
				continue
			}
			out = append(out, assignment(reps[k:]))
		}
	}
	for _, va := range views {
		out = append(out, []TableAccess{va})
	}
	return out
}

// availableSeed builds the scatter seed: base access everywhere a site is
// up, the freshest available local source (replica or view) where it is
// down. When a down table only gains its first local version at a future
// sync, the seed start slides forward to that instant; past the horizon
// (or with no local source at all) planning fails with
// SiteUnavailableError.
func availableSeed(q Query, states []TableState, now, end Time) ([]TableAccess, Time, error) {
	start := now
	for _, ts := range states {
		if !ts.BaseDown {
			continue
		}
		at, ok := earliestLocalAt(ts.LocalSources(q), now)
		if !ok || at > end {
			return nil, 0, &SiteUnavailableError{Table: ts.ID, Site: ts.Site}
		}
		if at > start {
			start = at
		}
	}
	access := make([]TableAccess, len(states))
	for i, ts := range states {
		if ts.BaseDown {
			acc, _ := bestLocalAt(ts.LocalSources(q), start)
			access[i] = acc
			continue
		}
		access[i] = TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessBase}
	}
	return access, start, nil
}

// exhaustive enumerates every combination of table versions. Each table
// contributes one option per version of every usable data source: the base
// table, the current replica or view (if synchronized by now), and one per
// scheduled future synchronization within the horizon. The plan start time
// is the latest freshness among chosen future versions (never earlier than
// now). View options appear only for single-table queries, since a view
// answers its covered query whole.
func (p *Planner) exhaustive(q Query, states []TableState, now Time, stats *SearchStats) (Plan, SearchStats, error) {
	end := p.horizonEnd(now)
	options := make([][]TableAccess, len(states))
	total := 1
	for i, ts := range states {
		var opts []TableAccess
		for _, src := range ts.Sources(q) {
			switch src.Kind() {
			case AccessBase:
				if ts.BaseDown {
					continue
				}
				opts = append(opts, src.Access(now))
			case AccessView:
				if len(states) != 1 {
					continue
				}
				fallthrough
			default:
				if v, ok := src.VersionAt(now); ok {
					opts = append(opts, src.Access(v))
				}
				for _, n := range src.EventsWithin(now, end) {
					opts = append(opts, src.Access(n))
				}
			}
		}
		if len(opts) == 0 {
			return Plan{}, *stats, &SiteUnavailableError{Table: ts.ID, Site: ts.Site}
		}
		options[i] = opts
		total *= len(opts)
		if total > p.cfg.MaxPlans {
			return Plan{}, *stats, fmt.Errorf("core: exhaustive search for %s exceeds MaxPlans=%d", q.ID, p.cfg.MaxPlans)
		}
	}

	var best Plan
	bestVal := math.Inf(-1)
	access := make([]TableAccess, len(states))
	var rec func(i int, start Time)
	rec = func(i int, start Time) {
		if i == len(states) {
			chosen := make([]TableAccess, len(access))
			copy(chosen, access)
			plan, val := p.evaluate(q, chosen, start, stats)
			if val > bestVal {
				best, bestVal = plan, val
			}
			return
		}
		for _, opt := range options[i] {
			access[i] = opt
			next := start
			if opt.Kind != AccessBase && opt.Freshness > next {
				next = opt.Freshness
			}
			rec(i+1, next)
		}
	}
	rec(0, now)
	stats.TimePoints = 1
	stats.FinalBound = math.Inf(1)
	return best, *stats, nil
}

// syncEventsWithin collects the distinct future synchronization completion
// times of every local data source usable by q — replicas and covering
// views — in (after, until], ascending.
func syncEventsWithin(q Query, states []TableState, after, until Time) []Time {
	set := make(map[Time]bool)
	for _, ts := range states {
		for _, src := range ts.LocalSources(q) {
			for _, n := range src.EventsWithin(after, until) {
				set[n] = true
			}
		}
	}
	events := make([]Time, 0, len(set))
	for t := range set {
		events = append(events, t)
	}
	sort.Float64s(events)
	return events
}

// oracleStatesFor is the parent's statesFor: it projects the snapshot onto the query's tables, in query order.
func oracleStatesFor(q Query, snapshot []TableState) ([]TableState, error) {
	byID := make(map[TableID]TableState, len(snapshot))
	for _, ts := range snapshot {
		if err := ts.Validate(); err != nil {
			return nil, err
		}
		byID[ts.ID] = ts
	}
	states := make([]TableState, len(q.Tables))
	for i, id := range q.Tables {
		ts, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("core: no catalog state for table %s needed by query %s", id, q.ID)
		}
		states[i] = ts
	}
	return states, nil
}
