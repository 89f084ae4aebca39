package scheduler

import (
	"math"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/sim"
)

// TestDispatcherShedsExpiredQueuedQueries runs a single-slot dispatcher
// under a burst with anti-starvation aging ENABLED: aging boosts a waiting
// query's dispatch priority, but it cannot resurrect decayed value, so a
// query whose horizon passes while queued must still be dropped — and
// recorded distinctly from completions.
func TestDispatcherShedsExpiredQueuedQueries(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	s := sim.New()
	strategy := &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}
	aging := core.Aging{Coefficient: .05, Exponent: 1.5}
	d, err := NewSimEngine(s, strategy, rates, 1, aging)
	if err != nil {
		t.Fatal(err)
	}
	const epsilon = .6
	d.SetEpsilon(epsilon)

	// Eight simultaneous arrivals through one slot: the tail of the queue
	// waits past its ~10-minute horizon (ln .6 / ln .95) and must be shed.
	queries := queriesAt([]core.Time{0, 0, 0, 0, 0, 0, 0, 0})
	horizon := queries[0].ValueHorizon(rates, epsilon)
	submitAll(s, d, queries)
	s.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	outcomes := d.Outcomes()
	if len(outcomes) != len(queries) || d.Pending() != 0 {
		t.Fatalf("outcomes = %d, pending = %d, want %d and 0", len(outcomes), d.Pending(), len(queries))
	}
	completed, expired := 0, 0
	for _, o := range outcomes {
		if o.Expired {
			expired++
			if o.Value != 0 {
				t.Errorf("expired %s has value %v, want 0", o.Query.ID, o.Value)
			}
			if len(o.Plan.Access) != 0 {
				t.Errorf("expired %s carries a plan", o.Query.ID)
			}
			if o.Wait < horizon {
				t.Errorf("expired %s waited %v, less than the %v horizon", o.Query.ID, o.Wait, horizon)
			}
			continue
		}
		completed++
		if o.Value <= 0 {
			t.Errorf("completed %s has value %v", o.Query.ID, o.Value)
		}
	}
	if expired == 0 {
		t.Fatal("no query expired; the burst should overload one slot")
	}
	if completed == 0 {
		t.Fatal("every query expired; the first dispatches immediately")
	}
	if d.Shed() != expired {
		t.Errorf("Shed() = %d, want %d", d.Shed(), expired)
	}
}

// TestDispatcherExpiryDisabledByDefault: the same overloaded burst with no
// epsilon completes everything (the pre-expiry behavior).
func TestDispatcherExpiryDisabledByDefault(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	s := sim.New()
	strategy := &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}
	d, err := NewSimEngine(s, strategy, rates, 1, core.Aging{Coefficient: .05, Exponent: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesAt([]core.Time{0, 0, 0, 0, 0, 0, 0, 0})
	submitAll(s, d, queries)
	s.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for _, o := range d.Outcomes() {
		if o.Expired {
			t.Errorf("%s expired with expiry disabled", o.Query.ID)
		}
	}
	if got := len(d.Outcomes()); got != len(queries) {
		t.Errorf("completed %d of %d", got, len(queries))
	}
	if d.Shed() != 0 {
		t.Errorf("Shed() = %d, want 0", d.Shed())
	}
}

// TestDispatcherShedsOnArrivalWhileBusy: expiry is checked at every
// dispatch decision, including arrivals while all slots are occupied, so a
// dead query does not linger in the queue until a slot frees.
func TestDispatcherShedsLowValueImmediately(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	s := sim.New()
	strategy := &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100}
	d, err := NewSimEngine(s, strategy, rates, 1, core.Aging{})
	if err != nil {
		t.Fatal(err)
	}
	// Epsilon at the full business value: the horizon is zero, so every
	// query is already worthless on arrival.
	d.SetEpsilon(1)
	submitAll(s, d, queriesAt([]core.Time{0, 5}))
	s.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Shed() != 2 {
		t.Fatalf("Shed() = %d, want 2", d.Shed())
	}
	for _, o := range d.Outcomes() {
		if !o.Expired || o.Wait != 0 {
			t.Errorf("%s: expired=%v wait=%v, want immediate shed", o.Query.ID, o.Expired, o.Wait)
		}
	}
}

// TestEvaluatorSkipsExpiredMembers: in the serialized GA evaluation model,
// a member whose horizon passes while earlier members hold the coordinator
// is recorded as expired without advancing the clock.
func TestEvaluatorSkipsExpiredMembers(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100, Epsilon: .9}

	queries := queriesAt([]core.Time{0, 0, 0})
	horizon := queries[0].ValueHorizon(rates, .9) // ≈ 2.05 minutes
	res, err := ev.RunSequence(queries, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	first := res.Outcomes[0]
	if first.Expired {
		t.Fatal("head of sequence expired at decision time 0")
	}
	if first.Plan.ResultAt() <= horizon {
		t.Skipf("first query finished in %v, inside the %v horizon; workload too fast to force expiry", first.Plan.ResultAt(), horizon)
	}
	var sawExpired bool
	var wantTotal float64
	for _, o := range res.Outcomes[1:] {
		if !o.Expired {
			continue
		}
		sawExpired = true
		if o.Value != 0 {
			t.Errorf("expired %s has value %v", o.Query.ID, o.Value)
		}
	}
	for _, o := range res.Outcomes {
		wantTotal += o.Value
	}
	if !sawExpired {
		t.Fatal("no member expired behind the first query")
	}
	if math.Abs(res.TotalValue-wantTotal) > 1e-12 {
		t.Errorf("TotalValue %v, want %v", res.TotalValue, wantTotal)
	}
	// The clock only advanced for executed members.
	if res.Makespan != first.Plan.ResultAt() && res.Makespan <= horizon {
		t.Errorf("makespan %v inconsistent with executed members", res.Makespan)
	}
}

// TestEvaluatorEpsilonZeroKeepsLegacyBehavior: the zero value of Epsilon
// must leave RunSequence semantics untouched for existing callers (GA
// optimization, fig reproductions).
func TestEvaluatorEpsilonZeroKeepsLegacyBehavior(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100}
	res, err := ev.RunSequence(queriesAt([]core.Time{0, 0, 0}), []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Expired {
			t.Errorf("%s expired with epsilon unset", o.Query.ID)
		}
		if o.Value <= 0 {
			t.Errorf("%s value %v", o.Query.ID, o.Value)
		}
	}
}
