// Package scheduler implements the workload side of the paper: forming
// workloads out of queries whose candidate execution ranges overlap
// (Section 3.2 step 1), choosing a workload execution order with a genetic
// algorithm so that total information value is maximized (step 2), the
// FIFO "without MQO" baseline, and an online dispatcher with the
// anti-starvation aging rule of Section 3.3.
package scheduler

import (
	"fmt"
	"math"

	"ivdss/internal/core"
)

// CatalogView is the slice of the federation catalog the scheduler needs:
// planner snapshots for a query's tables at a decision time.
type CatalogView interface {
	Snapshot(tables []core.TableID, now core.Time, horizon core.Duration) ([]core.TableState, error)
}

// Outcome is the shared per-query result record; see core.Outcome.
type Outcome = core.Outcome

// SequenceResult is the outcome of executing a set of queries in a
// particular order on the serialized DSS coordinator.
type SequenceResult struct {
	Order      []int // indices into the evaluated query slice
	Outcomes   []Outcome
	TotalValue float64
	Makespan   core.Time // when the last report arrived
}

// MeanValue returns the average information value across the sequence.
func (r SequenceResult) MeanValue() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	return r.TotalValue / float64(len(r.Outcomes))
}

// Evaluator deterministically computes the information value of executing
// a workload in a given order — the GA's evaluation function. The model
// serializes queries on the DSS coordinator: each query is planned when it
// reaches the head of the sequence, and the coordinator is busy until its
// report arrives. All waiting shows up as computational latency because CL
// is measured from submission.
type Evaluator struct {
	Planner *core.Planner
	Catalog CatalogView
	// Horizon bounds how far ahead snapshots include scheduled syncs; zero
	// means unbounded.
	Horizon core.Duration
	// Epsilon is the value-expiry threshold: a query whose best-case
	// information value has already fallen below it by the time it reaches
	// the head of the sequence is recorded as expired (zero value, no plan)
	// without occupying the coordinator. Zero or negative disables expiry.
	Epsilon float64
}

// RunSequence executes queries[order[0]], queries[order[1]], ... starting
// no earlier than startAt and returns per-query outcomes. Every index in
// order must be valid and distinct.
func (e *Evaluator) RunSequence(queries []core.Query, order []int, startAt core.Time) (SequenceResult, error) {
	if e.Planner == nil || e.Catalog == nil {
		return SequenceResult{}, fmt.Errorf("scheduler: evaluator needs a planner and a catalog")
	}
	if err := validateOrder(len(queries), order); err != nil {
		return SequenceResult{}, err
	}
	res := SequenceResult{
		Order:    append([]int{}, order...),
		Outcomes: make([]Outcome, 0, len(order)),
	}
	var err error
	res.TotalValue, res.Makespan, err = walk(queries, order, startAt, func(idx int, decision core.Time) (step, error) {
		o, err := e.head(queries[idx], decision)
		res.Outcomes = append(res.Outcomes, o)
		return step{o.Value, o.Plan.ResultAt(), o.Expired}, err
	})
	if err != nil {
		return SequenceResult{}, err
	}
	return res, nil
}

// step is one query's turn at the head of the sequence: its value and when
// its report arrives, or that it expired there.
type step struct {
	value    float64
	resultAt core.Time
	expired  bool
}

// walk is the serialized coordinator behind RunSequence and the GA fitness:
// at prices queries[idx] reaching the head at decision, and the total and
// the makespan accumulate in order.
func walk(queries []core.Query, order []int, startAt core.Time, at func(idx int, decision core.Time) (step, error)) (total float64, makespan core.Time, err error) {
	clock := startAt
	for _, idx := range order {
		s, err := at(idx, math.Max(clock, queries[idx].SubmitAt))
		if err != nil {
			return 0, 0, err
		}
		if s.expired {
			// Shedding frees the coordinator immediately: the clock does not
			// advance, so later queries in the order benefit from the drop.
			continue
		}
		total += s.value
		clock = s.resultAt
		if clock > makespan {
			makespan = clock
		}
	}
	return total, makespan, nil
}

// head is q's outcome at the head of the sequence at decision: expired when
// its best-case value is already below Epsilon, else its best plan there.
func (e *Evaluator) head(q core.Query, decision core.Time) (Outcome, error) {
	rates := e.Planner.Rates()
	if e.Epsilon > 0 && decision-q.SubmitAt >= q.ValueHorizon(rates, e.Epsilon) {
		return Outcome{Query: q, Wait: decision - q.SubmitAt, Expired: true}, nil
	}
	snap, err := e.Catalog.Snapshot(q.Tables, decision, e.Horizon)
	if err != nil {
		return Outcome{}, fmt.Errorf("scheduler: snapshot for %s: %w", q.ID, err)
	}
	plan, _, err := e.Planner.Best(q, snap, decision)
	if err != nil {
		return Outcome{}, fmt.Errorf("scheduler: plan %s: %w", q.ID, err)
	}
	lat := plan.Latencies()
	value := core.InformationValue(q.BusinessValue, lat, rates)
	return Outcome{Query: q, Plan: plan, Latencies: lat, Value: value, Wait: plan.Start - q.SubmitAt}, nil
}

func validateOrder(n int, order []int) error {
	if len(order) != n {
		return fmt.Errorf("scheduler: order has %d entries for %d queries", len(order), n)
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if idx < 0 || idx >= n {
			return fmt.Errorf("scheduler: order index %d out of range", idx)
		}
		if seen[idx] {
			return fmt.Errorf("scheduler: order repeats index %d", idx)
		}
		seen[idx] = true
	}
	return nil
}
