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
	"slices"

	"ivdss/internal/core"
)

// CatalogView is the slice of the federation catalog the scheduler needs:
// planner snapshots for a query's tables at a decision time, and whether a
// site is down at an instant.
type CatalogView interface {
	Snapshot(tables []core.TableID, now core.Time, horizon core.Duration) ([]core.TableState, error)
	SiteDown(site core.SiteID, now core.Time) bool
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
// is measured from submission. Every turn is priced from one catalog view
// per member (see turns).
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
	p := newTurns(e, queries, startAt, false)
	var err error
	res.TotalValue, res.Makespan, err = walk(queries, order, startAt, func(idx int, decision core.Time) (step, error) {
		o, err := p.head(idx, decision)
		res.Outcomes = append(res.Outcomes, o)
		return stepOf(o), err
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

func stepOf(o Outcome) step { return step{o.Value, o.Plan.ResultAt(), o.Expired} }

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

// turns prices members' turns at the head of one serialized sequence
// started at from. A member's catalog view is taken once, at the first
// instant it can reach the head, and every turn reads it through core's At
// rule: syncs promised up to the turn count as done, and site health is
// re-read at the turn. A view reaches past the member's value horizon by
// the evaluator's horizon (no turn is priced later), or else doubles on
// demand. So a sequence's value is a function of one view per member: a
// sync landing after it was taken changes the next sequence, not half of
// this one.
type turns struct {
	ev      *Evaluator
	members []core.Query
	from    core.Time
	views   [][]core.TableState // nil until the member's first priced turn
	reach   []core.Time         // with a horizon, a view knows the syncs promised through here
	// One turn's snapshot, rebuilt in place. access, when lent, is the
	// planner's scratch: a turn of a viewed member then allocates nothing,
	// and its plan's Access lives until the next turn.
	states     []core.TableState
	replicas   []core.ReplicaState
	viewStates []core.ViewState
	lend       bool
	access     []core.TableAccess
}

func newTurns(e *Evaluator, members []core.Query, from core.Time, lend bool) *turns {
	return &turns{ev: e, members: members, from: from, lend: lend,
		views: make([][]core.TableState, len(members)), reach: make([]core.Time, len(members))}
}

// head is member idx's outcome at the head of the sequence at decision:
// expired when its best-case value is already below Epsilon, else its
// best plan there.
func (p *turns) head(idx int, decision core.Time) (Outcome, error) {
	e, q := p.ev, p.members[idx]
	rates := e.Planner.Rates()
	if e.Epsilon > 0 && decision-q.SubmitAt >= q.ValueHorizon(rates, e.Epsilon) {
		return Outcome{Query: q, Wait: decision - q.SubmitAt, Expired: true}, nil
	}
	states, err := p.statesAt(idx, decision)
	if err != nil {
		return Outcome{}, fmt.Errorf("scheduler: snapshot for %s: %w", q.ID, err)
	}
	var buf []core.TableAccess
	if p.lend {
		p.access = slices.Grow(p.access[:0], 2*len(q.Tables))
		buf = p.access
	}
	plan, _, err := e.Planner.Best(q, states, decision, buf...)
	if err != nil {
		return Outcome{}, fmt.Errorf("scheduler: plan %s: %w", q.ID, err)
	}
	lat := plan.Latencies()
	value := core.InformationValue(q.BusinessValue, lat, rates)
	return Outcome{Query: q, Plan: plan, Latencies: lat, Value: value, Wait: plan.Start - q.SubmitAt}, nil
}

// statesAt derives member idx's snapshot at t from its view, taking or
// widening the view first when it does not know t's horizon.
func (p *turns) statesAt(idx int, t core.Time) ([]core.TableState, error) {
	e, q, h := p.ev, p.members[idx], p.ev.Horizon
	if p.views[idx] == nil || h > 0 && t+h > p.reach[idx] {
		at := math.Max(p.from, q.SubmitAt)
		width := h // 0: unbounded
		if vh := q.ValueHorizon(e.Planner.Rates(), e.Epsilon); h > 0 && e.Epsilon > 0 && !math.IsInf(vh, 1) {
			width = q.SubmitAt + vh + h - at
		}
		for h > 0 && at+width < t+h {
			width *= 2
		}
		view, err := e.Catalog.Snapshot(q.Tables, at, width)
		if err != nil {
			return nil, err
		}
		p.views[idx], p.reach[idx] = view, at+width
	}
	p.states, p.replicas, p.viewStates = p.states[:0], p.replicas[:0], p.viewStates[:0]
	for _, ts := range p.views[idx] {
		if ts.Replica != nil {
			p.replicas = append(p.replicas, ts.Replica.At(t, h))
			ts.Replica = &p.replicas[len(p.replicas)-1]
		}
		if len(ts.Views) > 0 {
			first := len(p.viewStates)
			for _, vs := range ts.Views {
				p.viewStates = append(p.viewStates, vs.At(t, h))
			}
			ts.Views = p.viewStates[first:]
		}
		ts.BaseDown = e.Catalog.SiteDown(ts.Site, t)
		p.states = append(p.states, ts)
	}
	return p.states, nil
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
