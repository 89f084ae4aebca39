package scheduler

import (
	"fmt"
	"math"
	"sort"

	"ivdss/internal/core"
)

// Workload is a group of queries whose candidate execution ranges overlap
// and must therefore be ordered jointly (Section 3.2, step 1).
type Workload struct {
	Indices []int // indices into the original query slice, by submit time
	Start   core.Time
	End     core.Time
}

// PlanRanges derives each query's candidate execution range: from its
// submission to submission plus the tolerated computational latency left
// by its best solo plan (the search bound). An unbounded tolerance (λCL=0)
// is capped by the evaluator's horizon, or by fallbackWidth when that is
// also unbounded.
func PlanRanges(queries []core.Query, ev *Evaluator, fallbackWidth core.Duration) ([]core.Duration, error) {
	if fallbackWidth <= 0 {
		return nil, fmt.Errorf("scheduler: fallback range width must be positive")
	}
	widths := make([]core.Duration, len(queries))
	for i, q := range queries {
		snap, err := ev.Catalog.Snapshot(q.Tables, q.SubmitAt, ev.Horizon)
		if err != nil {
			return nil, fmt.Errorf("scheduler: range for %s: %w", q.ID, err)
		}
		_, stats, err := ev.Planner.Best(q, snap, q.SubmitAt)
		if err != nil {
			return nil, fmt.Errorf("scheduler: range for %s: %w", q.ID, err)
		}
		w := stats.FinalBound
		if math.IsInf(w, 1) || w <= 0 {
			w = ev.Horizon
		}
		if w <= 0 || math.IsInf(w, 1) {
			w = fallbackWidth
		}
		widths[i] = w
	}
	return widths, nil
}

// FormWorkloads groups queries whose ranges [SubmitAt, SubmitAt+width]
// overlap, by merging intervals along the time axis. Workloads come back
// ordered by start time, each with its members ordered by submission.
func FormWorkloads(queries []core.Query, widths []core.Duration) ([]Workload, error) {
	if len(widths) != len(queries) {
		return nil, fmt.Errorf("scheduler: %d widths for %d queries", len(widths), len(queries))
	}
	var out []Workload
	for _, i := range bySubmission(queries) {
		q := queries[i]
		end := q.SubmitAt + widths[i]
		if len(out) > 0 && q.SubmitAt <= out[len(out)-1].End {
			w := &out[len(out)-1]
			w.Indices = append(w.Indices, i)
			if end > w.End {
				w.End = end
			}
			continue
		}
		out = append(out, Workload{Indices: []int{i}, Start: q.SubmitAt, End: end})
	}
	return out, nil
}

// ScheduleFIFO runs the whole query set in submission order — the paper's
// "Without MQO" baseline.
func ScheduleFIFO(queries []core.Query, ev *Evaluator) (SequenceResult, error) {
	return ev.RunSequence(queries, bySubmission(queries), 0)
}

// bySubmission returns the indices of queries in submission order, ties
// in slice order.
func bySubmission(queries []core.Query) []int {
	idx := make([]int, len(queries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return queries[idx[a]].SubmitAt < queries[idx[b]].SubmitAt })
	return idx
}

// MQOResult is the outcome of multi-query optimization over a query set.
type MQOResult struct {
	SequenceResult
	Workloads   []Workload
	Evaluations int // GA fitness evaluations across all workloads
}

// ScheduleMQO performs the paper's two-step multi-query optimization:
// form workloads of range-overlapping queries, then order each workload
// with the genetic algorithm, maximizing the workload's total information
// value. Workloads execute in time order on the shared coordinator, so a
// long workload delays the next one's start.
func ScheduleMQO(queries []core.Query, ev *Evaluator, cfg GAConfig) (MQOResult, error) {
	res := MQOResult{SequenceResult: SequenceResult{Order: make([]int, 0, len(queries))}}
	clock := core.Time(0)
	err := form(queries, ev, cfg, func() core.Time { return clock },
		func(wi int) int64 { return cfg.Seed + int64(wi) },
		func(o ordered) error {
			seq, err := ev.RunSequence(o.members, o.order, o.from)
			if err != nil {
				return err
			}
			res.Workloads = append(res.Workloads, o.Workload)
			res.Evaluations += o.ga.Evaluations
			for pos, local := range seq.Order {
				res.Order = append(res.Order, o.Indices[local])
				res.Outcomes = append(res.Outcomes, seq.Outcomes[pos])
			}
			res.TotalValue += seq.TotalValue
			res.Makespan = math.Max(res.Makespan, seq.Makespan)
			clock = math.Max(clock, seq.Makespan)
			return nil
		})
	if err != nil {
		return MQOResult{}, err
	}
	return res, nil
}

// ordered is one workload as formation left it.
type ordered struct {
	Workload
	members []core.Query // the workload's queries, by submission
	order   []int        // indices into members, in execution order
	from    core.Time    // the instant the order was evaluated from
	ga      GAStats      // zero for a singleton, which is not GA-ordered
	best    float64      // the GA order's total IV (zero for a singleton)
}

// stepKey names one member's turn within a formation: its index and the
// bits of the instant it reaches the head.
type stepKey struct {
	member   int
	decision uint64
}

// form is the one Section 3.2 formation loop, shared by ScheduleMQO and
// the engine: derive candidate ranges, merge overlapping ones into
// workloads, and GA-order each multi-member workload for the total
// information value ev scores from start(), every member's turns priced
// from one catalog view of it (turns). The two callers differ only
// in start (a serial makespan clock, or now) and seed (the GA seed of
// workload wi, drawn for multi-member workloads only). Workloads reach
// visit in time order, each before the next is ordered, so start may
// depend on what visit saw.
func form(queries []core.Query, ev *Evaluator, ga GAConfig, start func() core.Time, seed func(wi int) int64, visit func(ordered) error) error {
	widths, err := PlanRanges(queries, ev, 1e6)
	if err != nil {
		return err
	}
	workloads, err := FormWorkloads(queries, widths)
	if err != nil {
		return err
	}
	for wi, w := range workloads {
		o := ordered{Workload: w, members: make([]core.Query, len(w.Indices)), order: []int{0}, from: start()}
		for j, qi := range w.Indices {
			o.members[j] = queries[qi]
		}
		if len(o.members) > 1 {
			wcfg := ga
			wcfg.Seed = seed(wi)
			// A member's turn depends only on the member and the instant it
			// reaches the head, so the GA prices each such pair once, from
			// the member's one catalog view, and scores a permutation as a
			// walk over the priced turns. The memo and the views die with
			// this workload: nothing priced outlives a formation.
			p := newTurns(ev, o.members, o.from, true)
			memo := make(map[stepKey]step)
			at := func(idx int, decision core.Time) (step, error) {
				k := stepKey{idx, math.Float64bits(decision)}
				if s, ok := memo[k]; ok {
					return s, nil
				}
				h, err := p.head(idx, decision)
				if err != nil {
					return step{}, err
				}
				s := stepOf(h)
				memo[k] = s
				return s, nil
			}
			o.order, o.best, o.ga, err = OptimizeOrder(len(o.members), func(order []int) (float64, error) {
				total, _, err := walk(o.members, order, o.from, at)
				return total, err
			}, wcfg)
			if err != nil {
				return err
			}
		}
		if err := visit(o); err != nil {
			return err
		}
	}
	return nil
}
