package scheduler

import (
	"fmt"

	"ivdss/internal/core"
	"ivdss/internal/sim"
)

// Strategy chooses an execution plan for a query at dispatch time. The
// three strategies of the paper's evaluation are IVQP (plan search),
// Federation (always remote base tables), and Data Warehouse (always local
// replicas).
type Strategy interface {
	Plan(q core.Query, now core.Time) (core.Plan, error)
}

// IVQPStrategy plans with the information-value-driven planner.
type IVQPStrategy struct {
	Planner *core.Planner
	Catalog CatalogView
	Horizon core.Duration
}

var _ Strategy = (*IVQPStrategy)(nil)

// Plan implements Strategy.
func (s *IVQPStrategy) Plan(q core.Query, now core.Time) (core.Plan, error) {
	snap, err := s.Catalog.Snapshot(q.Tables, now, s.Horizon)
	if err != nil {
		return core.Plan{}, err
	}
	plan, _, err := s.Planner.Best(q, snap, now)
	return plan, err
}

// FixedStrategy applies one access kind to every table: the Federation
// baseline with core.AccessBase ("all queries are decomposed and executed
// at remote servers"), the Data Warehouse baseline with core.AccessReplica
// ("answers queries using these replicas without communicating with the
// remote servers").
//
// FallbackToBase makes AccessReplica degrade to the base table for tables
// without a usable replica. That is how the warehouse baseline runs on a
// partially replicated deployment, which keeps the three methods on
// identical infrastructure — the reading under which the paper's "IVQP is
// always highest" claim is coherent (IVQP's plan space then contains every
// baseline plan).
type FixedStrategy struct {
	Catalog        CatalogView
	Cost           core.CostModel
	Kind           core.AccessKind
	FallbackToBase bool
}

var _ Strategy = (*FixedStrategy)(nil)

// Plan implements Strategy.
func (s *FixedStrategy) Plan(q core.Query, now core.Time) (core.Plan, error) {
	snap, err := s.Catalog.Snapshot(q.Tables, now, 0)
	if err != nil {
		return core.Plan{}, err
	}
	return core.FixedPlan(q, snap, now, s.Cost, func(ts core.TableState) core.AccessKind {
		if s.Kind == core.AccessReplica && s.FallbackToBase {
			if ts.Replica == nil || ts.Replica.LastSync > now {
				return core.AccessBase
			}
		}
		return s.Kind
	})
}

// NewSimEngine mounts the shared scheduling Engine on the simulator's
// virtual clock with model execution (PlanExecutor) — the DES driver, where
// the live DSS server mounts the same engine on its wall clock with real
// execution. Arrivals are scheduled on the simulator and Submitted as they
// fire; when one of the slots frees, the engine plans every waiting query
// and releases the one with the highest effective value — information
// value plus the anti-starvation aging boost for the time it has already
// waited (Section 3.3). With aging disabled this is pure value-maximizing
// dispatch, which can starve long-waiting queries under load. The engine
// stops issuing work after the first planning failure (Err) and records
// every Outcome. rates must match what the strategy optimizes for.
func NewSimEngine(s *sim.Simulator, strategy Strategy, rates core.DiscountRates, slots int, aging core.Aging) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("scheduler: a simulated engine needs a simulator")
	}
	clock := SimClock{Sim: s}
	return NewEngine(EngineConfig{
		Clock:           clock,
		Executor:        PlanExecutor{Clock: clock, Rates: rates},
		Strategy:        strategy,
		Rates:           rates,
		Slots:           slots,
		Aging:           aging,
		HaltOnPlanError: true,
		RecordOutcomes:  true,
	})
}
