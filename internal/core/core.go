// Package core implements the paper's primary contribution: the information
// value (IV) model and information-value-driven query plan selection (IVQP).
//
// A decision-support report is assigned a business value; its information
// value is that business value discounted by two latencies,
//
//	IV = BusinessValue × (1−λCL)^CL × (1−λSL)^SL
//
// where CL is the computational latency (queuing + processing + result
// transmission) and SL is the synchronization latency (from the oldest
// freshness timestamp among accessed tables to result receipt). The planner
// in this package searches the plan space — per-table choice of remote base
// table, current local replica, or a future replica reached by delaying
// execution past a scheduled synchronization — for the plan with maximal IV.
package core

import (
	"fmt"
	"math"
	"time"
)

// Time is a point on the experiment clock, in minutes. The planner and the
// discrete event simulator share one virtual clock; live deployments adapt
// wall-clock time at the boundary with scheduler.WallClock.
type Time = float64

// Duration is a span of experiment time, in minutes.
type Duration = float64

// TableID names a base table in the federation catalog.
type TableID string

// SiteID identifies a server. Site 0 is conventionally the local
// federation/DSS server; remote sites are numbered from 1.
type SiteID int

// LocalSite is the DSS (federation) server itself.
const LocalSite SiteID = 0

// Query is a decision-support query as the planner sees it: the set of base
// tables it touches, the business value of its report, and its submission
// time. The relational text of the query lives elsewhere (internal/sqlmini);
// the IV planner only needs this shape.
type Query struct {
	ID            string
	Tables        []TableID
	BusinessValue float64
	SubmitAt      Time
	// Tenant names the budget account the query draws from under
	// weighted-fair admission shedding (internal/cluster). Empty means the
	// default tenant; schedulers that do not shed by tenant ignore it.
	Tenant string
}

// Validate reports whether the query is well formed.
func (q Query) Validate() error {
	if q.ID == "" {
		return fmt.Errorf("core: query has empty ID")
	}
	if len(q.Tables) == 0 {
		return fmt.Errorf("core: query %s touches no tables", q.ID)
	}
	seen := make(map[TableID]bool, len(q.Tables))
	for _, t := range q.Tables {
		if seen[t] {
			return fmt.Errorf("core: query %s lists table %s twice", q.ID, t)
		}
		seen[t] = true
	}
	if q.BusinessValue < 0 || math.IsNaN(q.BusinessValue) || math.IsInf(q.BusinessValue, 0) {
		return fmt.Errorf("core: query %s has invalid business value %v", q.ID, q.BusinessValue)
	}
	return nil
}

// ValueHorizon returns the query's value horizon: the duration after
// submission at which its projected information value falls below epsilon
// even in the best case of zero synchronization latency. Past this point
// the report is worth less than the threshold no matter how it is
// executed, so schedulers shed the query instead of burning resources on
// worthless work. A zero business value is treated as 1, matching the
// wire protocol's default. The horizon is +Inf when epsilon is
// non-positive or λCL is zero (no decay), and 0 when the business value
// already sits at or below epsilon.
func (q Query) ValueHorizon(r DiscountRates, epsilon float64) Duration {
	bv := q.BusinessValue
	if bv == 0 {
		bv = 1
	}
	return ToleratedCL(bv, epsilon, r)
}

// ClientDeadline folds a client's -timeout and its optional -epsilon value
// horizon into one wall-clock budget per query; zero means no deadline.
// The horizon is client-side insurance: even when the server does no
// shedding, the call abandons work that can no longer reach the threshold.
// timescale is experiment minutes per wall second.
func ClientDeadline(timeout time.Duration, epsilon, value, lambdaCL, timescale float64) (time.Duration, error) {
	d := timeout
	if epsilon > 0 {
		if timescale <= 0 {
			return 0, fmt.Errorf("-timescale must be positive when -epsilon is set")
		}
		rates := DiscountRates{CL: lambdaCL}
		if err := rates.Validate(); err != nil {
			return 0, err
		}
		minutes := ToleratedCL(value, epsilon, rates)
		wall := time.Duration(minutes / timescale * float64(time.Second))
		if wall <= 0 {
			return 0, fmt.Errorf("value %g is already below -epsilon %g: the report would be worthless", value, epsilon)
		}
		if d == 0 || wall < d {
			d = wall
		}
	}
	return d, nil
}

// ValueExpiredError is the typed load-shedding failure: the query's
// information value fell (or was projected to fall) below the admission
// threshold before a report could be produced, so the system refused to
// spend resources on it.
type ValueExpiredError struct {
	Query string
	// Horizon is the query's value horizon in experiment minutes after
	// submission. It may be +Inf on a queue-full shed when value-based
	// shedding is disabled (a bounded queue still refuses overflow).
	Horizon Duration
	// Reason says where the decision was made: "queue-full",
	// "projected-completion", "expired-queued", or "expired-running".
	Reason string
}

// Error implements the error interface.
func (e *ValueExpiredError) Error() string {
	return fmt.Sprintf("value expired: query %s exceeds its %.2f-minute value horizon (%s)", e.Query, e.Horizon, e.Reason)
}

// DiscountRates carries the two per-minute discount rates from the IV
// formula: λCL for computational latency and λSL for synchronization
// latency. Both must lie in [0, 1).
type DiscountRates struct {
	CL float64 // λCL
	SL float64 // λSL
}

// Validate reports whether both rates are usable discount factors.
func (r DiscountRates) Validate() error {
	for _, v := range []struct {
		name string
		rate float64
	}{{"λCL", r.CL}, {"λSL", r.SL}} {
		if v.rate < 0 || v.rate >= 1 || math.IsNaN(v.rate) {
			return fmt.Errorf("core: discount rate %s = %v outside [0, 1)", v.name, v.rate)
		}
	}
	return nil
}

// Latencies are the two observed (or estimated) latencies of one report.
type Latencies struct {
	CL Duration // computational latency: queuing + processing + transmission
	SL Duration // synchronization latency: result time − oldest freshness
}

// InformationValue computes BusinessValue × (1−λCL)^CL × (1−λSL)^SL — the
// paper's central formula. Negative latencies are clamped to zero: a report
// cannot gain value from the future.
func InformationValue(businessValue float64, lat Latencies, r DiscountRates) float64 {
	cl := math.Max(lat.CL, 0)
	sl := math.Max(lat.SL, 0)
	return businessValue * math.Pow(1-r.CL, cl) * math.Pow(1-r.SL, sl)
}

// ToleratedCL returns the largest computational latency b such that a report
// with zero synchronization latency still reaches at least the target value:
// BusinessValue × (1−λCL)^b ≥ target. This is the bound that limits the
// scatter-and-gather search (Section 3.1 of the paper): once a candidate
// with value `target` is in hand, no plan finishing more than b after
// submission can beat it. It returns +Inf when λCL is zero (no decay) and 0
// when the target already equals or exceeds the full business value.
func ToleratedCL(businessValue, target float64, r DiscountRates) Duration {
	if target <= 0 {
		return math.Inf(1)
	}
	if target >= businessValue {
		return 0
	}
	if r.CL == 0 {
		return math.Inf(1)
	}
	// (1-λCL)^b = target/bv  ⇒  b = ln(target/bv) / ln(1-λCL).
	return math.Log(target/businessValue) / math.Log(1-r.CL)
}
