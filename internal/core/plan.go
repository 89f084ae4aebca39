package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// AccessKind says where a plan reads one table from.
type AccessKind int

const (
	// AccessBase reads the authoritative base table at its remote site.
	AccessBase AccessKind = iota + 1
	// AccessReplica reads a synchronized replica at the local DSS server.
	// A "future replica" is an AccessReplica whose Freshness lies after the
	// query's submission time: the plan must delay its start until then.
	AccessReplica
	// AccessView reads an incrementally maintained materialized view at the
	// local DSS server. A view materializes one query's full answer, so a
	// view access always stands alone in its plan and carries the covered
	// query's result rather than a base table's rows.
	AccessView
)

// String returns a short human-readable name for the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessBase:
		return "base"
	case AccessReplica:
		return "replica"
	case AccessView:
		return "view"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// TableAccess is one table-level decision inside a plan.
type TableAccess struct {
	Table TableID
	Site  SiteID     // site holding the base table
	Kind  AccessKind // base vs (possibly future) replica vs materialized view
	// Freshness is the synchronization-completion timestamp of the chosen
	// replica or view version. It is meaningful only for AccessReplica and
	// AccessView; base-table freshness is the moment processing starts and
	// is derived during plan evaluation.
	Freshness Time
	// View identifies the materialized view serving an AccessView; empty
	// otherwise.
	View ViewID
}

// CostEstimate decomposes a plan's computational latency the way the paper
// defines it: queuing time, query processing time, and result transmission
// time (the last is nonzero only when remote servers participate).
type CostEstimate struct {
	Queue    Duration
	Process  Duration
	Transmit Duration
}

// Total returns the summed computational latency of the estimate.
func (c CostEstimate) Total() Duration { return c.Queue + c.Process + c.Transmit }

// CostModel estimates the computational-latency components of executing a
// query with a particular set of table accesses starting at a given time.
// Implementations live in internal/costmodel; core defines the interface it
// consumes. Estimates must be non-negative and deterministic for a fixed
// (query, access, start) triple within one planning episode. Estimate must
// not keep access: the planner builds the next candidate in it.
type CostModel interface {
	Estimate(q Query, access []TableAccess, start Time) CostEstimate
}

// ReplicaState describes the local replica of one table at planning time.
type ReplicaState struct {
	// LastSync is the completion time of the most recent synchronization.
	LastSync Time
	// NextSyncs lists future scheduled synchronization completion times in
	// ascending order. An empty slice means no further syncs are known
	// within the planning horizon.
	NextSyncs []Time
}

// Unsynced is the state of a replica with no version at or before now and
// none promised within the snapshot's horizon: its LastSync lies so far
// ahead that no plan reaches it.
func Unsynced(now Time) ReplicaState { return ReplicaState{LastSync: now + 1e18} }

// At is the state a snapshot holding rs implies for a later instant t:
// every sync it promised at or before t counts as done at its instant,
// and NextSyncs is the sub-slice of the promises in (t, t+horizon]
// (horizon 0: all of them), not a copy. With a horizon, a first version
// still pending past t+horizon reads as Unsynced(t). The replication
// Manager answers every instant by this rule from its schedule.
func (rs ReplicaState) At(t Time, horizon Duration) ReplicaState {
	next := rs.NextSyncs
	done := sort.Search(len(next), func(i int) bool { return next[i] > t })
	if done > 0 {
		rs.LastSync = next[done-1]
	}
	end := len(next)
	if horizon > 0 {
		if rs.LastSync > t+horizon {
			return Unsynced(t)
		}
		end = sort.Search(len(next), func(i int) bool { return next[i] > t+horizon })
	}
	rs.NextSyncs = next[done:end:end]
	return rs
}

// TableState is the catalog snapshot the planner receives for one table.
type TableState struct {
	ID      TableID
	Site    SiteID        // site holding the base table
	Replica *ReplicaState // nil when the table is not replicated locally
	// Views lists the materialized views maintained over this table, each
	// covering one query. Ordered deterministically (by ViewID) so plan
	// enumeration is reproducible.
	Views []ViewState
	// BaseDown marks the base table's site unavailable at planning time
	// (its circuit breaker is open): the planner excludes AccessBase for
	// this table and degrades to local versions — replicas or views —
	// pricing their true staleness into the information value. Planning
	// fails with SiteUnavailableError when a down table has no local
	// source to fall back on.
	BaseDown bool
}

// Validate reports whether the snapshot is internally consistent.
func (ts TableState) Validate() error {
	if ts.ID == "" {
		return fmt.Errorf("core: table state with empty ID")
	}
	if ts.Replica != nil {
		prev := ts.Replica.LastSync
		for _, n := range ts.Replica.NextSyncs {
			if n <= prev {
				return fmt.Errorf("core: table %s: next syncs not strictly ascending after last sync (%v after %v)", ts.ID, n, prev)
			}
			prev = n
		}
	}
	for _, vs := range ts.Views {
		if vs.ID == "" {
			return fmt.Errorf("core: table %s: view state with empty ID", ts.ID)
		}
		prev := vs.LastSync
		for _, n := range vs.NextSyncs {
			if n <= prev {
				return fmt.Errorf("core: table %s view %s: next syncs not strictly ascending after last sync (%v after %v)", ts.ID, vs.ID, n, prev)
			}
			prev = n
		}
	}
	return nil
}

// SiteUnavailableError is the typed degraded-mode failure: a query needs a
// table whose base site is down and no local replica exists (or none will
// exist within the planning horizon) to stand in for it.
type SiteUnavailableError struct {
	Table TableID
	Site  SiteID
	// Cause carries the underlying transport failure when the error is
	// raised at execution time rather than planning time; may be nil.
	Cause error
}

// Error implements the error interface.
func (e *SiteUnavailableError) Error() string {
	msg := fmt.Sprintf("degraded: table %s unavailable: site %d is down and no local replica exists", e.Table, e.Site)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying transport failure.
func (e *SiteUnavailableError) Unwrap() error { return e.Cause }

// Plan is a fully specified way to evaluate one query: a per-table access
// decision (aligned with Query.Tables) plus a start time and the cost
// estimate the planner used.
type Plan struct {
	Query  Query
	Access []TableAccess
	Start  Time // when the plan is released for execution (≥ submit)
	Cost   CostEstimate
}

// ExecStart returns when processing is expected to begin: release time plus
// estimated queuing delay.
func (p Plan) ExecStart() Time { return p.Start + p.Cost.Queue }

// ResultAt returns when the report is expected to arrive.
func (p Plan) ResultAt() Time { return p.ExecStart() + p.Cost.Process + p.Cost.Transmit }

// Latencies derives the plan's expected computational and synchronization
// latencies. CL runs from submission to result receipt — so a deliberately
// delayed plan pays its waiting time as computational latency, exactly as in
// Figure 2 of the paper. SL runs from the oldest freshness timestamp among
// accessed tables to result receipt; a base table is fresh as of the moment
// processing starts.
func (p Plan) Latencies() Latencies {
	exec := p.ExecStart()
	result := p.ResultAt()
	oldest := math.Inf(1)
	for _, a := range p.Access {
		fresh := a.Freshness
		if a.Kind == AccessBase {
			fresh = exec
		}
		oldest = math.Min(oldest, fresh)
	}
	if math.IsInf(oldest, 1) {
		// No accesses: a degenerate plan; treat data as perfectly fresh.
		oldest = result
	}
	return Latencies{
		CL: math.Max(result-p.Query.SubmitAt, 0),
		SL: math.Max(result-oldest, 0),
	}
}

// Value returns the plan's expected information value under the given rates.
func (p Plan) Value(r DiscountRates) float64 {
	return InformationValue(p.Query.BusinessValue, p.Latencies(), r)
}

// ViewAccess reports whether the plan is answered entirely from one
// materialized view — the only shape view plans take, since a view
// materializes a whole query's answer.
func (p Plan) ViewAccess() (TableAccess, bool) {
	if len(p.Access) == 1 && p.Access[0].Kind == AccessView {
		return p.Access[0], true
	}
	return TableAccess{}, false
}

// BaseTables returns the IDs of tables the plan reads remotely, in plan
// order.
func (p Plan) BaseTables() []TableID {
	var ids []TableID
	for _, a := range p.Access {
		if a.Kind == AccessBase {
			ids = append(ids, a.Table)
		}
	}
	return ids
}

// Signature returns a compact description of the plan's shape, e.g.
// "T1=base T2=replica@8.0 start=11.0". It is stable and intended for logs
// and tests.
func (p Plan) Signature() string {
	var b strings.Builder
	for i, a := range p.Access {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch a.Kind {
		case AccessBase:
			fmt.Fprintf(&b, "%s=base", a.Table)
		case AccessReplica:
			fmt.Fprintf(&b, "%s=replica@%.1f", a.Table, a.Freshness)
		case AccessView:
			fmt.Fprintf(&b, "%s=view:%s@%.1f", a.Table, a.View, a.Freshness)
		}
	}
	fmt.Fprintf(&b, " start=%.1f", p.Start)
	return b.String()
}
