// Package router implements the pre-calculated routing of Section 3.1:
// "If all queries are registered in advance and a QoS aware replication
// manager is deployed to ensure updates to a table propagated to its
// replica in DSS within a pre-defined time frame, information values of
// all queries can be pre-calculated for routing."
//
// At registration time the router runs the full IVQP search over a grid of
// staleness scenarios permitted by the QoS window and tabulates, per
// scenario bucket, the *shape* of the optimal plan — which tables read
// base, which read the current replica, and which wait for the next
// synchronization. At query time Route picks the bucket from the observed
// staleness and materializes the memorized shape against the live catalog
// snapshot in microseconds, with a safe fallback signal whenever the
// snapshot falls outside what was precomputed.
package router

import (
	"fmt"
	"math"
	"sync"

	"ivdss/internal/core"
)

// choice is the memorized per-table decision.
type choice int

const (
	useBase choice = iota + 1
	useReplicaNow
	useReplicaNext // delay until the table's next synchronization
)

// Config parameterizes the router.
type Config struct {
	// Cost and Rates must match the planner the router stands in for.
	Cost  core.CostModel
	Rates core.DiscountRates
	// Buckets is the staleness grid resolution per QoS window (default 16).
	Buckets int
	// FutureSyncs bounds how many upcoming syncs the precomputation
	// assumes visible (default 3).
	FutureSyncs int
}

func (c Config) validate() error {
	if c.Cost == nil {
		return fmt.Errorf("router: needs a cost model")
	}
	if err := c.Rates.Validate(); err != nil {
		return err
	}
	if c.Buckets < 0 {
		return fmt.Errorf("router: negative bucket count")
	}
	if c.FutureSyncs < 0 {
		return fmt.Errorf("router: negative future sync count")
	}
	return nil
}

// entry is one registered query's routing table.
type entry struct {
	query      core.Query
	window     core.Duration
	replicated []bool
	sites      []core.SiteID
	// decisions[b][i] is the choice for table i in staleness bucket b.
	decisions [][]choice
}

// Router precomputes and serves plan shapes. Construct with New; register
// queries with Register; route with Route. The router is safe for
// concurrent use: Route takes a read lock, Register a write lock.
type Router struct {
	cfg     Config
	planner *core.Planner

	mu      sync.RWMutex
	entries map[string]*entry
}

// New validates the config and returns an empty Router.
func New(cfg Config) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 16
	}
	if cfg.FutureSyncs == 0 {
		cfg.FutureSyncs = 3
	}
	planner, err := core.NewPlanner(cfg.Cost, core.PlannerConfig{Rates: cfg.Rates})
	if err != nil {
		return nil, err
	}
	return &Router{cfg: cfg, planner: planner, entries: make(map[string]*entry)}, nil
}

// Registered reports whether a query ID has a routing table.
func (r *Router) Registered(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[id]
	return ok
}

// Register precomputes the routing table for a query. replicated flags the
// tables (aligned with q.Tables) that have local replicas; sites gives the
// base-table site per table; window is the QoS staleness bound the
// replication manager guarantees for every replicated table the query
// touches.
func (r *Router) Register(q core.Query, sites []core.SiteID, replicated []bool, window core.Duration) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if len(sites) != len(q.Tables) || len(replicated) != len(q.Tables) {
		return fmt.Errorf("router: %s: sites/replicated must align with %d tables", q.ID, len(q.Tables))
	}
	if window <= 0 {
		return fmt.Errorf("router: %s: QoS window %v must be positive", q.ID, window)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[q.ID]; ok {
		return fmt.Errorf("router: query %s already registered", q.ID)
	}

	e := &entry{
		query:      q,
		window:     window,
		replicated: append([]bool{}, replicated...),
		sites:      append([]core.SiteID{}, sites...),
		decisions:  make([][]choice, r.cfg.Buckets),
	}
	for b := 0; b < r.cfg.Buckets; b++ {
		// Bucket midpoint staleness, applied uniformly: under QoS every
		// replica is at most `window` stale, and the next sync completes
		// within window − staleness.
		s := (float64(b) + .5) / float64(r.cfg.Buckets) * window
		states := make([]core.TableState, len(q.Tables))
		for i, id := range q.Tables {
			states[i] = core.TableState{ID: id, Site: sites[i]}
			if !replicated[i] {
				continue
			}
			rs := &core.ReplicaState{LastSync: -s}
			next := math.Max(window-s, window/float64(r.cfg.Buckets)/2)
			for k := 0; k < r.cfg.FutureSyncs; k++ {
				rs.NextSyncs = append(rs.NextSyncs, next)
				next += window
			}
			states[i].Replica = rs
		}
		probe := q
		probe.SubmitAt = 0
		plan, _, err := r.planner.Best(probe, states, 0)
		if err != nil {
			return fmt.Errorf("router: %s bucket %d: %w", q.ID, b, err)
		}
		decision := make([]choice, len(q.Tables))
		for i, a := range plan.Access {
			switch {
			case a.Kind == core.AccessBase:
				decision[i] = useBase
			case a.Freshness > 0:
				decision[i] = useReplicaNext
			default:
				decision[i] = useReplicaNow
			}
		}
		e.decisions[b] = decision
	}
	r.entries[q.ID] = e
	return nil
}

// Route materializes the memorized plan shape for a registered query
// against a live catalog snapshot. It returns ok=false — meaning the
// caller should fall back to the full planner — when the query is not
// registered, the snapshot's shape differs from registration, a needed
// replica has no usable version or scheduled sync, or observed staleness
// exceeds the QoS window the table was registered under. A replica whose
// LastSync sits *ahead* of now (clock skew between a gossip-reported sync
// stamp and the local clock) is treated as perfectly fresh — staleness
// clamps to zero rather than going negative and indexing outside the
// decision grid.
func (r *Router) Route(id string, snapshot []core.TableState, now core.Time) (core.Plan, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, registered := r.entries[id]
	if !registered {
		return core.Plan{}, false
	}
	byID := make(map[core.TableID]core.TableState, len(snapshot))
	for _, ts := range snapshot {
		byID[ts.ID] = ts
		// A synchronized view covering this query changes the plan space in
		// a way the precomputed base/replica shapes cannot price: hand the
		// query back to the full search so the view gets considered.
		for _, v := range ts.Views {
			if v.QueryID == id {
				return core.Plan{}, false
			}
		}
	}

	// Observed worst staleness across the query's replicated tables.
	worst := core.Duration(0)
	for i, tid := range e.query.Tables {
		if !e.replicated[i] {
			continue
		}
		ts, ok := byID[tid]
		if !ok || ts.Replica == nil {
			return core.Plan{}, false
		}
		if s := now - ts.Replica.LastSync; s > worst {
			worst = s // a negative s (skewed-ahead stamp) never raises worst
		}
	}
	if worst > e.window {
		return core.Plan{}, false // QoS violated: precomputation invalid
	}
	bucket := int(worst / e.window * core.Duration(r.cfg.Buckets))
	if bucket >= r.cfg.Buckets {
		bucket = r.cfg.Buckets - 1
	}
	if bucket < 0 {
		bucket = 0
	}

	decision := e.decisions[bucket]
	access := make([]core.TableAccess, len(e.query.Tables))
	start := now
	for i, tid := range e.query.Tables {
		ts, ok := byID[tid]
		if !ok {
			return core.Plan{}, false
		}
		switch decision[i] {
		case useBase:
			access[i] = core.TableAccess{Table: tid, Site: ts.Site, Kind: core.AccessBase}
		case useReplicaNow:
			if ts.Replica == nil {
				return core.Plan{}, false
			}
			// Clamp a skewed-ahead sync stamp: the replica is at least as
			// fresh as now, never fresher.
			fresh := ts.Replica.LastSync
			if fresh > now {
				fresh = now
			}
			access[i] = core.TableAccess{Table: tid, Site: ts.Site, Kind: core.AccessReplica, Freshness: fresh}
		case useReplicaNext:
			if ts.Replica == nil || len(ts.Replica.NextSyncs) == 0 {
				return core.Plan{}, false
			}
			next := ts.Replica.NextSyncs[0]
			access[i] = core.TableAccess{Table: tid, Site: ts.Site, Kind: core.AccessReplica, Freshness: next}
			if next > start {
				start = next
			}
		default:
			return core.Plan{}, false
		}
	}
	q := e.query
	q.SubmitAt = now
	plan := core.Plan{Query: q, Access: access, Start: start}
	plan.Cost = r.cfg.Cost.Estimate(q, access, start)
	return plan, true
}

// Len returns the number of registered queries.
func (r *Router) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
