package core

import (
	"fmt"
	"math"
	"slices"
)

// SearchMode selects the plan-space exploration strategy.
type SearchMode int

const (
	// ScatterGather is the paper's bounded search (Section 3.1, Figure 4):
	// seed with the all-base-tables plan, derive a tolerated-latency bound,
	// then walk future synchronization completions in order, enumerating at
	// each time point only the prefix chain of replicas ordered by
	// freshness. Under a cost model where remote cost depends on the number
	// (not identity) of base tables this finds the optimum; otherwise it is
	// a fast heuristic.
	ScatterGather SearchMode = iota + 1
	// ScatterGatherFull walks the same bounded timeline but enumerates all
	// 2^m base/replica subsets at every time point, so it remains optimal
	// under arbitrary cost models while still pruning by the latency bound.
	ScatterGatherFull
	// Exhaustive enumerates the cross product of every version of every
	// table (base, current replica, each scheduled future replica) without
	// the tolerated-latency bound. It exists as the correctness reference
	// for tests and for the search ablation benchmark.
	Exhaustive
)

// String names the mode for logs and benchmark output.
func (m SearchMode) String() string {
	switch m {
	case ScatterGather:
		return "scatter-gather"
	case ScatterGatherFull:
		return "scatter-gather-full"
	case Exhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("SearchMode(%d)", int(m))
	}
}

// PlannerConfig parameterizes plan search.
type PlannerConfig struct {
	Rates DiscountRates
	Mode  SearchMode
	// Horizon caps how far past the decision time the planner considers
	// delaying execution, even when the tolerated-latency bound is looser.
	// Zero means unbounded.
	Horizon Duration
	// MaxPlans aborts a search that would evaluate more than this many
	// plans (guards Exhaustive mode). Zero means the default of 1<<20.
	MaxPlans int
}

const defaultMaxPlans = 1 << 20

// SearchStats instruments one planning episode.
type SearchStats struct {
	PlansEvaluated int
	TimePoints     int      // decision instants visited on the timeline
	PrunedEvents   int      // future sync events cut off by the bound
	FinalBound     Duration // tolerated CL when the search ended
}

// Planner selects maximal-information-value plans. Construct with
// NewPlanner; the zero value is not usable.
type Planner struct {
	cost CostModel
	cfg  PlannerConfig
}

// NewPlanner validates the configuration and returns a Planner.
func NewPlanner(cost CostModel, cfg PlannerConfig) (*Planner, error) {
	if cost == nil {
		return nil, fmt.Errorf("core: planner needs a cost model")
	}
	if err := cfg.Rates.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case ScatterGather, ScatterGatherFull, Exhaustive:
	case 0:
		cfg.Mode = ScatterGather
	default:
		return nil, fmt.Errorf("core: unknown search mode %d", int(cfg.Mode))
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("core: negative horizon %v", cfg.Horizon)
	}
	if cfg.MaxPlans == 0 {
		cfg.MaxPlans = defaultMaxPlans
	}
	return &Planner{cost: cost, cfg: cfg}, nil
}

// Rates returns the discount rates the planner optimizes under.
func (p *Planner) Rates() DiscountRates { return p.cfg.Rates }

// Mode returns the configured search mode.
func (p *Planner) Mode() SearchMode { return p.cfg.Mode }

// Best returns the plan maximizing expected information value for q, given
// a catalog snapshot and the decision time `now` (usually q.SubmitAt; a
// scheduler replanning a queued query passes a later instant). The snapshot
// may contain states for tables the query does not touch; states for all
// touched tables must be present.
//
// buf lends the search its scratch: with capacity for twice q's tables
// the search allocates nothing, and the plan's Access aliases buf until
// buf is lent again. Without it (the usual call) every plan owns its
// Access.
func (p *Planner) Best(q Query, snapshot []TableState, now Time, buf ...TableAccess) (Plan, SearchStats, error) {
	var stats SearchStats
	if err := q.Validate(); err != nil {
		return Plan{}, stats, err
	}
	if now < q.SubmitAt {
		return Plan{}, stats, fmt.Errorf("core: decision time %v precedes submission %v of %s", now, q.SubmitAt, q.ID)
	}
	states, err := statesFor(q, snapshot)
	if err != nil {
		return Plan{}, stats, err
	}
	s := newSearch(p, q, states, buf)
	switch p.cfg.Mode {
	case Exhaustive:
		err = s.exhaustive(now)
	default:
		err = s.scatterGather(now, p.cfg.Mode == ScatterGatherFull)
	}
	if err != nil {
		return Plan{}, s.stats, err
	}
	return s.plan(), s.stats, nil
}

// statesFor projects the snapshot onto the query's tables, in query order.
// A snapshot already in query order is returned as is.
func statesFor(q Query, snapshot []TableState) ([]TableState, error) {
	inOrder := len(snapshot) == len(q.Tables)
	for i := range snapshot {
		if err := snapshot[i].Validate(); err != nil {
			return nil, err
		}
		inOrder = inOrder && snapshot[i].ID == q.Tables[i]
	}
	if inOrder {
		return snapshot, nil
	}
	states := make([]TableState, len(q.Tables))
	for i, id := range q.Tables {
		// The last state listed for a table wins.
		j := len(snapshot) - 1
		for j >= 0 && snapshot[j].ID != id {
			j--
		}
		if j < 0 {
			return nil, fmt.Errorf("core: no catalog state for table %s needed by query %s", id, q.ID)
		}
		states[i] = snapshot[j]
	}
	return states, nil
}

// replicaVersionAt returns the freshness timestamp of the newest replica
// version synchronized at or before t, and whether one exists.
func replicaVersionAt(rs *ReplicaState, t Time) (Time, bool) {
	if rs == nil {
		return 0, false
	}
	version := rs.LastSync
	ok := rs.LastSync <= t
	for _, n := range rs.NextSyncs {
		if n > t {
			break
		}
		version, ok = n, true
	}
	return version, ok
}

// horizonEnd returns the absolute latest decision instant to consider.
func (p *Planner) horizonEnd(now Time) Time {
	if p.cfg.Horizon == 0 {
		return math.Inf(1)
	}
	return now + p.cfg.Horizon
}

// search is one planning episode. Each candidate is built in access and
// priced there; only one that beats the best so far is copied, into best.
// access and best are the halves of one buffer, lent by the caller or
// else the episode's only allocation, and best becomes the returned
// plan's Access.
type search struct {
	p      *Planner
	q      Query
	states []TableState
	stats  SearchStats

	access, best []TableAccess
	bestVal      float64
	bestStart    Time
	bestCost     CostEstimate
}

func newSearch(p *Planner, q Query, states []TableState, buf []TableAccess) search {
	if cap(buf) < 2*len(states) {
		buf = make([]TableAccess, 2*len(states))
	}
	buf = buf[:2*len(states)]
	return search{p: p, q: q, states: states,
		access: buf[:len(states)], best: buf[len(states):len(states)], bestVal: math.Inf(-1)}
}

// consider prices the candidate access started at start and keeps it when
// it beats the best so far.
func (s *search) consider(access []TableAccess, start Time) {
	plan := Plan{Query: s.q, Access: access, Start: start}
	plan.Cost = s.p.cost.Estimate(s.q, access, start)
	s.stats.PlansEvaluated++
	if val := plan.Value(s.p.cfg.Rates); val > s.bestVal {
		s.best = append(s.best[:0], access...)
		s.bestVal, s.bestStart, s.bestCost = val, start, plan.Cost
	}
}

// plan returns the best plan found.
func (s *search) plan() Plan {
	if len(s.best) == 0 {
		return Plan{}
	}
	return Plan{Query: s.q, Access: s.best[:len(s.best):len(s.best)], Start: s.bestStart, Cost: s.bestCost}
}

// scatterGather implements the paper's bounded timeline search.
func (s *search) scatterGather(now Time, full bool) error {
	p, q := s.p, s.q
	// Scatter: the all-base-tables plan executed immediately seeds the
	// current optimum and the tolerated-latency bound. Tables whose base
	// site is down are pinned to their freshest local source (replica or
	// view) instead; if one of them only gains a version at a future sync,
	// the seed start slides to that instant.
	seedStart, err := s.availableSeed(now, p.horizonEnd(now))
	if err != nil {
		return err
	}
	s.consider(s.access, seedStart)
	boundary := q.SubmitAt + ToleratedCL(q.BusinessValue, s.bestVal, p.cfg.Rates)

	end := math.Min(p.horizonEnd(now), boundary)
	var buf [16]Time
	events := s.syncEvents(buf[:0], now, p.horizonEnd(now))

	// Gather: enumerate combinations at the decision time and then at each
	// future synchronization completion, shrinking the boundary as better
	// plans appear. Delayed all-base plans are never enumerated after the
	// first time point: delaying pure-base execution only adds CL.
	for i := 0; i <= len(events); i++ {
		t := now
		if i > 0 {
			t = events[i-1]
		}
		if t > end {
			s.stats.PrunedEvents += len(events) + 1 - i
			break
		}
		s.stats.TimePoints++
		before := s.bestVal
		s.gatherAt(t, full, i > 0)
		if s.bestVal > before {
			boundary = q.SubmitAt + ToleratedCL(q.BusinessValue, s.bestVal, p.cfg.Rates)
			end = math.Min(p.horizonEnd(now), boundary)
		}
	}
	s.stats.FinalBound = boundary - q.SubmitAt
	return nil
}

// gatherAt prices every candidate access assignment for a plan started at
// time t. Tables without a usable replica always read their base table.
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
// t there is no valid assignment and nothing is priced.
//
// Materialized views extend the enumeration: a view materializes the
// covered query's entire answer, so each usable view version contributes
// one whole-plan combination of its own rather than entering the per-table
// chain (views only ever cover single-table queries, enforced at
// registration).
func (s *search) gatherAt(t Time, full, skipAllBase bool) {
	// replicated is a usable replica: its table's index and freshness.
	type replicated struct {
		idx       int
		freshness Time
	}
	var repBuf [8]replicated
	var viewBuf [4]TableAccess
	var srcBuf [4]localSource
	reps, views := repBuf[:0], viewBuf[:0]
	access := s.access
	for i := range s.states {
		ts := &s.states[i]
		if len(s.states) == 1 {
			for _, src := range ts.localSources(srcBuf[:0], s.q) {
				if src.access.Kind != AccessView {
					continue
				}
				if v, ok := src.versionAt(t); ok {
					views = append(views, src.at(v))
				}
			}
		}
		if ts.BaseDown {
			acc, ok := bestLocal(ts.localSources(srcBuf[:0], s.q), t)
			if !ok {
				return
			}
			access[i] = acc
			// The pinned source gets fresher at later time points, so the
			// "no optional replicas" combination is no longer a dominated
			// pure-base delay — keep it.
			skipAllBase = false
			continue
		}
		access[i] = TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessBase}
		if v, ok := replicaVersionAt(ts.Replica, t); ok {
			reps = append(reps, replicated{i, v})
		}
	}
	// Oldest first, stable: an insertion sort over at most one replica
	// per table.
	for j := 1; j < len(reps); j++ {
		for k := j; k > 0 && reps[k].freshness < reps[k-1].freshness; k-- {
			reps[k], reps[k-1] = reps[k-1], reps[k]
		}
	}
	// use points reps[j]'s table at its replica, or back at its base.
	use := func(j int, replica bool) {
		a := &access[reps[j].idx]
		a.Kind, a.Freshness = AccessBase, 0
		if replica {
			a.Kind, a.Freshness = AccessReplica, reps[j].freshness
		}
	}
	m := len(reps)
	if full {
		for mask := 0; mask < 1<<m; mask++ {
			if skipAllBase && mask == 0 {
				continue
			}
			for j := range reps {
				use(j, mask&(1<<j) != 0)
			}
			s.consider(access, t)
		}
	} else {
		// Prefix chain: k oldest replicas demoted to base, the rest kept.
		for k := 0; k <= m; k++ {
			if skipAllBase && k == m {
				continue
			}
			for j := range reps {
				use(j, j >= k)
			}
			s.consider(access, t)
		}
	}
	for _, va := range views {
		access[0] = va // views only enter single-table queries
		s.consider(access, t)
	}
}

// availableSeed builds the scatter seed in access: base access everywhere
// a site is up, the freshest available local source (replica or view)
// where it is down. When a down table only gains its first local version
// at a future sync, the seed start slides forward to that instant; past
// the horizon (or with no local source at all) planning fails with
// SiteUnavailableError.
func (s *search) availableSeed(now, end Time) (Time, error) {
	var srcBuf [4]localSource
	start := now
	for i := range s.states {
		ts := &s.states[i]
		if !ts.BaseDown {
			continue
		}
		at, ok := earliestLocal(ts.localSources(srcBuf[:0], s.q), now)
		if !ok || at > end {
			return 0, &SiteUnavailableError{Table: ts.ID, Site: ts.Site}
		}
		if at > start {
			start = at
		}
	}
	for i := range s.states {
		ts := &s.states[i]
		if ts.BaseDown {
			s.access[i], _ = bestLocal(ts.localSources(srcBuf[:0], s.q), start)
			continue
		}
		s.access[i] = TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessBase}
	}
	return start, nil
}

// earliestReplicaAt returns the earliest instant ≥ now at which a replica
// version exists.
func earliestReplicaAt(rs *ReplicaState, now Time) (Time, bool) {
	if rs == nil {
		return 0, false
	}
	if _, ok := replicaVersionAt(rs, now); ok {
		return now, true
	}
	// Every version completes in the future: the earliest is LastSync when
	// it is still pending, else the first scheduled sync after now.
	if rs.LastSync > now {
		return rs.LastSync, true
	}
	for _, n := range rs.NextSyncs {
		if n > now {
			return n, true
		}
	}
	return 0, false
}

// exhaustive enumerates every combination of table versions. Each table
// contributes one option per version of every usable data source: the base
// table, the current replica or view (if synchronized by now), and one per
// scheduled future synchronization within the horizon. The plan start time
// is the latest freshness among chosen future versions (never earlier than
// now). View options appear only for single-table queries, since a view
// answers its covered query whole.
func (s *search) exhaustive(now Time) error {
	end := s.p.horizonEnd(now)
	options := make([][]TableAccess, len(s.states))
	total := 1
	var srcBuf [4]localSource
	for i := range s.states {
		ts := &s.states[i]
		var opts []TableAccess
		if !ts.BaseDown {
			opts = append(opts, TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessBase})
		}
		sources := ts.localSources(srcBuf[:0], s.q)
		for j := range sources {
			src := &sources[j]
			if src.access.Kind == AccessView && len(s.states) != 1 {
				continue
			}
			if v, ok := src.versionAt(now); ok {
				opts = append(opts, src.at(v))
			}
			for _, n := range src.timeline.NextSyncs {
				if n > now && n <= end {
					opts = append(opts, src.at(n))
				}
			}
		}
		if len(opts) == 0 {
			return &SiteUnavailableError{Table: ts.ID, Site: ts.Site}
		}
		options[i] = opts
		total *= len(opts)
		if total > s.p.cfg.MaxPlans {
			return fmt.Errorf("core: exhaustive search for %s exceeds MaxPlans=%d", s.q.ID, s.p.cfg.MaxPlans)
		}
	}
	s.enumerate(options, 0, now)
	s.stats.TimePoints = 1
	s.stats.FinalBound = math.Inf(1)
	return nil
}

// enumerate prices the cross product of options from table i on; start is
// the latest freshness among the versions chosen before i.
func (s *search) enumerate(options [][]TableAccess, i int, start Time) {
	if i == len(options) {
		s.consider(s.access, start)
		return
	}
	for _, opt := range options[i] {
		s.access[i] = opt
		next := start
		if opt.Kind != AccessBase && opt.Freshness > next {
			next = opt.Freshness
		}
		s.enumerate(options, i+1, next)
	}
}

// syncEvents appends to dst the distinct future synchronization
// completion times of every local data source usable by q — replicas and
// covering views — in (after, until], ascending.
func (s *search) syncEvents(dst []Time, after, until Time) []Time {
	var srcBuf [4]localSource
	for i := range s.states {
		sources := s.states[i].localSources(srcBuf[:0], s.q)
		for j := range sources {
			for _, n := range sources[j].timeline.NextSyncs {
				if n > after && n <= until {
					dst = append(dst, n)
				}
			}
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// FixedPlan builds a plan that applies one access kind to every table,
// started at now — the shape both baselines use: the Federation baseline
// reads every base table, the Data Warehouse baseline reads every replica.
// It returns an error if choose selects AccessReplica for a table that has
// never synchronized a replica.
func FixedPlan(q Query, snapshot []TableState, now Time, cost CostModel, choose func(TableState) AccessKind) (Plan, error) {
	if err := q.Validate(); err != nil {
		return Plan{}, err
	}
	states, err := statesFor(q, snapshot)
	if err != nil {
		return Plan{}, err
	}
	access := make([]TableAccess, len(states))
	for i, ts := range states {
		kind := choose(ts)
		switch kind {
		case AccessBase:
			access[i] = TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessBase}
		case AccessReplica:
			v, ok := replicaVersionAt(ts.Replica, now)
			if !ok {
				return Plan{}, fmt.Errorf("core: table %s has no replica synchronized by %v", ts.ID, now)
			}
			access[i] = TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessReplica, Freshness: v}
		default:
			return Plan{}, fmt.Errorf("core: invalid access kind %d for table %s", int(kind), ts.ID)
		}
	}
	plan := Plan{Query: q, Access: access, Start: now}
	plan.Cost = cost.Estimate(q, access, now)
	return plan, nil
}
