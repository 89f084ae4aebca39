package server

import (
	"context"
	"fmt"

	"ivdss/internal/advisor"
	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/replsync"
)

// Live replication: the DSS wires the replsync engine to its remote sites.
// The fetcher speaks the versioned netproto replication kinds through the
// full fault-tolerance stack (pool, retries, breaker), so a sync against a
// site whose breaker is open surfaces faults.OpenError and the agent
// defers the cycle instead of burning retries. The applier swaps replica
// snapshots copy-on-write under the server lock with the instant the agent
// hands it; the agent enters that instant in its own ledger only once the
// applier has returned, and the catalog reads replica freshness from that
// ledger, so the planner never prices a replica fresher than the store
// holds.

// siteFetcher implements replsync.Fetcher over the wire.
type siteFetcher struct{ s *DSSServer }

// wireTarget resolves a sync unit to what travels on the wire: a replica
// unit pulls its own base table whole; a view unit pulls its base table
// through the view's shipping SELECT, which the base site runs over the
// candidate rows, so only relevant bytes cross.
func (f siteFetcher) wireTarget(id core.TableID) (table core.TableID, sql string, err error) {
	if vid, ok := core.ViewOfUnit(id); ok {
		vs, err := f.s.viewByID(vid)
		if err != nil {
			return "", "", err
		}
		return vs.def.Table, vs.wireSQL, nil
	}
	return id, "", nil
}

func (f siteFetcher) Snapshot(ctx context.Context, id core.TableID) (replsync.Snapshot, error) {
	s := f.s
	table, sql, err := f.wireTarget(id)
	if err != nil {
		return replsync.Snapshot{}, err
	}
	site, err := s.catalog.Placement().SiteOf(table)
	if err != nil {
		return replsync.Snapshot{}, err
	}
	req := &netproto.Request{Kind: netproto.KindSnapshot, Table: string(table), SQL: sql}
	resp, err := s.callSite(ctx, site, req)
	if err != nil {
		return replsync.Snapshot{}, err
	}
	return replsync.Snapshot{
		Table:   resp.Result,
		Version: resp.Version,
		Bytes:   resp.Result.SizeBytes(),
	}, nil
}

func (f siteFetcher) Delta(ctx context.Context, id core.TableID, cursor uint64) (replsync.Delta, error) {
	s := f.s
	table, sql, err := f.wireTarget(id)
	if err != nil {
		return replsync.Delta{}, err
	}
	site, err := s.catalog.Placement().SiteOf(table)
	if err != nil {
		return replsync.Delta{}, err
	}
	req := &netproto.Request{Kind: netproto.KindDelta, Table: string(table), Cursor: cursor, SQL: sql}
	resp, err := s.callSite(ctx, site, req)
	if err != nil {
		return replsync.Delta{}, err
	}
	return replsync.Delta{
		Rows:    resp.DeltaRows,
		Version: resp.Version,
		Bytes:   (&relation.Table{Rows: resp.DeltaRows}).SizeBytes(),
		Resync:  resp.Resync,
	}, nil
}

// replicaApplier implements replsync.Applier over the server's replica
// store. Every apply is an atomic swap under s.mu, so readers see either
// the old or the new copy, never a half-applied one.
type replicaApplier struct{ s *DSSServer }

func (ap replicaApplier) ApplySnapshot(id core.TableID, snap replsync.Snapshot, at core.Time) error {
	if vid, ok := core.ViewOfUnit(id); ok {
		return ap.applyViewSnapshot(vid, snap, at)
	}
	if snap.Table == nil {
		return fmt.Errorf("server: snapshot of %s carried no table", id)
	}
	snap.Table.Name = string(id)
	s := ap.s
	s.mu.Lock()
	old := s.replicas[id].table
	s.replicas[id] = replicaSnapshot{table: snap.Table, syncedAt: at}
	s.mu.Unlock()
	// The executor's cache is keyed by the rows' storage and the
	// swapped-out copy will not be handed to a new query again, so evict
	// what was cached for it (here, on a delta's copy-on-write swap, and
	// on Drop). A query still in flight over it merely re-caches it until
	// the cache next cycles.
	s.execCache.Forget(old)
	s.stats.Counter("replica_syncs_total").Inc()
	return nil
}

func (ap replicaApplier) ApplyDelta(id core.TableID, delta replsync.Delta, at core.Time) error {
	if vid, ok := core.ViewOfUnit(id); ok {
		return ap.applyViewDelta(vid, delta, at)
	}
	s := ap.s
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.replicas[id]
	if !ok {
		return fmt.Errorf("server: delta for %s but no replica snapshot", id)
	}
	if len(delta.Rows) == 0 {
		// Nothing changed upstream: same contents, fresher stamp.
		s.replicas[id] = replicaSnapshot{table: cur.table, syncedAt: at}
	} else {
		// Copy-on-write: in-flight queries hold the old table; the next
		// one is a new row slice over the same rows plus the delta's, and
		// swaps in whole. A replica row is never written once applied
		// (RemoteServer.snapshot relies on the same rule), so the two
		// snapshots share rows; Insert type-checks each delta row.
		old := cur.table
		next := &relation.Table{Name: old.Name, Schema: old.Schema,
			Rows: append(make([]relation.Row, 0, len(old.Rows)+len(delta.Rows)), old.Rows...)}
		for i, row := range delta.Rows {
			if err := next.Insert(row); err != nil {
				return fmt.Errorf("server: delta row %d for %s: %w", i, id, err)
			}
		}
		s.replicas[id] = replicaSnapshot{table: next, syncedAt: at}
		s.execCache.Forget(cur.table)
	}
	s.stats.Counter("replica_syncs_total").Inc()
	return nil
}

func (ap replicaApplier) Drop(id core.TableID) {
	if vid, ok := core.ViewOfUnit(id); ok {
		ap.s.dropView(vid)
		return
	}
	s := ap.s
	s.mu.Lock()
	old := s.replicas[id].table
	delete(s.replicas, id)
	s.mu.Unlock()
	s.execCache.Forget(old)
}

// recentQueries is the sliding window of executed queries the placement
// review scores replica sets against.
const recentQueriesCap = 32

// minPlacementWorkload is how many recent queries the placer needs before
// it will second-guess the configured replica set.
const minPlacementWorkload = 8

// noteRecentQuery records an executed query for the placer's workload
// window.
func (s *DSSServer) noteRecentQuery(q core.Query) {
	s.recentMu.Lock()
	defer s.recentMu.Unlock()
	if len(s.recent) < recentQueriesCap {
		s.recent = append(s.recent, q)
	} else {
		s.recent[s.recentIdx%recentQueriesCap] = q
	}
	s.recentIdx++
}

// recentWindow copies the current workload window.
func (s *DSSServer) recentWindow() []core.Query {
	s.recentMu.Lock()
	defer s.recentMu.Unlock()
	return append([]core.Query{}, s.recent...)
}

// advisorPlacer implements replsync.Placer with the replica-selection
// advisor scored over the server's recent query window.
type advisorPlacer struct{ s *DSSServer }

func (p advisorPlacer) Recommend(current []core.TableID) ([]core.TableID, error) {
	s := p.s
	queries := s.recentWindow()
	if len(queries) < minPlacementWorkload || len(current) == 0 {
		return current, nil
	}
	// The advisor scores against a mean sync period; use the mean of the
	// cadences currently in force.
	var meanPeriod core.Duration
	for _, st := range s.sync.Status() {
		meanPeriod += st.Period
	}
	meanPeriod /= core.Duration(len(current))
	adv, err := advisor.New(advisor.Config{
		Cost:     s.costs,
		Rates:    s.cfg.Rates,
		SyncMean: meanPeriod,
		Horizon:  s.cfg.PlannerHorizon,
		Samples:  4,
		Seed:     1,
	})
	if err != nil {
		return nil, err
	}
	// Every registered view competes for sync slots alongside table
	// replicas: promotion materializes a view the workload would answer
	// from, demotion drops one that stopped earning its slot.
	var views []advisor.ViewCandidate
	for _, def := range s.catalog.Views() {
		views = append(views, advisor.ViewCandidate{ID: def.ID, QueryID: def.QueryID, Table: def.Table})
	}
	// Same sync budget: the review re-places, it does not grow the set.
	rec, err := adv.RecommendSources(queries, s.catalog.Placement(), views, len(current))
	if err != nil {
		return nil, err
	}
	units := rec.Units()
	if len(units) == 0 {
		return current, nil
	}
	return units, nil
}

// newSyncAgent wires the replication engine for this server's configured
// replica set. Periods, budget, and the adjust interval convert from
// wall-clock config to experiment minutes.
func (s *DSSServer) newSyncAgent() (*replsync.Agent, error) {
	tables := make([]replsync.TableConfig, 0, len(s.cfg.Replicate)+len(s.views))
	for _, id := range sortedKeys(s.cfg.Replicate) {
		tables = append(tables, replsync.TableConfig{
			ID:     id,
			Period: s.cfg.Replicate[id].Seconds() * s.cfg.TimeScale,
		})
	}
	// Views are synchronized units too: same agent, same budget, same
	// cadence controller — their cycles just ship projected deltas.
	for _, id := range sortedKeys(s.views) {
		tables = append(tables, replsync.TableConfig{
			ID:     core.ViewUnit(id),
			Period: s.views[id].period.Seconds() * s.cfg.TimeScale,
		})
	}
	cfg := replsync.Config{
		Clock:   s.clock,
		Fetch:   siteFetcher{s},
		Apply:   replicaApplier{s},
		Context: s.baseCtx,
		Tables:  tables,
		// Bytes per wall-second → bytes per experiment minute.
		Budget:      s.cfg.SyncBudget / s.cfg.TimeScale,
		Adaptive:    s.cfg.AdaptiveSync,
		AdjustEvery: s.cfg.SyncAdjustEvery.Seconds() * s.cfg.TimeScale,
		Stats:       s.stats,
	}
	if s.cfg.AdaptiveSync {
		cfg.Placer = advisorPlacer{s}
	}
	return replsync.New(cfg)
}

// syncLossObserver feeds the cadence controller: the erosion of the
// (1−λSL)^SL factor of one report, attributed to the replicas its plan
// read.
func (s *DSSServer) observeSyncLoss(plan core.Plan, value float64, lat core.Latencies) {
	if s.sync == nil {
		return
	}
	var units []core.TableID
	for _, a := range plan.Access {
		switch a.Kind {
		case core.AccessReplica:
			units = append(units, a.Table)
		case core.AccessView:
			units = append(units, core.ViewUnit(a.View))
		}
	}
	if len(units) == 0 {
		return
	}
	fresh := core.InformationValue(plan.Query.BusinessValue, core.Latencies{CL: lat.CL}, s.cfg.Rates)
	if loss := fresh - value; loss > 0 {
		s.sync.ObserveLoss(units, loss)
	}
}
