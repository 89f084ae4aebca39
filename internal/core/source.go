package core

import (
	"fmt"
	"strings"
)

// The data sources: a plan answers one table access from the remote base
// table, a synchronized local replica, or an incrementally maintained
// materialized view. Replicas and views share their versioning model (a
// last completed synchronization plus scheduled future completions), so
// the planner reads both as one localSource over the same timeline
// arithmetic.

// ViewID names a materialized view.
type ViewID string

// viewUnitPrefix namespaces views inside the TableID space so the sync
// agent, replication manager, and placement advisor treat a view as just
// another synchronized unit.
const viewUnitPrefix = "view:"

// ViewUnit returns the namespaced unit ID a view synchronizes under.
func ViewUnit(id ViewID) TableID { return TableID(viewUnitPrefix + string(id)) }

// ViewOfUnit reports whether a unit ID names a view, and which.
func ViewOfUnit(t TableID) (ViewID, bool) {
	if rest, ok := strings.CutPrefix(string(t), viewUnitPrefix); ok {
		return ViewID(rest), true
	}
	return "", false
}

// ViewState is the planner's snapshot of one materialized view: which
// query it answers and its synchronization timeline, shaped exactly like a
// replica's.
type ViewState struct {
	ID ViewID
	// QueryID is the query whose full answer the view materializes; the
	// planner offers the view only to that query.
	QueryID   string
	LastSync  Time
	NextSyncs []Time
}

// At is the view's state at a later instant t by ReplicaState.At's rule.
func (vs ViewState) At(t Time, horizon Duration) ViewState {
	rs := ReplicaState{vs.LastSync, vs.NextSyncs}.At(t, horizon)
	vs.LastSync, vs.NextSyncs = rs.LastSync, rs.NextSyncs
	return vs
}

// ViewDef ties a view to its defining SQL. The catalog registers
// definitions; ViewStates are derived from the replication manager's state
// for the view's unit.
type ViewDef struct {
	ID      ViewID
	QueryID string
	// Table is the single base table the view is maintained over.
	Table TableID
	SQL   string
}

// Validate checks the definition's identifiers.
func (d ViewDef) Validate() error {
	if d.ID == "" {
		return fmt.Errorf("core: view definition with empty ID")
	}
	if d.QueryID == "" {
		return fmt.Errorf("core: view %s has no query ID", d.ID)
	}
	if d.Table == "" {
		return fmt.Errorf("core: view %s has no base table", d.ID)
	}
	if d.SQL == "" {
		return fmt.Errorf("core: view %s has no SQL", d.ID)
	}
	return nil
}

// localSource is a data source served from the DSS itself — the table's
// replica or a view covering the query — as the planner reads it: a sync
// timeline (a view's is shaped exactly like a replica's) and the access
// each of its versions builds.
type localSource struct {
	timeline ReplicaState
	access   TableAccess // Freshness is set per version
}

// versionAt returns the freshness of the newest version available at t.
func (s *localSource) versionAt(t Time) (Time, bool) { return replicaVersionAt(&s.timeline, t) }

// at builds the access reading the version with freshness v.
func (s *localSource) at(v Time) TableAccess {
	a := s.access
	a.Freshness = v
	return a
}

// localSources appends the table's local sources usable by q to dst, in
// canonical order: the replica (when one is registered), then every view
// covering q (snapshot order, which the catalog keeps sorted by ViewID).
// These are the fallbacks a BaseDown table can degrade to and the units
// whose syncs are the planner's time points.
func (ts *TableState) localSources(dst []localSource, q Query) []localSource {
	if ts.Replica != nil {
		dst = append(dst, localSource{*ts.Replica, TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessReplica}})
	}
	for _, vs := range ts.Views {
		if vs.QueryID == q.ID {
			dst = append(dst, localSource{ReplicaState{vs.LastSync, vs.NextSyncs}, TableAccess{Table: ts.ID, Site: ts.Site, Kind: AccessView, View: vs.ID}})
		}
	}
	return dst
}

// bestLocal picks the freshest local version available at t across the
// given sources; on a freshness tie the earlier-listed source wins (the
// replica, given localSources order). It is what BaseDown pinning uses.
func bestLocal(sources []localSource, t Time) (TableAccess, bool) {
	var best TableAccess
	bestV := Time(0)
	found := false
	for i := range sources {
		v, ok := sources[i].versionAt(t)
		if !ok {
			continue
		}
		if !found || v > bestV {
			best, bestV, found = sources[i].at(v), v, true
		}
	}
	return best, found
}

// earliestLocal returns the earliest instant ≥ now at which any of the
// given sources has a version.
func earliestLocal(sources []localSource, now Time) (Time, bool) {
	best := Time(0)
	found := false
	for i := range sources {
		at, ok := earliestReplicaAt(&sources[i].timeline, now)
		if !ok {
			continue
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}
