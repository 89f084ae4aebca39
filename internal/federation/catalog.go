package federation

import (
	"fmt"

	"ivdss/internal/core"
)

// ReplicaStates is whoever keeps the freshness of the local replicas and
// view units: a replication.Manager over schedules materialized in advance
// (the DES, the paper's simulator setup) or the live server's sync agent
// answering from the cycles it actually ran.
type ReplicaStates interface {
	// StateFor is the planner's view of one unit at time now, false when
	// it is not replicated.
	StateFor(id core.TableID, now core.Time, horizon core.Duration) (core.ReplicaState, bool)
	// Tables lists the units with state, sorted.
	Tables() []core.TableID
}

// SiteHealth says whether a remote site is down at an instant: the DES
// outage schedule (synth.Workload) or the live server's open breakers.
type SiteHealth interface {
	SiteDown(site core.SiteID, now core.Time) bool
}

// Catalog combines table placement, replication state, and the
// materialized-view directory into the snapshot the IVQP planner consumes:
// per table, every data source the plan space enumerates.
type Catalog struct {
	placement *Placement
	replicas  ReplicaStates
	views     viewRegistry
	health    SiteHealth // nil: every site is up
}

// NewCatalog wires a placement to the keeper of replica freshness. Every
// table it replicates must be placed; a view unit's base table is checked
// when RegisterView names it.
func NewCatalog(p *Placement, m ReplicaStates) (*Catalog, error) {
	if p == nil || m == nil {
		return nil, fmt.Errorf("federation: catalog needs placement and replication manager")
	}
	for _, id := range m.Tables() {
		if _, isView := core.ViewOfUnit(id); isView {
			continue
		}
		if _, err := p.SiteOf(id); err != nil {
			return nil, fmt.Errorf("federation: replicated table %s is not placed", id)
		}
	}
	return &Catalog{placement: p, replicas: m}, nil
}

// WatchSites makes the catalog read site health from h: a table whose
// base site h reports down is snapshotted with BaseDown, so its base
// access leaves the plan space and the planner prices the freshest local
// source's true staleness instead. Both legs mark outages here and
// nowhere else. Call it before the catalog is shared.
func (c *Catalog) WatchSites(h SiteHealth) { c.health = h }

// SiteDown reports whether the watched health source has the site down
// at now; false when no source is watched.
func (c *Catalog) SiteDown(site core.SiteID, now core.Time) bool {
	return c.health != nil && c.health.SiteDown(site, now)
}

// Placement exposes the underlying placement.
func (c *Catalog) Placement() *Placement { return c.placement }

// Snapshot returns the planner view of the given tables at time now,
// including scheduled syncs within the horizon (0 = unbounded) and, per
// table, whether its base site is down (WatchSites). The tables' replica
// states share one array.
func (c *Catalog) Snapshot(tables []core.TableID, now core.Time, horizon core.Duration) ([]core.TableState, error) {
	out := make([]core.TableState, len(tables))
	var replicas []core.ReplicaState
	for i, id := range tables {
		site, err := c.placement.SiteOf(id)
		if err != nil {
			return nil, err
		}
		out[i] = core.TableState{ID: id, Site: site, Views: c.viewStatesFor(id, now, horizon), BaseDown: c.SiteDown(site, now)}
		if rs, ok := c.replicas.StateFor(id, now, horizon); ok {
			if replicas == nil {
				replicas = make([]core.ReplicaState, len(tables))
			}
			replicas[i] = rs
			out[i].Replica = &replicas[i]
		}
	}
	return out, nil
}
