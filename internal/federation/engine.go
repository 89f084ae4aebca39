package federation

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/relation"
	"ivdss/internal/replication"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// Site is an in-process remote server holding base tables. The live TCP
// deployment (internal/server) exposes the same data over the wire; the
// engine here is the embedded equivalent used by examples, tests and
// calibration.
type Site struct {
	id     core.SiteID
	tables map[core.TableID]*relation.Table
}

// NewSite returns an empty remote site.
func NewSite(id core.SiteID) *Site {
	return &Site{id: id, tables: make(map[core.TableID]*relation.Table)}
}

// ID returns the site identifier.
func (s *Site) ID() core.SiteID { return s.id }

// AddTable installs a base table on the site.
func (s *Site) AddTable(t *relation.Table) error {
	id := core.TableID(strings.ToLower(t.Name))
	if _, ok := s.tables[id]; ok {
		return fmt.Errorf("federation: site %d already has table %s", s.id, id)
	}
	s.tables[id] = t
	return nil
}

// Table returns a base table by ID.
func (s *Site) Table(id core.TableID) (*relation.Table, error) {
	t, ok := s.tables[id]
	if !ok {
		return nil, fmt.Errorf("federation: site %d has no table %s", s.id, id)
	}
	return t, nil
}

// Engine executes chosen plans over live data: base accesses read the
// owning site's table, replica accesses read the local replica snapshot
// maintained by the replication manager's sync events.
type Engine struct {
	catalog  *Catalog
	manager  *replication.Manager
	sites    map[core.SiteID]*Site
	replicas map[core.TableID]*relation.Table
	// views holds each materialized view's current answer table,
	// installed by the view maintenance pipeline.
	views map[core.ViewID]*relation.Table
	// netDelay simulates the network cost of each remote base-table
	// access; in-process sites are otherwise as fast as local replicas,
	// which would hide the federation trade-off the planner reasons about.
	netDelay time.Duration
	// execCache is shared by every plan execution, so repeated plans over
	// the same replica snapshots reuse columnar images and hash-join builds.
	execCache *sqlmini.ExecCache
}

// NewEngine builds an engine and subscribes it to the replication manager
// behind the catalog, so sync events refresh local replica snapshots.
func NewEngine(catalog *Catalog, manager *replication.Manager) (*Engine, error) {
	if catalog == nil || manager == nil {
		return nil, fmt.Errorf("federation: engine needs a catalog and its replication manager")
	}
	e := &Engine{
		catalog:   catalog,
		manager:   manager,
		sites:     make(map[core.SiteID]*Site),
		replicas:  make(map[core.TableID]*relation.Table),
		views:     make(map[core.ViewID]*relation.Table),
		execCache: sqlmini.NewExecCache(),
	}
	manager.OnSync(func(ev replication.SyncEvent) {
		// A copy fails only for a table no site holds, which then has no
		// snapshot at all: replica plans over it fail at Replica.
		_ = e.refreshReplica(ev.Table)
	})
	return e, nil
}

// SetNetworkDelay configures the simulated per-access network cost of
// reading a base table from a remote site. Zero (the default) disables it.
func (e *Engine) SetNetworkDelay(d time.Duration) { e.netDelay = d }

// AddSite registers a remote site.
func (e *Engine) AddSite(s *Site) error {
	if _, ok := e.sites[s.ID()]; ok {
		return fmt.Errorf("federation: site %d already registered", s.ID())
	}
	e.sites[s.ID()] = s
	return nil
}

// Distribute creates sites per the catalog's placement and installs each
// base table on its owning site.
func (e *Engine) Distribute(tables map[string]*relation.Table) error {
	// Install in sorted name order: site construction and the first
	// error surfaced must not depend on map iteration order.
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := tables[name]
		id := core.TableID(strings.ToLower(name))
		site, err := e.catalog.Placement().SiteOf(id)
		if err != nil {
			return err
		}
		s, ok := e.sites[site]
		if !ok {
			s = NewSite(site)
			e.sites[site] = s
		}
		if err := s.AddTable(t); err != nil {
			return err
		}
	}
	return nil
}

// InstallView installs (or replaces) a materialized view's current answer
// table. The view maintenance pipeline calls this after each refresh;
// AccessView plans read the installed table.
func (e *Engine) InstallView(id core.ViewID, t *relation.Table) {
	e.views[id] = t
}

// View returns the current answer table of a materialized view.
func (e *Engine) View(id core.ViewID) (*relation.Table, error) {
	t, ok := e.views[id]
	if !ok {
		return nil, fmt.Errorf("federation: no materialized answer for view %s", id)
	}
	return t, nil
}

// refreshReplica snapshots the base table into the local replica store.
func (e *Engine) refreshReplica(id core.TableID) error {
	site, err := e.catalog.Placement().SiteOf(id)
	if err != nil {
		return err
	}
	s, ok := e.sites[site]
	if !ok {
		return fmt.Errorf("federation: site %d not registered for replica %s", site, id)
	}
	t, err := s.Table(id)
	if err != nil {
		return err
	}
	e.replicas[id] = t.Clone()
	return nil
}

// Replica returns the current local snapshot of a replicated table.
func (e *Engine) Replica(id core.TableID) (*relation.Table, error) {
	t, ok := e.replicas[id]
	if !ok {
		return nil, fmt.Errorf("federation: no replica snapshot for %s", id)
	}
	return t, nil
}

// planCatalog resolves table names per the plan's access decisions. It
// carries the execution context so simulated network waits (and the fetch
// itself) stop as soon as the caller's deadline expires.
type planCatalog struct {
	ctx    context.Context
	engine *Engine
	access map[core.TableID]core.TableAccess
}

var _ sqlmini.Catalog = (*planCatalog)(nil)

func (pc *planCatalog) Table(name string) (*relation.Table, error) {
	if err := pc.ctx.Err(); err != nil {
		return nil, context.Cause(pc.ctx)
	}
	id := core.TableID(strings.ToLower(name))
	a, ok := pc.access[id]
	if !ok {
		return nil, fmt.Errorf("federation: plan has no access decision for table %s", id)
	}
	switch a.Kind {
	case core.AccessReplica:
		return pc.engine.Replica(id)
	case core.AccessView:
		// A view materializes a whole query's answer, never a base table's
		// rows: view plans bypass SQL execution in ExecutePlanContext, so a
		// per-table view lookup here means the plan was malformed.
		return nil, fmt.Errorf("federation: view %s cannot serve table %s inside a multi-source plan", a.View, id)
	case core.AccessBase:
		s, ok := pc.engine.sites[a.Site]
		if !ok {
			return nil, fmt.Errorf("federation: unknown site %d for table %s", a.Site, id)
		}
		if d := pc.engine.netDelay; d > 0 {
			// The simulated network wait is interruptible: a remote fetch
			// must not outlive the caller's deadline just to return data
			// nobody is waiting for.
			t := wall.NewTimer(d)
			select {
			case <-t.C:
			case <-pc.ctx.Done():
				t.Stop()
				return nil, context.Cause(pc.ctx)
			}
		}
		return s.Table(id)
	default:
		return nil, fmt.Errorf("federation: invalid access kind %d for table %s", int(a.Kind), id)
	}
}

// ExecutePlan evaluates the SQL text under the plan's per-table access
// decisions and returns the result rows.
func (e *Engine) ExecutePlan(sql string, plan core.Plan) (*relation.Table, error) {
	return e.ExecutePlanContext(context.Background(), sql, plan)
}

// ExecutePlanContext is ExecutePlan under a context: base-table fetches
// (including their simulated network delay) and the executor's row loops
// all stop promptly once the context ends, returning its cause.
func (e *Engine) ExecutePlanContext(ctx context.Context, sql string, plan core.Plan) (*relation.Table, error) {
	if va, ok := plan.ViewAccess(); ok {
		// The view already materializes the query's full answer: serve it
		// directly instead of re-running the SQL.
		return e.View(va.View)
	}
	access := make(map[core.TableID]core.TableAccess, len(plan.Access))
	for _, a := range plan.Access {
		access[a.Table] = a
	}
	return sqlmini.RunWith(ctx, sql, &planCatalog{ctx: ctx, engine: e, access: access}, sqlmini.Options{Cache: e.execCache})
}

// Measurement is one calibration data point: the wall time to execute a
// query with a particular set of tables read remotely.
type Measurement struct {
	Bases   []core.TableID
	Elapsed time.Duration
}

// Calibrate executes the query once per base/replica configuration over
// the replicated subset of its tables (all unreplicated tables are always
// base) and records the measured processing time into the model. Wall time
// converts to experiment minutes via perMinute (e.g. perMinute =
// time.Millisecond means 1 ms of wall time ≈ 1 experiment minute). The
// subset count is 2^r for r replicated tables, capped at 256 configurations
// — matching the paper's observation that per-configuration compilation is
// a small, one-off, ahead-of-time cost.
func (e *Engine) Calibrate(q core.Query, sql string, model *costmodel.CalibratedModel, perMinute time.Duration) ([]Measurement, error) {
	if perMinute <= 0 {
		return nil, fmt.Errorf("federation: perMinute must be positive")
	}
	var replicated []core.TableID
	var fixedBase []core.TableID
	for _, id := range q.Tables {
		if e.manager.Replicated(id) {
			replicated = append(replicated, id)
		} else {
			fixedBase = append(fixedBase, id)
		}
	}
	if len(replicated) > 8 {
		return nil, fmt.Errorf("federation: calibrating %d replicated tables needs %d configs, over the 256 cap",
			len(replicated), 1<<len(replicated))
	}
	// Replica-access configurations need a snapshot in place even if no
	// scheduled sync has fired yet.
	for _, id := range replicated {
		if _, ok := e.replicas[id]; !ok {
			if err := e.refreshReplica(id); err != nil {
				return nil, err
			}
		}
	}

	var out []Measurement
	for mask := 0; mask < 1<<len(replicated); mask++ {
		access := make([]core.TableAccess, 0, len(q.Tables))
		bases := append([]core.TableID{}, fixedBase...)
		for _, id := range fixedBase {
			site, err := e.catalog.Placement().SiteOf(id)
			if err != nil {
				return nil, err
			}
			access = append(access, core.TableAccess{Table: id, Site: site, Kind: core.AccessBase})
		}
		for j, id := range replicated {
			site, err := e.catalog.Placement().SiteOf(id)
			if err != nil {
				return nil, err
			}
			if mask&(1<<j) != 0 {
				bases = append(bases, id)
				access = append(access, core.TableAccess{Table: id, Site: site, Kind: core.AccessBase})
			} else {
				access = append(access, core.TableAccess{Table: id, Site: site, Kind: core.AccessReplica})
			}
		}
		// One warmup run absorbs cold caches, then the minimum of three
		// timed runs filters scheduler noise.
		if _, err := e.ExecutePlan(sql, core.Plan{Query: q, Access: access}); err != nil {
			return nil, fmt.Errorf("federation: calibrate %s mask %d: %w", q.ID, mask, err)
		}
		elapsed := time.Duration(1<<62 - 1)
		for rep := 0; rep < 3; rep++ {
			start := wall.Now()
			if _, err := e.ExecutePlan(sql, core.Plan{Query: q, Access: access}); err != nil {
				return nil, fmt.Errorf("federation: calibrate %s mask %d: %w", q.ID, mask, err)
			}
			if d := wall.Since(start); d < elapsed {
				elapsed = d
			}
		}
		model.Record(q.ID, bases, core.CostEstimate{
			Process: float64(elapsed) / float64(perMinute),
		})
		out = append(out, Measurement{Bases: bases, Elapsed: elapsed})
	}
	return out, nil
}
