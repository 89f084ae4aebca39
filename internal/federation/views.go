package federation

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ivdss/internal/core"
	"ivdss/internal/sqlmini"
)

// viewRegistry is the catalog's materialized-view directory: definitions
// keyed by ViewID, with a per-table index so Snapshot can attach each
// table's views. Registration validates the defining SQL up front — a view
// that cannot be maintained incrementally never enters the plan space.
type viewRegistry struct {
	mu     sync.RWMutex
	defs   map[core.ViewID]core.ViewDef
	byBase map[core.TableID][]core.ViewID // sorted by ViewID
}

// RegisterView adds a materialized-view definition to the catalog. The SQL
// must parse, be incrementally maintainable (single FROM table, no JOINs),
// and read exactly the table the definition names, which must be placed.
// The view's sync state stays empty until the sync agent registers and
// materializes its unit; Snapshot only attaches views with known state.
func (c *Catalog) RegisterView(def core.ViewDef) error {
	if err := def.Validate(); err != nil {
		return err
	}
	stmt, err := sqlmini.Parse(def.SQL)
	if err != nil {
		return fmt.Errorf("federation: view %s: %w", def.ID, err)
	}
	if err := sqlmini.ViewMaintainable(stmt); err != nil {
		return fmt.Errorf("federation: view %s: %w", def.ID, err)
	}
	table, _, _, err := sqlmini.ViewWire(stmt)
	if err != nil {
		return fmt.Errorf("federation: view %s: %w", def.ID, err)
	}
	if core.TableID(strings.ToLower(table)) != def.Table {
		return fmt.Errorf("federation: view %s declares table %s but its SQL reads %s", def.ID, def.Table, table)
	}
	if _, err := c.placement.SiteOf(def.Table); err != nil {
		return fmt.Errorf("federation: view %s: %w", def.ID, err)
	}

	c.views.mu.Lock()
	defer c.views.mu.Unlock()
	if c.views.defs == nil {
		c.views.defs = make(map[core.ViewID]core.ViewDef)
		c.views.byBase = make(map[core.TableID][]core.ViewID)
	}
	if _, ok := c.views.defs[def.ID]; ok {
		return fmt.Errorf("federation: view %s already registered", def.ID)
	}
	c.views.defs[def.ID] = def
	ids := append(c.views.byBase[def.Table], def.ID)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	c.views.byBase[def.Table] = ids
	return nil
}

// View returns one view definition.
func (c *Catalog) View(id core.ViewID) (core.ViewDef, bool) {
	c.views.mu.RLock()
	defer c.views.mu.RUnlock()
	def, ok := c.views.defs[id]
	return def, ok
}

// Views lists every registered view definition, sorted by ViewID.
func (c *Catalog) Views() []core.ViewDef {
	c.views.mu.RLock()
	defer c.views.mu.RUnlock()
	out := make([]core.ViewDef, 0, len(c.views.defs))
	for _, def := range c.views.defs {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// viewStatesFor derives the planner's ViewStates for one base table: every
// registered view over it whose sync unit the replication manager knows,
// in ViewID order.
func (c *Catalog) viewStatesFor(table core.TableID, now core.Time, horizon core.Duration) []core.ViewState {
	c.views.mu.RLock()
	ids := append([]core.ViewID{}, c.views.byBase[table]...)
	defs := make([]core.ViewDef, len(ids))
	for i, id := range ids {
		defs[i] = c.views.defs[id]
	}
	c.views.mu.RUnlock()

	var out []core.ViewState
	for _, def := range defs {
		rs, ok := c.replicas.StateFor(core.ViewUnit(def.ID), now, horizon)
		if !ok {
			continue
		}
		out = append(out, core.ViewState{
			ID:        def.ID,
			QueryID:   def.QueryID,
			LastSync:  rs.LastSync,
			NextSyncs: rs.NextSyncs,
		})
	}
	return out
}
