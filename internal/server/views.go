package server

import (
	"fmt"
	"strings"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/replsync"
	"ivdss/internal/sqlmini"
)

// Materialized views at the DSS: each configured view covers one query's
// full answer and is maintained incrementally. The sync agent treats the
// view as one more synchronized unit ("view:<id>"); its cycles ship only
// the base table's delta rows — filtered and projected at the base site
// by the view's shipping SELECT — and the compiled delta program
// folds them into the running answer. The planner sees the view through
// the catalog's ViewStates and offers it to the covered query alongside
// base and replica access.

// ViewSpec configures one materialized view.
type ViewSpec struct {
	// SQL is the view's defining query — also exactly the query text the
	// view answers. Must be incrementally maintainable: a single FROM
	// table, no JOINs.
	SQL string
	// Period is the refresh period (wall-clock). Default 10s.
	Period time.Duration
}

// viewState is the server's runtime state for one materialized view.
// Definition fields are immutable after registration. prog is touched only
// by the sync agent's Apply* and Drop calls for the view's unit, which the
// agent serializes under Agent.mu (perform in replsync/agent.go,
// reviewPlacement in cadence.go), so both view paths fold and render
// without s.mu and then publish table, syncedAt and cursor under it. The
// answer table is copy-on-write: every refresh installs a fresh render,
// so in-flight queries keep a stable snapshot.
type viewState struct {
	def     core.ViewDef
	stmt    *sqlmini.SelectStmt
	wireSQL string        // the shipping SELECT its pulls carry in Request.SQL
	period  time.Duration // configured refresh period (wall-clock)

	prog     *sqlmini.ViewProgram // built on first snapshot
	table    *relation.Table      // materialized answer
	syncedAt core.Time
	cursor   uint64 // base rows the state reflects
}

// compileViews parses each configured view and builds the server-side
// state, returning the definitions in configuration order. Called during
// construction before the sync agent, whose units the views are, and so
// before the catalog, which registers the definitions.
func (s *DSSServer) compileViews() ([]core.ViewDef, error) {
	var defs []core.ViewDef
	for _, spec := range s.cfg.Views {
		stmt, err := sqlmini.Parse(spec.SQL)
		if err != nil {
			return nil, fmt.Errorf("server: view %q: %w", spec.SQL, err)
		}
		table, filter, columns, err := sqlmini.ViewWire(stmt)
		if err != nil {
			return nil, fmt.Errorf("server: view %q: %w", spec.SQL, err)
		}
		qid := sqlmini.QueryID(spec.SQL)
		id := core.ViewID("v" + strings.TrimPrefix(qid, "sql"))
		def := core.ViewDef{
			ID:      id,
			QueryID: qid,
			Table:   core.TableID(strings.ToLower(table)),
			SQL:     spec.SQL,
		}
		period := spec.Period
		if period <= 0 {
			period = 10 * time.Second
		}
		s.views[id] = &viewState{def: def, stmt: stmt, wireSQL: sqlmini.WireSQL(table, filter, columns), period: period}
		defs = append(defs, def)
	}
	return defs, nil
}

// viewByID returns the runtime state for one view.
func (s *DSSServer) viewByID(id core.ViewID) (*viewState, error) {
	vs, ok := s.views[id]
	if !ok {
		return nil, fmt.Errorf("server: unknown view %s", id)
	}
	return vs, nil
}

// applyViewSnapshot rebuilds a view from a full (filtered, projected) base
// snapshot: a fresh delta program compiled against the shipped schema,
// folded over the shipped rows, rendered, and swapped in.
func (ap replicaApplier) applyViewSnapshot(id core.ViewID, snap replsync.Snapshot, at core.Time) error {
	s := ap.s
	vs, err := s.viewByID(id)
	if err != nil {
		return err
	}
	if snap.Table == nil {
		return fmt.Errorf("server: snapshot for view %s carried no table", id)
	}
	prog, err := sqlmini.CompileView(vs.stmt, snap.Table.Schema)
	if err != nil {
		return fmt.Errorf("server: view %s: %w", id, err)
	}
	if err := prog.Apply(s.baseCtx, snap.Table.Rows); err != nil {
		return fmt.Errorf("server: view %s: %w", id, err)
	}
	out, err := prog.Result(s.baseCtx)
	if err != nil {
		return fmt.Errorf("server: view %s: %w", id, err)
	}
	out.Name = string(id)
	s.mu.Lock()
	vs.prog, vs.table, vs.syncedAt, vs.cursor = prog, out, at, snap.Version
	s.mu.Unlock()
	return nil
}

// applyViewDelta folds shipped delta rows into the view's running state
// and installs a fresh render of the answer.
func (ap replicaApplier) applyViewDelta(id core.ViewID, delta replsync.Delta, at core.Time) error {
	s := ap.s
	vs, err := s.viewByID(id)
	if err != nil {
		return err
	}
	if vs.prog == nil {
		return fmt.Errorf("server: delta for view %s before its first snapshot", id)
	}
	// No rows means nothing relevant changed upstream: same answer,
	// fresher stamp.
	out := vs.table
	if len(delta.Rows) > 0 {
		if err := vs.prog.Apply(s.baseCtx, delta.Rows); err != nil {
			return fmt.Errorf("server: view %s: %w", id, err)
		}
		if out, err = vs.prog.Result(s.baseCtx); err != nil {
			return fmt.Errorf("server: view %s: %w", id, err)
		}
		out.Name = string(id)
	}
	s.mu.Lock()
	vs.table, vs.syncedAt, vs.cursor = out, at, delta.Version
	s.mu.Unlock()
	return nil
}

// dropView discards a view's materialized state (demotion). The
// definition stays registered so a later promotion can rebuild it.
func (s *DSSServer) dropView(id core.ViewID) {
	vs, err := s.viewByID(id)
	if err != nil {
		return
	}
	s.mu.Lock()
	vs.prog, vs.table, vs.syncedAt, vs.cursor = nil, nil, 0, 0
	s.mu.Unlock()
}

// viewStatuses maps every registered view into the wire status shape, in
// ViewID order (s.views iteration is randomized, so sort by the catalog's
// deterministic listing).
func (s *DSSServer) viewStatuses(now core.Time, agentRows map[core.ViewID]replsync.TableStatus) []netproto.ViewStatus {
	var out []netproto.ViewStatus
	for _, def := range s.catalog.Views() {
		vs, err := s.viewByID(def.ID)
		if err != nil {
			continue
		}
		site, err := s.catalog.Placement().SiteOf(def.Table)
		if err != nil {
			continue
		}
		st := netproto.ViewStatus{
			View:            string(def.ID),
			QueryID:         def.QueryID,
			Table:           string(def.Table),
			Site:            int(site),
			LastSyncMinutes: -1,
			NextSyncMinutes: -1,
		}
		if row, ok := agentRows[def.ID]; ok {
			st.PeriodMinutes = row.Period
			if row.NextAt >= 0 {
				st.NextSyncMinutes = row.NextAt - now
			}
		}
		s.mu.RLock()
		if vs.table != nil {
			st.LastSyncMinutes = vs.syncedAt
			st.StalenessMinutes = now - vs.syncedAt
			st.Cursor = vs.cursor
			st.Rows = vs.table.NumRows()
		}
		s.mu.RUnlock()
		out = append(out, st)
	}
	return out
}
