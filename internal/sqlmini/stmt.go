package sqlmini

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"ivdss/internal/relation"
)

// stmtCacheCap bounds an ExecCache's statements, in SQL texts. A server
// sees its clients' texts and, at a remote, the pushdowns rendered from
// them, so a fixed template mix stays well below it; like execCacheCap's
// maps, a full cache is dropped whole and re-warms from the live texts.
const stmtCacheCap = 256

// stmtPlansCap bounds the plans one statement keeps, one per set of load
// schemas. A DSS binds a text to full replicas and to pruned pushdown
// results, so two is the common case; a full list is dropped whole.
const stmtPlansCap = 4

// QueryID names a SQL text for the planner, so repeated texts (whitespace
// aside) share calibration entries.
func QueryID(sql string) string {
	sum := sha256.Sum256([]byte(strings.Join(strings.Fields(sql), " ")))
	return "sql-" + hex.EncodeToString(sum[:6])
}

// Statement is one SQL text compiled for repeated execution: the parsed
// statement, what the planner knows it by, and the plans and pushdowns
// its executions have needed so far. An ExecCache shares one Statement
// between every execution of the text. Safe for concurrent use.
type Statement struct {
	// Stmt is the parsed statement. It is shared and never written: only
	// the parser writes an AST.
	Stmt *SelectStmt
	// ID is the text's QueryID.
	ID string
	// Tables lists the tables the statement reads, lower-cased, each
	// once, in FROM order.
	Tables []string

	mu sync.Mutex
	// plans holds one plan per set of load schemas. It is replaced, never
	// written in place, so a reader may walk the slice it loaded.
	plans     []*Prepared
	pushdowns map[string]pushdown
}

// pushdown is one memoized PushdownFor answer.
type pushdown struct {
	sql string
	ok  bool
}

// Statement returns the compiled statement for sql, parsing it on first
// use. A parse error is returned and never cached.
func (c *ExecCache) Statement(sql string) (*Statement, error) {
	c.mu.Lock()
	st := c.stmts[sql]
	c.mu.Unlock()
	if st != nil {
		return st, nil
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	st = &Statement{Stmt: stmt, ID: QueryID(sql), Tables: stmt.TableNames()}
	for i, name := range st.Tables {
		st.Tables[i] = strings.ToLower(name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.stmts[sql]; prev != nil {
		return prev, nil
	}
	if c.stmts == nil || len(c.stmts) >= stmtCacheCap {
		c.stmts = make(map[string]*Statement)
	}
	c.stmts[sql] = st
	return st, nil
}

// Plans reports how many plans c keeps for sql: one per set of load
// schemas it has been bound to. It is how a server's tests check that a
// repeated text is prepared once per schema set.
func (c *ExecCache) Plans(sql string) int {
	c.mu.Lock()
	st := c.stmts[sql]
	c.mu.Unlock()
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.plans)
}

// Execute runs the statement on the VM over the catalog's tables, with
// cache's images, join builds and frames. It reuses a plan only when the
// schema of every table the catalog binds now equals the one the plan was
// prepared against; otherwise it prepares, keeps and runs a new plan.
// Prepare reads only schemas, so a reused plan answers as a fresh one.
// A failed Prepare is returned and never kept.
func (st *Statement) Execute(ctx context.Context, cat Catalog, cache *ExecCache) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if p, tables := st.reuse(cat); p != nil {
		return p.execute(ctx, tables, cache)
	}
	cat = &onceCatalog{cat: cat}
	p, err := Prepare(st.Stmt, cat)
	if err != nil {
		return nil, err
	}
	st.keep(p)
	return p.ExecuteContext(ctx, cat, cache)
}

// reuse looks up the statement's tables and returns them with a kept
// plan prepared against their schemas, or a nil plan: none is kept, none
// matches, or a lookup failed (Prepare then reports it as it always has).
// Every plan loads the same tables in the same order, the FROM list's.
func (st *Statement) reuse(cat Catalog) (*Prepared, []*relation.Table) {
	st.mu.Lock()
	plans := st.plans
	st.mu.Unlock()
	if len(plans) == 0 {
		return nil, nil
	}
	tables := make([]*relation.Table, len(plans[0].loads))
	for i, ld := range plans[0].loads {
		t, err := cat.Table(ld.table)
		if err != nil {
			return nil, nil
		}
		tables[i] = t
	}
	for _, p := range plans {
		if p.binds(tables) {
			return p, tables
		}
	}
	return nil, nil
}

// keep adds p to the statement's plans unless an equal set of load
// schemas already has one (a concurrent miss prepared it first).
func (st *Statement) keep(p *Prepared) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, q := range st.plans {
		if q.sameLoads(p) {
			return
		}
	}
	plans := st.plans
	if len(plans) >= stmtPlansCap {
		plans = nil
	}
	st.plans = append(plans[:len(plans):len(plans)], p)
}

// Pushdown is PushdownFor(st.Stmt, table), rendered once per table.
func (st *Statement) Pushdown(table string) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if pd, ok := st.pushdowns[table]; ok {
		return pd.sql, pd.ok
	}
	sql, ok := PushdownFor(st.Stmt, table)
	if st.pushdowns == nil {
		st.pushdowns = make(map[string]pushdown)
	}
	st.pushdowns[table] = pushdown{sql: sql, ok: ok}
	return sql, ok
}
