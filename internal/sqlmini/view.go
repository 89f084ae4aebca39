package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ivdss/internal/relation"
)

// Incremental view maintenance: CompileView turns a maintainable SELECT
// into a delta program that folds base-table delta rows into running
// aggregate state (or a filtered detail-row buffer) and re-renders the
// query's full answer on demand.
//
// Exactness argument: the program is the tree walk's own grouping, fed
// deltas. It lays out derived rows with the executor's layoutAggregate and
// folds them into the same relation.Aggregator that relation.Aggregate
// folds a full table into. Base tables in this system are append-only and
// deltas arrive in base-table append order, which is exactly the order a
// full scan visits rows in, so the accumulator ends in the state a full
// scan leaves it in — float sums and first-seen group order included. The
// differential test in view_test.go pins this equivalence over randomized
// delta sequences.
//
// Maintainability is deliberately narrow: a single FROM table and no
// JOINs. A join delta would need the other side's full state to compute
// its contribution, which is precisely the shipping cost views exist to
// avoid.

// ViewMaintainable reports whether the statement can be maintained
// incrementally as a materialized view.
func ViewMaintainable(stmt *SelectStmt) error {
	if len(stmt.From) != 1 {
		return fmt.Errorf("sqlmini: view not maintainable: needs exactly one FROM table, got %d", len(stmt.From))
	}
	if len(stmt.Joins) != 0 {
		return fmt.Errorf("sqlmini: view not maintainable: JOIN requires the join partner's full state per delta")
	}
	return nil
}

// ViewWire derives what the sync agent asks the base site to ship for a
// view: the base table name, a filter predicate rendered in the base
// table's bare column names (empty when the view has no WHERE), and the
// columns the view reads (nil means every column — either the view selects
// *, or it reads none by name and the wire needs some column to carry row
// existence). Filtering and projecting at the base site is a pure byte
// optimization: the delta program re-applies the WHERE clause locally, so
// an unfiltered stream produces the same view.
func ViewWire(stmt *SelectStmt) (table, filter string, columns []string, err error) {
	if err := ViewMaintainable(stmt); err != nil {
		return "", "", nil, err
	}
	ref := stmt.From[0]
	alias := ref.EffectiveAlias()
	columns, err = readSet(stmt, ref.Name)
	if errors.Is(err, errReadsStar) {
		columns, err = nil, nil
	}
	if err != nil {
		return "", "", nil, fmt.Errorf("sqlmini: view over %s: %w", ref.Name, err)
	}
	if stmt.Where != nil {
		filter = stripQualifier(stmt.Where, alias).String()
	}
	return ref.Name, filter, columns, nil
}

// WireSQL renders the shipping query for a view's ViewWire triple: the
// SELECT the sync agent (or a base site applying delta projection) runs
// over base rows to produce exactly the rows the view's delta program
// consumes. Nil columns ship every column.
func WireSQL(table, filter string, columns []string) string {
	sel := "*"
	if columns != nil {
		sel = strings.Join(columns, ", ")
	}
	sql := "SELECT " + sel + " FROM " + table
	if filter != "" {
		sql += " WHERE " + filter
	}
	return sql
}

// collectColumnRefs appends every column reference in the expression.
func collectColumnRefs(e Expr, out *[]*ColumnRef) {
	switch x := e.(type) {
	case nil:
	case *ColumnRef:
		*out = append(*out, x)
	case *BinaryExpr:
		collectColumnRefs(x.Left, out)
		collectColumnRefs(x.Right, out)
	case *NotExpr:
		collectColumnRefs(x.Inner, out)
	case *BetweenExpr:
		collectColumnRefs(x.Subject, out)
		collectColumnRefs(x.Lo, out)
		collectColumnRefs(x.Hi, out)
	case *InExpr:
		collectColumnRefs(x.Subject, out)
		for _, o := range x.Options {
			collectColumnRefs(o, out)
		}
	case *LikeExpr:
		collectColumnRefs(x.Subject, out)
	case *AggExpr:
		collectColumnRefs(x.Arg, out)
	}
}

// ViewProgram is a compiled delta program for one materialized view. Apply
// folds shipped delta rows into the program's state; Result re-renders the
// query's answer as a fresh table (copy-on-write: tables returned earlier
// are never mutated by later Applies). The program is not safe for
// concurrent use; the view's owner serializes Apply and Result. Apply
// retains the rows it is given.
type ViewProgram struct {
	stmt   *SelectStmt     // star-expanded against the shipped schema
	alias  string          // effective alias of the single FROM table
	schema relation.Schema // shipped schema qualified as "alias.col"
	en     env

	// A grouping view folds each filtered row's derived row (lay) into
	// one accumulator; any other view buffers its filtered rows in
	// arrival order.
	lay  *aggLayout
	acc  *relation.Aggregator
	rows []relation.Row

	folded int64
}

// CompileView compiles the statement into a delta program over the shipped
// schema — the base table's columns as named by ViewWire (bare names; the
// program qualifies them with the FROM alias, exactly as the full executor
// would after loading the table).
func CompileView(stmt *SelectStmt, shipped relation.Schema) (*ViewProgram, error) {
	if err := ViewMaintainable(stmt); err != nil {
		return nil, err
	}
	alias := stmt.From[0].EffectiveAlias()
	schema := qualifySchema(shipped, alias)
	en := newEnv(schema)
	stmtX, err := expandStars(stmt, schema)
	if err != nil {
		return nil, err
	}
	p := &ViewProgram{stmt: stmtX, alias: alias, schema: schema, en: en}
	if p.lay, err = layoutAggregate(stmtX, en); err != nil {
		return nil, err
	}
	if p.lay != nil {
		if p.acc, err = relation.NewAggregator(p.lay.derived, p.lay.groupBy, p.lay.specs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Folded returns how many delta rows the program has folded in (after the
// local WHERE re-filter).
func (p *ViewProgram) Folded() int64 { return p.folded }

// Reset clears the program's state so a full snapshot can be re-applied
// from scratch — the view's recovery path when its delta cursor is lost.
func (p *ViewProgram) Reset() {
	p.folded = 0
	p.rows = nil
	if p.acc != nil {
		p.acc.Reset()
	}
}

// Apply folds a batch of shipped delta rows (shaped by the shipped schema,
// in base-table append order) into the view state. The WHERE clause is
// re-applied locally, so Apply accepts both pre-filtered wire streams and
// raw base rows.
func (p *ViewProgram) Apply(ctx context.Context, rows []relation.Row) error {
	cc := canceller{ctx: ctx}
	for _, row := range rows {
		if err := cc.tick(); err != nil {
			return err
		}
		if len(row) != p.schema.Arity() {
			return fmt.Errorf("sqlmini: view delta row has %d cells, shipped schema has %d", len(row), p.schema.Arity())
		}
		if p.stmt.Where != nil {
			ok, err := evalBool(p.stmt.Where, p.en, row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if p.acc == nil {
			p.rows = append(p.rows, row)
		} else {
			nr, err := evalRow(p.lay.exprs, p.en, row)
			if err != nil {
				return err
			}
			if err := p.acc.Add(nr); err != nil {
				return err
			}
		}
		p.folded++
	}
	return nil
}

// Result renders the view's current answer: the same HAVING / SELECT /
// DISTINCT / ORDER BY / LIMIT tail the tree walk runs, fed from the
// incrementally maintained state instead of a fresh scan. The returned
// table shares nothing mutable with the program.
func (p *ViewProgram) Result(ctx context.Context) (*relation.Table, error) {
	if p.acc == nil {
		working := &relation.Table{Name: p.alias, Schema: p.schema, Rows: p.rows}
		return havingProject(ctx, p.stmt, working, p.en)
	}
	working := p.acc.Table(p.alias)
	return havingProject(ctx, p.stmt, working, newEnv(working.Schema))
}
