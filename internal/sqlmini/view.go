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
// Exactness argument: the program is the statement's own VM plan run in
// two halves. Apply runs its bind stage (the WHERE) and, if it groups,
// its derive stage over a delta batch, then folds the derived rows, in
// order, into a relation.Aggregator; Result runs its finish stage over
// the groups or the buffered rows. Base tables are append-only and
// deltas arrive in append order, the order a full scan visits rows in,
// and the Aggregator accumulates as ColAggregateContext does, so its
// state is a full run's grouping, float sums and first-seen group order
// included (merged per-batch partial sums would not be). The
// differential tests in view_test.go and view_sweep_test.go pin this.
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
	plan *Prepared       // the statement's VM plan over the shipped table
	base *relation.Table // the shipped table's name and schema, no rows

	// A grouping view folds its derived rows into acc; any other view
	// buffers its surviving rows in arrival order.
	acc  *relation.Aggregator
	rows []relation.Row

	folded int64
}

// CompileView compiles the statement into a delta program over the shipped
// schema — the base table's columns as named by ViewWire (bare names; the
// plan qualifies them with the FROM alias, as it does for a full run).
func CompileView(stmt *SelectStmt, shipped relation.Schema) (*ViewProgram, error) {
	if err := ViewMaintainable(stmt); err != nil {
		return nil, err
	}
	base := relation.NewTable(stmt.From[0].Name, shipped)
	plan, err := Prepare(stmt, MapCatalog{base.Name: base})
	if err != nil {
		return nil, err
	}
	p := &ViewProgram{plan: plan, base: base}
	if lay := plan.agg.lay; lay != nil {
		if p.acc, err = relation.NewAggregator(lay.derived, lay.groupBy, lay.specs); err != nil {
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
// in base-table append order) into the view state, whole or not at all
// (Add fails only on a column's type, so on a batch's first row). The
// WHERE is re-applied locally, so pre-filtered and raw rows both work.
func (p *ViewProgram) Apply(ctx context.Context, rows []relation.Row) error {
	delta := &relation.Table{Name: p.base.Name, Schema: p.base.Schema, Rows: rows}
	var w working
	if err := p.plan.bind(ctx, []*relation.Table{delta}, nil, &w); err != nil {
		return err
	}
	if p.acc != nil {
		derived, err := p.plan.derive(ctx, &w)
		if err != nil {
			return err
		}
		for _, r := range derived.ToTable().Rows {
			if err := p.acc.Add(r); err != nil {
				return err
			}
		}
	} else if sel := w.rows[0]; sel != nil {
		for _, i := range sel {
			p.rows = append(p.rows, rows[i])
		}
	} else {
		p.rows = append(p.rows, rows...)
	}
	p.folded += int64(w.n)
	return nil
}

// Result renders the view's current answer: the plan's finish stage (HAVING,
// projection, DISTINCT, ORDER BY, LIMIT) over the running groups or the
// buffered rows, as a full run would over its grouped or filtered
// relation. The returned table shares nothing mutable with the program.
func (p *ViewProgram) Result(ctx context.Context) (*relation.Table, error) {
	t := &relation.Table{Name: p.base.Name, Schema: p.base.Schema, Rows: p.rows}
	if p.acc != nil {
		t = p.acc.Table(p.base.Name)
	}
	ct, err := relation.Columnar(t)
	if err != nil {
		return nil, err
	}
	return p.plan.finish(ctx, scanOf(ct, nil))
}
