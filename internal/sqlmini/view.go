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
// Exactness argument: base tables in this system are append-only, and the
// supported aggregates (SUM, COUNT, AVG, MIN, MAX, COUNT DISTINCT) are all
// distributive or algebraic over row insertion, so folding deltas group by
// group reproduces relation.Aggregate's result over the full table. The
// one order-sensitive output property — first-seen group order — is also
// preserved, because deltas arrive in base-table append order, which is
// exactly the order a full scan would visit rows in. The differential test
// in view_test.go pins this equivalence over randomized delta sequences.
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

// viewGroup is the running state of one group, mirroring the accumulator
// inside relation.Aggregate cell for cell.
type viewGroup struct {
	key      relation.Row
	sums     []float64
	counts   []int64
	mins     []relation.Value
	maxs     []relation.Value
	distinct []map[any]bool
	n        int64
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
	where  Expr
	agg    bool

	// Aggregate pipeline (agg == true): derived-row layout and group state.
	derived   relation.Schema
	exprs     []Expr
	groupCols []int
	specs     []relation.AggSpec
	groups    map[string]*viewGroup
	order     []string // first-seen group order

	// Detail buffer (agg == false): filtered rows in arrival order.
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
	cols := make([]relation.Column, len(shipped.Cols))
	for i, c := range shipped.Cols {
		cols[i] = relation.Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	schema := relation.Schema{Cols: cols}
	en := newEnv(schema)

	stmtX, err := expandStars(stmt, schema)
	if err != nil {
		return nil, err
	}
	agg := len(stmtX.GroupBy) > 0 || containsAggregate(stmtX)
	if !agg && stmtX.Having != nil {
		return nil, fmt.Errorf("sqlmini: HAVING without aggregation")
	}

	p := &ViewProgram{
		stmt:   stmtX,
		alias:  alias,
		schema: schema,
		en:     en,
		where:  stmtX.Where,
		agg:    agg,
	}
	if !agg {
		return p, nil
	}

	// Derived-row layout: group-key columns then aggregate-arg columns,
	// matching the executor's aggregate() phase.
	aggs := collectAggs(stmtX)
	derivedCols := make([]relation.Column, 0, len(stmtX.GroupBy)+len(aggs))
	exprs := make([]Expr, 0, cap(derivedCols))
	for _, g := range stmtX.GroupBy {
		derivedCols = append(derivedCols, relation.Column{Name: groupColName(g), Type: inferType(g, en)})
		exprs = append(exprs, g)
	}
	for _, a := range aggs {
		typ := relation.Float
		if a.Star || a.Arg == nil {
			typ = relation.Int
		} else {
			typ = inferType(a.Arg, en)
		}
		derivedCols = append(derivedCols, relation.Column{Name: "arg:" + a.String(), Type: typ})
		if a.Star {
			exprs = append(exprs, &Literal{Val: relation.IntVal(1)})
		} else {
			exprs = append(exprs, a.Arg)
		}
	}
	p.derived = relation.Schema{Cols: derivedCols}
	p.exprs = exprs
	p.groupCols = make([]int, len(stmtX.GroupBy))
	for i := range stmtX.GroupBy {
		p.groupCols[i] = i
	}
	p.specs = make([]relation.AggSpec, len(aggs))
	for i, a := range aggs {
		col := len(stmtX.GroupBy) + i
		if a.Star {
			p.specs[i] = relation.AggSpec{Fn: relation.Count, Col: col, As: a.String()}
			continue
		}
		p.specs[i] = relation.AggSpec{Fn: a.Fn, Col: col, As: a.String()}
	}
	p.groups = make(map[string]*viewGroup)
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
	p.order = nil
	if p.agg {
		p.groups = make(map[string]*viewGroup)
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
		if p.where != nil {
			ok, err := evalBool(p.where, p.en, row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if !p.agg {
			p.rows = append(p.rows, row)
			p.folded++
			continue
		}
		if err := p.fold(row); err != nil {
			return err
		}
		p.folded++
	}
	return nil
}

// fold accumulates one filtered row into its group, mirroring
// relation.Aggregate's per-row switch exactly.
func (p *ViewProgram) fold(row relation.Row) error {
	nr := make(relation.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := eval(e, p.en, row)
		if err != nil {
			return err
		}
		nr[i] = v
	}
	k := relation.RowKey(nr, p.groupCols)
	g, ok := p.groups[k]
	if !ok {
		g = &viewGroup{
			sums:     make([]float64, len(p.specs)),
			counts:   make([]int64, len(p.specs)),
			mins:     make([]relation.Value, len(p.specs)),
			maxs:     make([]relation.Value, len(p.specs)),
			distinct: make([]map[any]bool, len(p.specs)),
		}
		g.key = make(relation.Row, len(p.groupCols))
		for i, c := range p.groupCols {
			g.key[i] = nr[c]
		}
		p.groups[k] = g
		p.order = append(p.order, k)
	}
	g.n++
	for i, a := range p.specs {
		switch a.Fn {
		case relation.Count:
			g.counts[i]++
		case relation.CountDistinct:
			if g.distinct[i] == nil {
				g.distinct[i] = make(map[any]bool)
			}
			g.distinct[i][nr[a.Col].Key()] = true
		case relation.Sum, relation.Avg:
			f, ok := nr[a.Col].AsFloat()
			if !ok {
				return fmt.Errorf("sqlmini: %s over non-numeric column %s", a.Fn, p.derived.Cols[a.Col].Name)
			}
			g.sums[i] += f
			g.counts[i]++
		case relation.Min, relation.Max:
			v := nr[a.Col]
			cur := g.mins[i]
			if a.Fn == relation.Max {
				cur = g.maxs[i]
			}
			if cur.T == 0 {
				g.mins[i], g.maxs[i] = v, v
				continue
			}
			c, err := relation.Compare(v, cur)
			if err != nil {
				return err
			}
			if a.Fn == relation.Min && c < 0 {
				g.mins[i] = v
			}
			if a.Fn == relation.Max && c > 0 {
				g.maxs[i] = v
			}
		default:
			return fmt.Errorf("sqlmini: unknown aggregate %d", int(a.Fn))
		}
	}
	return nil
}

// renderAggregate materializes the group state as the table
// relation.Aggregate would produce over the full filtered input, including
// the single zero row a global aggregate yields over an empty set.
func (p *ViewProgram) renderAggregate() *relation.Table {
	outCols := make([]relation.Column, 0, len(p.groupCols)+len(p.specs))
	for _, c := range p.groupCols {
		outCols = append(outCols, p.derived.Cols[c])
	}
	for _, a := range p.specs {
		typ := relation.Float
		if a.Fn == relation.Count || a.Fn == relation.CountDistinct {
			typ = relation.Int
		}
		if a.Fn == relation.Min || a.Fn == relation.Max {
			typ = p.derived.Cols[a.Col].Type
		}
		outCols = append(outCols, relation.Column{Name: a.As, Type: typ})
	}
	out := &relation.Table{Name: p.alias, Schema: relation.Schema{Cols: outCols}}

	if len(p.order) == 0 && len(p.groupCols) == 0 {
		row := make(relation.Row, 0, len(p.specs))
		for _, a := range p.specs {
			switch a.Fn {
			case relation.Count, relation.CountDistinct:
				row = append(row, relation.IntVal(0))
			case relation.Min, relation.Max:
				row = append(row, relation.Value{T: out.Schema.Cols[len(p.groupCols)+len(row)].Type})
			default:
				row = append(row, relation.FloatVal(0))
			}
		}
		out.Rows = append(out.Rows, row)
		return out
	}

	for _, k := range p.order {
		g := p.groups[k]
		row := make(relation.Row, 0, out.Schema.Arity())
		row = append(row, g.key...)
		for i, a := range p.specs {
			switch a.Fn {
			case relation.Count:
				row = append(row, relation.IntVal(g.counts[i]))
			case relation.CountDistinct:
				row = append(row, relation.IntVal(int64(len(g.distinct[i]))))
			case relation.Sum:
				row = append(row, relation.FloatVal(g.sums[i]))
			case relation.Avg:
				row = append(row, relation.FloatVal(g.sums[i]/float64(g.counts[i])))
			case relation.Min:
				row = append(row, g.mins[i])
			case relation.Max:
				row = append(row, g.maxs[i])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Result renders the view's current answer: the same HAVING / SELECT /
// DISTINCT / ORDER BY / LIMIT pipeline the full executor runs, fed from
// the incrementally maintained state instead of a fresh scan. The returned
// table shares nothing mutable with the program.
func (p *ViewProgram) Result(ctx context.Context) (*relation.Table, error) {
	if !p.agg {
		working := &relation.Table{Name: p.alias, Schema: p.schema, Rows: p.rows}
		return project(ctx, p.stmt, working, p.en)
	}
	working := p.renderAggregate()
	en := newEnv(working.Schema)
	if p.stmt.Having != nil {
		var err error
		working, err = filterTable(ctx, working, en, p.stmt.Having)
		if err != nil {
			return nil, err
		}
	}
	return project(ctx, p.stmt, working, en)
}
