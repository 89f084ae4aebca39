package sqlmini

import (
	"context"
	"fmt"
	"strings"

	"ivdss/internal/relation"
)

// Catalog supplies the executor with tables by name. The DSS binds a
// MapCatalog per plan: local replicas, or base-table data fetched from
// remote sites, depending on the chosen plan.
type Catalog interface {
	Table(name string) (*relation.Table, error)
}

// MapCatalog is a Catalog over an in-memory map, keyed case-insensitively.
// Keys should be lower case — build one with NewMapCatalog to normalize at
// insertion — so that lookups stay O(1) for any case a query uses.
type MapCatalog map[string]*relation.Table

// NewMapCatalog builds a MapCatalog with every key folded to lower case
// once, up front, so Table never has to scan for a case-insensitive match.
func NewMapCatalog(tables map[string]*relation.Table) MapCatalog {
	m := make(MapCatalog, len(tables))
	for name, t := range tables {
		m[strings.ToLower(name)] = t
	}
	return m
}

// Add inserts a table under its lower-cased name.
func (m MapCatalog) Add(name string, t *relation.Table) {
	m[strings.ToLower(name)] = t
}

// Table implements Catalog: an exact lookup, then a lower-cased one. Both
// are O(1); keys inserted via NewMapCatalog/Add are already lower case.
func (m MapCatalog) Table(name string) (*relation.Table, error) {
	if t, ok := m[name]; ok {
		return t, nil
	}
	if t, ok := m[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("sqlmini: unknown table %q", name)
}

// maxCrossRows guards runaway cross products from disconnected FROM lists.
const maxCrossRows = 1 << 22

// checkEvery is how many rows an executor loop processes between
// cancellation checkpoints. Small enough that a multi-million-row join or
// scan notices an expired deadline within one batch; large enough that the
// atomic-free counter check costs nothing measurable per row.
const checkEvery = 4096

// canceller amortizes context checks over executor row loops: tick returns
// the context's cause once per checkEvery rows after the context ends.
type canceller struct {
	ctx context.Context
	n   int
}

func (c *canceller) tick() error {
	c.n++
	if c.n%checkEvery != 0 {
		return nil
	}
	if c.ctx.Err() != nil {
		return context.Cause(c.ctx)
	}
	return nil
}

// Run parses and executes a query against the catalog.
func Run(query string, cat Catalog) (*relation.Table, error) {
	return RunContext(context.Background(), query, cat)
}

// RunContext is Run under a context: execution loops checkpoint the
// context every few thousand rows, so an expired deadline or cancellation
// aborts a long join/filter/aggregate promptly with the context's cause.
func RunContext(ctx context.Context, query string, cat Catalog) (*relation.Table, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, stmt, cat)
}

// Execute evaluates a parsed statement against the catalog and returns the
// result as a table whose columns are the SELECT items.
func Execute(stmt *SelectStmt, cat Catalog) (*relation.Table, error) {
	return ExecuteContext(context.Background(), stmt, cat)
}

// ExecuteContext is Execute under a context; see RunContext. It runs the
// default engine (the bytecode VM); ExecuteWith selects explicitly.
func ExecuteContext(ctx context.Context, stmt *SelectStmt, cat Catalog) (*relation.Table, error) {
	return ExecuteWith(ctx, stmt, cat, Options{})
}

// executeTree is the tree-walking evaluator: the original row-at-a-time
// interpreter, kept as the reference oracle the VM is differentially
// tested against (and selectable via Options.Engine).
func executeTree(ctx context.Context, stmt *SelectStmt, cat Catalog) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	working, err := buildJoinTree(ctx, stmt, cat)
	if err != nil {
		return nil, err
	}
	en := newEnv(working.Schema)

	if stmt.Where != nil {
		working, err = filterTable(ctx, working, en, stmt.Where)
		if err != nil {
			return nil, err
		}
	}

	stmt, err = expandStars(stmt, working.Schema)
	if err != nil {
		return nil, err
	}

	lay, err := layoutAggregate(stmt, en)
	if err != nil {
		return nil, err
	}
	if lay != nil {
		working, err = aggregate(ctx, lay, working, en)
		if err != nil {
			return nil, err
		}
		en = newEnv(working.Schema)
		// layoutAggregate admits HAVING only on a grouping statement.
		if stmt.Having != nil {
			if working, err = filterTable(ctx, working, en, stmt.Having); err != nil {
				return nil, err
			}
		}
	}
	return project(ctx, stmt, working, en)
}

// expandStars replaces `*` select items with explicit column references
// over the working schema (qualified names become bare output columns).
// The statement is copied, never mutated: callers may re-execute it.
func expandStars(stmt *SelectStmt, schema relation.Schema) (*SelectStmt, error) {
	hasStar := false
	for _, it := range stmt.Items {
		if it.Star {
			hasStar = true
			break
		}
	}
	if !hasStar {
		return stmt, nil
	}
	out := *stmt
	out.Items = make([]SelectItem, 0, len(stmt.Items)+schema.Arity())
	for _, it := range stmt.Items {
		if !it.Star {
			out.Items = append(out.Items, it)
			continue
		}
		for _, col := range schema.Cols {
			name := col.Name
			alias := name
			if dot := strings.LastIndex(name, "."); dot >= 0 {
				alias = name[dot+1:]
			}
			out.Items = append(out.Items, SelectItem{
				Expr:  &ColumnRef{Name: name},
				Alias: alias,
			})
		}
	}
	return &out, nil
}

// buildJoinTree loads and joins all referenced tables. Explicit JOIN ... ON
// clauses join in statement order; comma-listed FROM tables join greedily
// along equijoin conjuncts found in WHERE, falling back to a (guarded)
// cross product for disconnected tables.
func buildJoinTree(ctx context.Context, stmt *SelectStmt, cat Catalog) (*relation.Table, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlmini: no FROM tables")
	}
	aliases := make(map[string]bool)
	load := func(ref TableRef) (*relation.Table, error) {
		alias := strings.ToLower(ref.EffectiveAlias())
		if aliases[alias] {
			return nil, fmt.Errorf("sqlmini: duplicate table alias %q", ref.EffectiveAlias())
		}
		aliases[alias] = true
		t, err := cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		return qualify(t, ref.EffectiveAlias()), nil
	}

	working, err := load(stmt.From[0])
	if err != nil {
		return nil, err
	}

	// Conjuncts of WHERE drive join ordering for comma-FROM tables.
	conjuncts := splitConjuncts(stmt.Where)

	pending := make([]*relation.Table, 0, len(stmt.From)-1)
	for _, ref := range stmt.From[1:] {
		t, err := load(ref)
		if err != nil {
			return nil, err
		}
		pending = append(pending, t)
	}
	for len(pending) > 0 {
		joined := false
		for i, t := range pending {
			lk, rk := equijoinKeys(conjuncts, working.Schema, t.Schema)
			if len(lk) == 0 {
				continue
			}
			working, err = relation.HashJoinContext(ctx, working, t, lk, rk)
			if err != nil {
				return nil, err
			}
			pending = append(pending[:i], pending[i+1:]...)
			joined = true
			break
		}
		if !joined {
			// No connecting predicate: cross product with the first
			// pending table, guarded against blow-up.
			t := pending[0]
			pending = pending[1:]
			if int64(working.NumRows())*int64(t.NumRows()) > maxCrossRows {
				return nil, fmt.Errorf("sqlmini: cross product of %s (%d rows) and %s (%d rows) exceeds limit",
					working.Name, working.NumRows(), t.Name, t.NumRows())
			}
			working, err = crossJoin(ctx, working, t)
			if err != nil {
				return nil, err
			}
		}
	}

	for _, jc := range stmt.Joins {
		t, err := load(jc.Table)
		if err != nil {
			return nil, err
		}
		onConjuncts := splitConjuncts(jc.On)
		lk, rk := equijoinKeys(onConjuncts, working.Schema, t.Schema)
		if len(lk) == 0 {
			return nil, fmt.Errorf("sqlmini: JOIN %s ON clause has no equijoin predicate", jc.Table.Name)
		}
		working, err = relation.HashJoinContext(ctx, working, t, lk, rk)
		if err != nil {
			return nil, err
		}
		// Non-equijoin residue of the ON clause filters the join output.
		en := newEnv(working.Schema)
		for _, c := range onConjuncts {
			if isEquijoin(c) {
				continue
			}
			working, err = filterTable(ctx, working, en, c)
			if err != nil {
				return nil, err
			}
		}
	}
	return working, nil
}

// qualify renames columns to "alias.col" so joined schemas stay unambiguous.
func qualify(t *relation.Table, alias string) *relation.Table {
	cols := make([]relation.Column, len(t.Schema.Cols))
	for i, c := range t.Schema.Cols {
		cols[i] = relation.Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	return &relation.Table{Name: alias, Schema: relation.Schema{Cols: cols}, Rows: t.Rows}
}

// splitConjuncts flattens nested ANDs into a list of predicates.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

func isEquijoin(e Expr) bool {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return false
	}
	_, lok := b.Left.(*ColumnRef)
	_, rok := b.Right.(*ColumnRef)
	return lok && rok
}

// equijoinKeys finds `left.col = right.col` conjuncts whose two sides
// resolve in the two given schemas (in either order) and returns the paired
// column positions.
func equijoinKeys(conjuncts []Expr, left, right relation.Schema) (lk, rk []int) {
	lEnv, rEnv := newEnv(left), newEnv(right)
	for _, c := range conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		lRef, lok := b.Left.(*ColumnRef)
		rRef, rok := b.Right.(*ColumnRef)
		if !lok || !rok {
			continue
		}
		if li, err := lEnv.resolve(lRef); err == nil {
			if ri, err := rEnv.resolve(rRef); err == nil {
				lk = append(lk, li)
				rk = append(rk, ri)
				continue
			}
		}
		if li, err := lEnv.resolve(rRef); err == nil {
			if ri, err := rEnv.resolve(lRef); err == nil {
				lk = append(lk, li)
				rk = append(rk, ri)
			}
		}
	}
	return lk, rk
}

func crossJoin(ctx context.Context, l, r *relation.Table) (*relation.Table, error) {
	cols := make([]relation.Column, 0, l.Schema.Arity()+r.Schema.Arity())
	cols = append(cols, l.Schema.Cols...)
	cols = append(cols, r.Schema.Cols...)
	out := &relation.Table{Name: l.Name + "×" + r.Name, Schema: relation.Schema{Cols: cols}}
	cc := canceller{ctx: ctx}
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			row := make(relation.Row, 0, len(cols))
			row = append(row, lr...)
			row = append(row, rr...)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func filterTable(ctx context.Context, t *relation.Table, en env, pred Expr) (*relation.Table, error) {
	var evalErr error
	cc := canceller{ctx: ctx}
	out := relation.Filter(t, func(r relation.Row) bool {
		if evalErr != nil {
			return false
		}
		if err := cc.tick(); err != nil {
			evalErr = err
			return false
		}
		ok, err := evalBool(pred, en, r)
		if err != nil {
			evalErr = err
			return false
		}
		return ok
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// containsAggregate reports whether any SELECT or ORDER BY expression (or
// HAVING) contains an aggregate call.
func containsAggregate(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if hasAgg(it.Expr) {
			return true
		}
	}
	if stmt.Having != nil && hasAgg(stmt.Having) {
		return true
	}
	for _, o := range stmt.OrderBy {
		if hasAgg(o.Expr) {
			return true
		}
	}
	return false
}

func hasAgg(e Expr) bool {
	switch x := e.(type) {
	case *AggExpr:
		return true
	case *BinaryExpr:
		return hasAgg(x.Left) || hasAgg(x.Right)
	case *NotExpr:
		return hasAgg(x.Inner)
	case *BetweenExpr:
		return hasAgg(x.Subject) || hasAgg(x.Lo) || hasAgg(x.Hi)
	case *InExpr:
		if hasAgg(x.Subject) {
			return true
		}
		for _, o := range x.Options {
			if hasAgg(o) {
				return true
			}
		}
		return false
	case *LikeExpr:
		return hasAgg(x.Subject)
	default:
		return false
	}
}

// collectAggs gathers the distinct aggregate calls (by rendered text)
// appearing anywhere in the statement's output clauses.
func collectAggs(stmt *SelectStmt) []*AggExpr {
	var out []*AggExpr
	seen := make(map[string]bool)
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *AggExpr:
			if !seen[x.String()] {
				seen[x.String()] = true
				out = append(out, x)
			}
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *NotExpr:
			walk(x.Inner)
		case *BetweenExpr:
			walk(x.Subject)
			walk(x.Lo)
			walk(x.Hi)
		case *InExpr:
			walk(x.Subject)
			for _, o := range x.Options {
				walk(o)
			}
		case *LikeExpr:
			walk(x.Subject)
		}
	}
	for _, it := range stmt.Items {
		walk(it.Expr)
	}
	if stmt.Having != nil {
		walk(stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	return out
}

// aggLayout is a grouping statement's derived-row layout, the one the
// tree walk, the VM plan and view programs all group by: the group keys
// (named by groupColName), then one argument column per distinct
// aggregate ("arg:" + its rendering), with COUNT(*) counting a constant 1.
// exprs computes a derived row from a working row, groupBy and specs
// aggregate derived rows, and out is the grouped schema that HAVING,
// SELECT and ORDER BY resolve against (aggregates by their rendering).
// out follows derived's declared types, never the vector types a VM
// program happens to emit, so every engine groups into one schema.
type aggLayout struct {
	exprs   []Expr
	derived relation.Schema
	groupBy []int
	specs   []relation.AggSpec
	out     relation.Schema
}

// layoutAggregate lays out the statement's grouping over the working
// schema. A statement with no GROUP BY and no aggregate call does not
// group: the layout is nil, and HAVING on it is an error.
func layoutAggregate(stmt *SelectStmt, en env) (*aggLayout, error) {
	if len(stmt.GroupBy) == 0 && !containsAggregate(stmt) {
		if stmt.Having != nil {
			return nil, fmt.Errorf("sqlmini: HAVING without aggregation")
		}
		return nil, nil
	}
	aggs := collectAggs(stmt)
	l := &aggLayout{
		exprs:   make([]Expr, 0, len(stmt.GroupBy)+len(aggs)),
		groupBy: make([]int, len(stmt.GroupBy)),
		specs:   make([]relation.AggSpec, 0, len(aggs)),
	}
	cols := make([]relation.Column, 0, cap(l.exprs))
	for i, g := range stmt.GroupBy {
		cols = append(cols, relation.Column{Name: groupColName(g), Type: inferType(g, en)})
		l.exprs = append(l.exprs, g)
		l.groupBy[i] = i
	}
	for _, a := range aggs {
		spec := relation.AggSpec{Fn: a.Fn, Col: len(cols), As: a.String()}
		col := relation.Column{Name: "arg:" + a.String(), Type: relation.Int}
		if a.Star {
			// COUNT(*) counts rows; point it at the constant column.
			spec.Fn = relation.Count
			l.exprs = append(l.exprs, &Literal{Val: relation.IntVal(1)})
		} else {
			col.Type = inferType(a.Arg, en)
			l.exprs = append(l.exprs, a.Arg)
		}
		cols = append(cols, col)
		l.specs = append(l.specs, spec)
	}
	l.derived = relation.Schema{Cols: cols}
	var err error
	l.out, err = relation.AggSchema(l.derived, l.groupBy, l.specs)
	return l, err
}

// evalRow evaluates exprs over one row into a fresh row.
func evalRow(exprs []Expr, en env, row relation.Row) (relation.Row, error) {
	nr := make(relation.Row, len(exprs))
	for i, e := range exprs {
		v, err := eval(e, en, row)
		if err != nil {
			return nil, err
		}
		nr[i] = v
	}
	return nr, nil
}

// aggregate materializes l's derived rows over the working table, then
// groups them with relation.Aggregate. Every row is derived before any is
// grouped, so an evaluation error wins over an aggregation error, as in
// the VM.
func aggregate(ctx context.Context, l *aggLayout, working *relation.Table, en env) (*relation.Table, error) {
	derived := &relation.Table{Name: working.Name, Schema: l.derived, Rows: make([]relation.Row, 0, len(working.Rows))}
	cc := canceller{ctx: ctx}
	for _, row := range working.Rows {
		if err := cc.tick(); err != nil {
			return nil, err
		}
		nr, err := evalRow(l.exprs, en, row)
		if err != nil {
			return nil, err
		}
		derived.Rows = append(derived.Rows, nr)
	}
	return relation.Aggregate(derived, l.groupBy, l.specs)
}

// groupColName names a group-key column: plain column references keep
// their qualified name so unqualified references still resolve; computed
// keys are named by their rendered expression.
func groupColName(e Expr) string {
	if ref, ok := e.(*ColumnRef); ok {
		return ref.String()
	}
	return e.String()
}

// projLayout is a statement's output layout, the one the tree walk and
// the VM plan both project with: the SELECT items, named by itemName with
// a repeated name suffixed "_N", then a hidden "sort:N" column for each
// ORDER BY key that is not an output name. exprs computes a projected row
// (visible then hidden columns), cols is the visible schema and all the
// visible plus hidden one.
type projLayout struct {
	exprs    []Expr
	cols     []relation.Column
	all      []relation.Column
	sortKeys []relation.SortKey
	distinct bool
	limit    int
}

// layoutProject lays out the statement's projection over the working
// schema. ORDER BY resolves against output names first; any other key is
// an expression over the working table.
func layoutProject(stmt *SelectStmt, en env) projLayout {
	l := projLayout{
		exprs:    make([]Expr, 0, len(stmt.Items)+len(stmt.OrderBy)),
		cols:     make([]relation.Column, 0, len(stmt.Items)),
		sortKeys: make([]relation.SortKey, len(stmt.OrderBy)),
		distinct: stmt.Distinct,
		limit:    stmt.Limit,
	}
	for i, it := range stmt.Items {
		// Guard duplicate output names (permitted in SQL, not in Schema).
		name := dedupeName(l.cols, itemName(it), i)
		l.cols = append(l.cols, relation.Column{Name: name, Type: inferType(it.Expr, en)})
		l.exprs = append(l.exprs, it.Expr)
	}
	l.all = append([]relation.Column{}, l.cols...)
	for i, o := range stmt.OrderBy {
		if ref, ok := o.Expr.(*ColumnRef); ok && ref.Qualifier == "" {
			if idx := (relation.Schema{Cols: l.cols}).ColIndex(ref.Name); idx >= 0 {
				l.sortKeys[i] = relation.SortKey{Col: idx, Desc: o.Desc}
				continue
			}
		}
		l.all = append(l.all, relation.Column{Name: fmt.Sprintf("sort:%d", i), Type: inferType(o.Expr, en)})
		l.sortKeys[i] = relation.SortKey{Col: len(l.all) - 1, Desc: o.Desc}
		l.exprs = append(l.exprs, o.Expr)
	}
	return l
}

// finish completes a table of projected rows laid out as l: DISTINCT over
// the visible columns, ORDER BY, LIMIT, then the hidden columns stripped.
func (l *projLayout) finish(result *relation.Table) (*relation.Table, error) {
	if l.distinct {
		dedupeRows(result, len(l.cols))
	}
	if len(l.sortKeys) > 0 {
		if err := relation.Sort(result, l.sortKeys); err != nil {
			return nil, err
		}
	}
	if l.limit >= 0 {
		if err := relation.Limit(result, l.limit); err != nil {
			return nil, err
		}
	}
	if len(l.all) > len(l.cols) {
		cols := make([]int, len(l.cols))
		for i := range cols {
			cols[i] = i
		}
		return relation.Project(result, cols)
	}
	result.Schema = relation.Schema{Cols: l.cols}
	return result, nil
}

// project evaluates the statement's projected rows over the working table
// and finishes them.
func project(ctx context.Context, stmt *SelectStmt, working *relation.Table, en env) (*relation.Table, error) {
	l := layoutProject(stmt, en)
	result := &relation.Table{Name: "result", Schema: relation.Schema{Cols: l.all}}
	cc := canceller{ctx: ctx}
	for _, row := range working.Rows {
		if err := cc.tick(); err != nil {
			return nil, err
		}
		nr, err := evalRow(l.exprs, en, row)
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, nr)
	}
	return l.finish(result)
}

// dedupeRows removes duplicate rows, comparing only the first visible
// columns (hidden sort keys must not make duplicates distinct). First
// occurrence wins, preserving order. The rows are compacted in place, so
// the table is rebuilt around them without its columnar image.
func dedupeRows(t *relation.Table, visible int) {
	cols := make([]int, visible)
	for i := range cols {
		cols[i] = i
	}
	seen := make(map[string]bool, len(t.Rows))
	kept := t.Rows[:0]
	for _, row := range t.Rows {
		key := relation.RowKey(row, cols)
		if seen[key] {
			continue
		}
		seen[key] = true
		kept = append(kept, row)
	}
	*t = relation.Table{Name: t.Name, Schema: t.Schema, Rows: kept}
}

// itemName names a SELECT item's output column: its alias, else a bare
// column's name, else the rendered expression.
func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*ColumnRef); ok {
		return ref.Name
	}
	return it.Expr.String()
}

func dedupeName(existing []relation.Column, name string, i int) string {
	for _, c := range existing {
		if strings.EqualFold(c.Name, name) {
			return fmt.Sprintf("%s_%d", name, i)
		}
	}
	return name
}
