package sqlmini

import (
	"fmt"
	"strings"

	"ivdss/internal/relation"
)

// This file builds the typed logical plan: Prepare resolves names,
// chooses the join order, expands stars, and compiles every expression
// to bytecode exactly once. The resulting Prepared is immutable and
// reusable — ExecuteContext binds it to the catalog's current table
// contents, so a micro-batch workload parses and plans one time and
// then only executes.
//
// Everything here mirrors decisions the tree-walk path makes at run
// time. Join order for comma-FROM tables is greedy over WHERE equijoin
// conjuncts — a pure function of the schemas, so hoisting it to prepare
// time cannot change the chosen order. Structural errors the tree walk
// raises before touching any row (no FROM, duplicate alias, unknown
// table, JOIN without equijoin, HAVING without aggregation) surface at
// Prepare; errors it raises per row compile to selection-guarded error
// instructions instead (see compile.go).

// loadSpec names one base-table scan of the plan.
type loadSpec struct {
	table string
	alias string
	base  relation.Schema // schema observed at prepare; rebind re-checks it
	qual  relation.Schema // column names qualified to "alias.col"
}

// colRef places one working-schema column: column col of loads[load].
type colRef struct{ load, col int }

// joinStep joins the working relation with one loaded table.
type joinStep struct {
	cross      bool
	right      int    // index into loads
	lk, rk     []int  // equijoin key positions (working side, right side)
	lsig, rsig string // lk and rk rendered once, the ExecCache build keys
	residual   []*prog
}

// aggPlan materializes group keys and aggregate arguments, then groups.
type aggPlan struct {
	derived     *prog
	derivedCols []relation.Column // declared schema of the derived input
	progTypes   []relation.Type   // actual vector types the program emits
	groupIdx    []int
	specs       []relation.AggSpec
	outSchema   relation.Schema // post-aggregation working schema
}

// projPlan evaluates SELECT items plus hidden sort keys and finishes the
// statement (distinct, order, limit, hidden-column strip).
type projPlan struct {
	prog       *prog
	progTypes  []relation.Type
	outCols    []relation.Column // visible result columns
	outEnvCols []relation.Column // visible + hidden sort-key columns
	sortKeys   []relation.SortKey
	distinct   bool
	limit      int
}

// Prepared is a compiled statement: resolved loads, an ordered join
// pipeline, and bytecode for every expression stage. Safe for concurrent
// ExecuteContext calls.
type Prepared struct {
	loads []loadSpec
	steps []joinStep
	// refs maps a position of the pre-aggregation working schema, which is
	// always load0 ++ right1 ++ right2 …, to its load and column. Every
	// join step and program up to the first value stage sees a prefix of it.
	refs   []colRef
	where  *prog
	agg    *aggPlan
	having *prog
	proj   projPlan
}

// Prepare compiles a parsed statement against the catalog's schemas.
// Only schemas are read here — table contents bind per execution.
func Prepare(stmt *SelectStmt, cat Catalog) (*Prepared, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlmini: no FROM tables")
	}
	p := &Prepared{}
	aliases := make(map[string]bool)
	load := func(ref TableRef) (int, error) {
		alias := strings.ToLower(ref.EffectiveAlias())
		if aliases[alias] {
			return 0, fmt.Errorf("sqlmini: duplicate table alias %q", ref.EffectiveAlias())
		}
		aliases[alias] = true
		t, err := cat.Table(ref.Name)
		if err != nil {
			return 0, err
		}
		p.loads = append(p.loads, loadSpec{
			table: ref.Name,
			alias: ref.EffectiveAlias(),
			base:  t.Schema,
			qual:  qualifySchema(t.Schema, ref.EffectiveAlias()),
		})
		return len(p.loads) - 1, nil
	}

	// join extends the working schema (and its position table) by one load.
	var working relation.Schema
	join := func(idx int) {
		working = appendSchema(working, p.loads[idx].qual)
		for c := range p.loads[idx].qual.Cols {
			p.refs = append(p.refs, colRef{load: idx, col: c})
		}
	}
	if _, err := load(stmt.From[0]); err != nil {
		return nil, err
	}
	join(0)

	// WHERE conjuncts drive join ordering for comma-FROM tables, exactly
	// as buildJoinTree orders them at run time.
	conjuncts := splitConjuncts(stmt.Where)

	pending := make([]int, 0, len(stmt.From)-1)
	for _, ref := range stmt.From[1:] {
		idx, err := load(ref)
		if err != nil {
			return nil, err
		}
		pending = append(pending, idx)
	}
	for len(pending) > 0 {
		joined := false
		for i, idx := range pending {
			lk, rk := equijoinKeys(conjuncts, working, p.loads[idx].qual)
			if len(lk) == 0 {
				continue
			}
			p.steps = append(p.steps, joinStep{right: idx, lk: lk, rk: rk, lsig: keySig(lk), rsig: keySig(rk)})
			join(idx)
			pending = append(pending[:i], pending[i+1:]...)
			joined = true
			break
		}
		if !joined {
			// Disconnected table: cross product, guarded at run time
			// (row counts aren't known until bind).
			idx := pending[0]
			pending = pending[1:]
			p.steps = append(p.steps, joinStep{cross: true, right: idx})
			join(idx)
		}
	}

	for _, jc := range stmt.Joins {
		idx, err := load(jc.Table)
		if err != nil {
			return nil, err
		}
		onConjuncts := splitConjuncts(jc.On)
		lk, rk := equijoinKeys(onConjuncts, working, p.loads[idx].qual)
		if len(lk) == 0 {
			return nil, fmt.Errorf("sqlmini: JOIN %s ON clause has no equijoin predicate", jc.Table.Name)
		}
		step := joinStep{right: idx, lk: lk, rk: rk, lsig: keySig(lk), rsig: keySig(rk)}
		join(idx)
		// Non-equijoin residue of the ON clause filters the join output,
		// one conjunct at a time, in clause order.
		for _, c := range onConjuncts {
			if isEquijoin(c) {
				continue
			}
			step.residual = append(step.residual, compilePredProg(working, c))
		}
		p.steps = append(p.steps, step)
	}

	if stmt.Where != nil {
		p.where = compilePredProg(working, stmt.Where)
	}

	stmt, err := expandStars(stmt, working)
	if err != nil {
		return nil, err
	}

	if len(stmt.GroupBy) > 0 || containsAggregate(stmt) {
		p.agg = planAggregate(stmt, working)
		working = p.agg.outSchema
		if stmt.Having != nil {
			p.having = compilePredProg(working, stmt.Having)
		}
	} else if stmt.Having != nil {
		return nil, fmt.Errorf("sqlmini: HAVING without aggregation")
	}

	p.proj = planProject(stmt, working)
	return p, nil
}

// planAggregate compiles the derived-column program and aggregate specs,
// mirroring aggregate(): group-key columns first (named by groupColName),
// then one argument column per distinct aggregate ("arg:" + rendering),
// with COUNT(*) counting a constant-1 column.
func planAggregate(stmt *SelectStmt, schema relation.Schema) *aggPlan {
	en := newEnv(schema)
	aggs := collectAggs(stmt)

	derivedCols := make([]relation.Column, 0, len(stmt.GroupBy)+len(aggs))
	exprs := make([]Expr, 0, cap(derivedCols))
	for _, g := range stmt.GroupBy {
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

	pr, progTypes := compileValueProg(schema, exprs)

	groupIdx := make([]int, len(stmt.GroupBy))
	for i := range stmt.GroupBy {
		groupIdx[i] = i
	}
	specs := make([]relation.AggSpec, len(aggs))
	for i, a := range aggs {
		col := len(stmt.GroupBy) + i
		fn := a.Fn
		if a.Star {
			fn = relation.Count
		}
		specs[i] = relation.AggSpec{Fn: fn, Col: col, As: a.String()}
	}

	// Post-aggregation schema, as relation.Aggregate derives it from the
	// derived input's declared column types.
	outCols := make([]relation.Column, 0, len(groupIdx)+len(specs))
	for _, c := range groupIdx {
		outCols = append(outCols, derivedCols[c])
	}
	for _, a := range specs {
		typ := relation.Float
		if a.Fn == relation.Count || a.Fn == relation.CountDistinct {
			typ = relation.Int
		}
		if (a.Fn == relation.Min || a.Fn == relation.Max) && a.Col >= 0 && a.Col < len(derivedCols) {
			typ = derivedCols[a.Col].Type
		}
		outCols = append(outCols, relation.Column{Name: a.As, Type: typ})
	}

	return &aggPlan{
		derived:     pr,
		derivedCols: derivedCols,
		progTypes:   progTypes,
		groupIdx:    groupIdx,
		specs:       specs,
		outSchema:   relation.Schema{Cols: outCols},
	}
}

// planProject compiles the SELECT list and ORDER BY keys, mirroring
// project(): output names from alias / bare column name / rendered text,
// deduplicated; ORDER BY resolves against output aliases first, else
// becomes a hidden "sort:N" column stripped after sorting.
func planProject(stmt *SelectStmt, schema relation.Schema) projPlan {
	en := newEnv(schema)
	outCols := make([]relation.Column, 0, len(stmt.Items)+len(stmt.OrderBy))
	exprs := make([]Expr, 0, cap(outCols))
	for i, it := range stmt.Items {
		name := dedupeName(outCols, itemName(it), i)
		outCols = append(outCols, relation.Column{Name: name, Type: inferType(it.Expr, en)})
		exprs = append(exprs, it.Expr)
	}

	outEnvCols := append([]relation.Column{}, outCols...)
	sortKeys := make([]relation.SortKey, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		if ref, ok := o.Expr.(*ColumnRef); ok && ref.Qualifier == "" {
			if idx := (relation.Schema{Cols: outCols}).ColIndex(ref.Name); idx >= 0 {
				sortKeys[i] = relation.SortKey{Col: idx, Desc: o.Desc}
				continue
			}
		}
		outEnvCols = append(outEnvCols, relation.Column{
			Name: fmt.Sprintf("sort:%d", i),
			Type: inferType(o.Expr, en),
		})
		sortKeys[i] = relation.SortKey{Col: len(outEnvCols) - 1, Desc: o.Desc}
		exprs = append(exprs, o.Expr)
	}

	pr, progTypes := compileValueProg(schema, exprs)
	return projPlan{
		prog:       pr,
		progTypes:  progTypes,
		outCols:    outCols,
		outEnvCols: outEnvCols,
		sortKeys:   sortKeys,
		distinct:   stmt.Distinct,
		limit:      stmt.Limit,
	}
}

// qualifySchema renames columns to "alias.col", the schema-only half of
// qualify().
func qualifySchema(s relation.Schema, alias string) relation.Schema {
	cols := make([]relation.Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = relation.Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	return relation.Schema{Cols: cols}
}

func appendSchema(l, r relation.Schema) relation.Schema {
	cols := make([]relation.Column, 0, len(l.Cols)+len(r.Cols))
	cols = append(cols, l.Cols...)
	cols = append(cols, r.Cols...)
	return relation.Schema{Cols: cols}
}

func schemaEqual(a, b relation.Schema) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}
