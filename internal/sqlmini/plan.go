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
// The grouping and output layouts are the tree walk's own (layoutAggregate
// and layoutProject in exec.go); what the plan adds is deciding at
// prepare time what the tree walk decides at run time. Join order for
// comma-FROM tables is greedy over WHERE equijoin conjuncts — a pure
// function of the schemas, so hoisting it to prepare time cannot change
// the chosen order. Structural errors the tree walk raises before
// touching any row (no FROM, duplicate alias, unknown table, JOIN without
// equijoin, HAVING without aggregation) surface at Prepare; errors it
// raises per row compile to selection-guarded error instructions instead
// (see compile.go).

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

// aggPlan materializes the derived rows of the statement's aggLayout,
// then groups them. A nil lay means the statement does not group.
type aggPlan struct {
	derived   *prog
	progTypes []relation.Type // actual vector types the program emits
	lay       *aggLayout
}

// projPlan evaluates the projLayout's rows and finishes the statement.
type projPlan struct {
	prog      *prog
	progTypes []relation.Type
	lay       projLayout
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
	agg    aggPlan
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

	lay, err := layoutAggregate(stmt, newEnv(working))
	if err != nil {
		return nil, err
	}
	if lay != nil {
		pr, progTypes := compileValueProg(working, lay.exprs)
		p.agg = aggPlan{derived: pr, progTypes: progTypes, lay: lay}
		working = lay.out
		if stmt.Having != nil {
			p.having = compilePredProg(working, stmt.Having)
		}
	}

	proj := layoutProject(stmt, newEnv(working))
	pr, progTypes := compileValueProg(working, proj.exprs)
	p.proj = projPlan{prog: pr, progTypes: progTypes, lay: proj}
	return p, nil
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
