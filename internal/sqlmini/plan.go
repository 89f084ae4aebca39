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
// contents, and an ExecCache's Statement keeps one per set of table
// schemas (stmt.go), so a server parses and plans a repeated text one
// time and then only executes.
//
// The grouping and output layouts are the tree walk's own (layoutAggregate
// and layoutProject in exec.go); what the plan adds is deciding at
// prepare time what the tree walk decides at run time. Join order for
// comma-FROM tables is greedy over WHERE equijoin conjuncts — a pure
// function of the schemas, so hoisting it to prepare time cannot change
// the chosen order. Joins emit the tree walk's left-major order, so WHERE
// conjuncts can run as early as their tables are bound (placeWhere).
// Structural errors the tree walk raises before touching any row (no
// FROM, duplicate alias, unknown table, JOIN without equijoin, HAVING
// without aggregation) surface at Prepare; errors it raises per row
// compile to selection-guarded error instructions instead (see
// compile.go).

// loadSpec names one base-table scan of the plan.
type loadSpec struct {
	table string
	alias string
	base  relation.Schema // schema observed at prepare; rebind re-checks it
	qual  relation.Schema // column names qualified to "alias.col"
}

// colRef places one working-schema column: column col of loads[load].
type colRef struct{ load, col int }

// joinStep joins the working relation with one loaded table, then runs
// its filters: the ON residuals, then the WHERE conjuncts placed here.
type joinStep struct {
	cross   bool
	right   int    // index into loads
	lk, rk  []int  // equijoin key positions (working side, right side)
	rsig    string // rk rendered once, the ExecCache build key
	filters []*prog
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
	where  *prog // the WHERE conjuncts placed before the first join step
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
			p.steps = append(p.steps, joinStep{right: idx, lk: lk, rk: rk, rsig: keySig(rk)})
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
		step := joinStep{right: idx, lk: lk, rk: rk, rsig: keySig(rk)}
		join(idx)
		// Non-equijoin residue of the ON clause filters the join output,
		// one conjunct at a time, in clause order.
		for _, c := range onConjuncts {
			if isEquijoin(c) {
				continue
			}
			step.filters = append(step.filters, compilePredProg(newEnv(working), c))
		}
		p.steps = append(p.steps, step)
	}

	en := newEnv(working) // one resolution memo for every program over it
	if stmt.Where != nil {
		p.placeWhere(stmt.Where, conjuncts, en)
	}

	stmt, err := expandStars(stmt, working)
	if err != nil {
		return nil, err
	}

	lay, err := layoutAggregate(stmt, en)
	if err != nil {
		return nil, err
	}
	if lay != nil {
		pr, progTypes := compileValueProg(en, lay.exprs)
		p.agg = aggPlan{derived: pr, progTypes: progTypes, lay: lay}
		en = newEnv(lay.out)
		if stmt.Having != nil {
			p.having = compilePredProg(en, stmt.Having)
		}
	}

	proj := layoutProject(stmt, en)
	pr, progTypes := compileValueProg(en, proj.exprs)
	p.proj = projPlan{prog: pr, progTypes: progTypes, lay: proj}
	return p, nil
}

// placeWhere runs each WHERE conjunct as early as its tables are bound:
// before the first join step if it reads only load 0 (or nothing), else
// after the ON residuals of the step joining its last table. Conjuncts
// meeting at one point compile as one AND program, in clause order. Under
// left-major joins an input filtered early keeps the subsequence of rows
// filtering late keeps, so the answer is the tree walk's. The whole WHERE
// runs after the last step when a conjunct or ON residual can fail on a
// row (moving a filter changes which rows reach it) or the plan has a
// cross step (maxCrossRows reads the unfiltered row count).
func (p *Prepared) placeWhere(where Expr, conjuncts []Expr, en env) {
	at, ok := p.wherePoints(conjuncts, en)
	filters := make([]*prog, len(p.steps)+1)
	for pt := 0; ok && pt < len(filters); pt++ {
		var c *compiler
		sel := 0
		for i, cj := range conjuncts {
			if at[i] == pt {
				if c == nil {
					c = newCompiler(en)
				}
				sel = c.compilePred(cj, sel)
			}
		}
		if c != nil {
			c.p.outSel, filters[pt] = sel, c.p
			ok = !c.p.fallible()
		}
	}
	if !ok {
		clear(filters)
		filters[len(p.steps)] = compilePredProg(en, where)
	}
	p.where = filters[0]
	for s, f := range filters[1:] {
		if f != nil {
			p.steps[s].filters = append(p.steps[s].filters, f)
		}
	}
}

// wherePoints places each conjunct by resolving its column references
// through refs: 0 before the first join step, s+1 after step s. ok is
// false when nothing may move: a cross step, a fallible ON residual, or
// an unresolved reference.
func (p *Prepared) wherePoints(conjuncts []Expr, en env) (at []int, ok bool) {
	bound := make([]int, len(p.loads)) // load → the point it is bound at
	for s, st := range p.steps {
		if st.cross {
			return nil, false
		}
		for _, f := range st.filters {
			if f.fallible() {
				return nil, false
			}
		}
		bound[st.right] = s + 1
	}
	at = make([]int, len(conjuncts))
	var refs []*ColumnRef
	for i, c := range conjuncts {
		refs = refs[:0]
		collectColumnRefs(c, &refs)
		for _, r := range refs {
			pos, err := en.resolve(r)
			if err != nil {
				return nil, false
			}
			at[i] = max(at[i], bound[p.refs[pos].load])
		}
	}
	return at, true
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
