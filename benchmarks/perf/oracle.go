package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
)

// oracle holds each template's expected answer, computed once at set-up
// with the tree-walk reference engine over the generated tables.
type oracle struct {
	want []*relation.Table // aligned with the template slice
}

func newOracle(ctx context.Context, templates []template, tables map[string]*relation.Table) (*oracle, error) {
	cat := sqlmini.NewMapCatalog(tables)
	o := &oracle{want: make([]*relation.Table, len(templates))}
	for i, t := range templates {
		out, err := sqlmini.ExecuteWith(ctx, t.Stmt, cat, sqlmini.Options{Engine: sqlmini.EngineTreeWalk})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", t.ID, err)
		}
		o.want[i] = out
	}
	return o, nil
}

// check compares a served answer with the expected one. With static set
// true the rows must match; otherwise (the answer reads a table the writer
// is appending to) only the shape can be checked during the run, and the
// post-run convergence check covers the contents.
func (o *oracle) check(t template, idx int, got *relation.Table, static bool) error {
	if got == nil {
		return fmt.Errorf("%s: no result table", t.ID)
	}
	want := o.want[idx]
	if !static {
		return sameColumns(want, got)
	}
	return sameAnswer(want, got, len(t.Stmt.OrderBy) > 0)
}

func sameColumns(want, got *relation.Table) error {
	if len(want.Schema.Cols) != len(got.Schema.Cols) {
		return fmt.Errorf("schema width %d, want %d", len(got.Schema.Cols), len(want.Schema.Cols))
	}
	for i := range want.Schema.Cols {
		if want.Schema.Cols[i] != got.Schema.Cols[i] {
			return fmt.Errorf("column %d is %v, want %v", i, got.Schema.Cols[i], want.Schema.Cols[i])
		}
	}
	return nil
}

// floatTol is the relative tolerance on float cells: engines and
// incremental views may sum in different association orders.
const floatTol = 1e-9

func sameValue(a, b relation.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == relation.Float {
		if a.F == b.F {
			return true
		}
		return math.Abs(a.F-b.F) <= floatTol*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return relation.Equal(a, b)
}

// sameAnswer checks column names and types, row count, and every cell.
// Ordered answers compare positionally; unordered ones compare after a
// canonical sort on the non-float cells (float cells are excluded from the
// sort key so a last-digit difference cannot reorder rows).
func sameAnswer(want, got *relation.Table, ordered bool) error {
	if err := sameColumns(want, got); err != nil {
		return err
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	wr, gr := want.Rows, got.Rows
	if !ordered {
		wr, gr = canonical(wr), canonical(gr)
	}
	for i := range wr {
		if len(wr[i]) != len(gr[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(gr[i]), len(wr[i]))
		}
		for j := range wr[i] {
			if !sameValue(wr[i][j], gr[i][j]) {
				return fmt.Errorf("row %d col %d: %v, want %v", i, j, gr[i][j], wr[i][j])
			}
		}
	}
	return nil
}

func canonical(rows []relation.Row) []relation.Row {
	type keyed struct {
		key string
		row relation.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			if v.T != relation.Float {
				sb.WriteString(v.String())
			}
			sb.WriteByte(0)
		}
		ks[i] = keyed{sb.String(), r}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	out := make([]relation.Row, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}
