package relation

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Filter returns the rows of t satisfying pred, as a new table.
func Filter(t *Table, pred func(Row) bool) *Table {
	out := NewTable(t.Name, t.Schema)
	for _, r := range t.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Project returns a table with only the given column positions, in order.
func Project(t *Table, cols []int) (*Table, error) {
	outCols := make([]Column, len(cols))
	for i, c := range cols {
		if c < 0 || c >= t.Schema.Arity() {
			return nil, fmt.Errorf("relation: project: column %d out of range for %s", c, t.Name)
		}
		outCols[i] = t.Schema.Cols[c]
	}
	out := &Table{Name: t.Name, Schema: Schema{Cols: outCols}, Rows: make([]Row, 0, len(t.Rows))}
	for _, r := range t.Rows {
		nr := make(Row, len(cols))
		for i, c := range cols {
			nr[i] = r[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// HashJoin equijoins l and r on the given key column positions (pairwise:
// l.Rows[lk[i]] == r.Rows[rk[i]] for all i). The output schema is l's
// columns followed by r's columns; callers that need unambiguous names
// qualify them beforehand (internal/sqlmini does).
func HashJoin(l, r *Table, lk, rk []int) (*Table, error) {
	return HashJoinContext(context.Background(), l, r, lk, rk)
}

// HashJoinContext is HashJoin under a context: the build and probe loops
// checkpoint the context every few thousand rows, so a join whose output
// explodes (or whose caller's deadline expires mid-flight) aborts promptly
// with the context's cause instead of materializing the rest.
func HashJoinContext(ctx context.Context, l, r *Table, lk, rk []int) (*Table, error) {
	if len(lk) != len(rk) || len(lk) == 0 {
		return nil, fmt.Errorf("relation: hash join needs matching non-empty key lists, got %d and %d", len(lk), len(rk))
	}
	for _, c := range lk {
		if c < 0 || c >= l.Schema.Arity() {
			return nil, fmt.Errorf("relation: join key %d out of range for %s", c, l.Name)
		}
	}
	for _, c := range rk {
		if c < 0 || c >= r.Schema.Arity() {
			return nil, fmt.Errorf("relation: join key %d out of range for %s", c, r.Name)
		}
	}

	outSchema := Schema{Cols: make([]Column, 0, l.Schema.Arity()+r.Schema.Arity())}
	outSchema.Cols = append(outSchema.Cols, l.Schema.Cols...)
	outSchema.Cols = append(outSchema.Cols, r.Schema.Cols...)
	out := &Table{Name: l.Name + "⨝" + r.Name, Schema: outSchema}

	// Build on the smaller input.
	build, probe, bk, pk, buildLeft := l, r, lk, rk, true
	if r.NumRows() < l.NumRows() {
		build, probe, bk, pk, buildLeft = r, l, rk, lk, false
	}
	// Checkpoint cadence for context checks: build rows, probe rows, and
	// emitted rows all advance the counter, so a skewed key whose single
	// probe emits millions of rows still notices cancellation in-batch.
	const checkEvery = 4096
	ticks := 0
	tick := func() error {
		ticks++
		if ticks%checkEvery != 0 {
			return nil
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		return nil
	}

	index := make(map[string][]Row, build.NumRows())
	for _, row := range build.Rows {
		if err := tick(); err != nil {
			return nil, err
		}
		index[joinKey(row, bk)] = append(index[joinKey(row, bk)], row)
	}
	for _, prow := range probe.Rows {
		if err := tick(); err != nil {
			return nil, err
		}
		for _, brow := range index[joinKey(prow, pk)] {
			if err := tick(); err != nil {
				return nil, err
			}
			nr := make(Row, 0, outSchema.Arity())
			if buildLeft {
				nr = append(nr, brow...)
				nr = append(nr, prow...)
			} else {
				nr = append(nr, prow...)
				nr = append(nr, brow...)
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// RowKey returns a collision-free composite key over the given column
// positions of the row — the canonical grouping/join/dedup key.
func RowKey(r Row, cols []int) string { return joinKey(r, cols) }

// joinKey serializes key cells into a composite map key. Each component
// is tagged and length-prefixed so no byte sequence in one cell can
// impersonate a column boundary, and numerically equal Int/Float cells
// produce the same key (they must join).
func joinKey(r Row, cols []int) string {
	var b []byte
	for _, c := range cols {
		b = appendKeyPart(b, r[c])
	}
	return string(b)
}

func appendKeyPart(b []byte, v Value) []byte {
	switch v.T {
	case Int, Float:
		// Normalize to the float64 bit pattern so 3 and 3.0 share a key.
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		b = append(b, 'n')
		for shift := 56; shift >= 0; shift -= 8 {
			b = append(b, byte(bits>>shift))
		}
	case Date:
		b = append(b, 'd')
		u := uint64(v.I)
		for shift := 56; shift >= 0; shift -= 8 {
			b = append(b, byte(u>>shift))
		}
	case Str:
		b = append(b, 's')
		n := uint64(len(v.S))
		for shift := 56; shift >= 0; shift -= 8 {
			b = append(b, byte(n>>shift))
		}
		b = append(b, v.S...)
	default:
		b = append(b, '?')
	}
	return b
}

// AggFn enumerates the aggregate functions.
type AggFn int

const (
	// Sum adds numeric cells.
	Sum AggFn = iota + 1
	// Count counts rows (its column argument is ignored).
	Count
	// Avg averages numeric cells.
	Avg
	// Min and Max take extremes under Compare ordering.
	Min
	Max
	// CountDistinct counts distinct values of its column.
	CountDistinct
)

// String names the aggregate.
func (f AggFn) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	case CountDistinct:
		return "count-distinct"
	default:
		return fmt.Sprintf("AggFn(%d)", int(f))
	}
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Fn  AggFn
	Col int    // input column position (ignored by Count)
	As  string // output column name
}

// Aggregate groups t by the groupBy columns and computes the aggregates.
// With an empty groupBy it produces a single global row (even for an empty
// input, per SQL semantics for COUNT/SUM over empty sets: COUNT is 0, other
// aggregates are 0-valued floats here rather than NULL, since the engine
// has no NULLs).
func Aggregate(t *Table, groupBy []int, aggs []AggSpec) (*Table, error) {
	for _, c := range groupBy {
		if c < 0 || c >= t.Schema.Arity() {
			return nil, fmt.Errorf("relation: group-by column %d out of range", c)
		}
	}
	for _, a := range aggs {
		if a.Fn != Count && (a.Col < 0 || a.Col >= t.Schema.Arity()) {
			return nil, fmt.Errorf("relation: aggregate column %d out of range", a.Col)
		}
	}

	outCols := make([]Column, 0, len(groupBy)+len(aggs))
	for _, c := range groupBy {
		outCols = append(outCols, t.Schema.Cols[c])
	}
	for _, a := range aggs {
		typ := Float
		if a.Fn == Count || a.Fn == CountDistinct {
			typ = Int
		}
		if (a.Fn == Min || a.Fn == Max) && a.Col >= 0 && a.Col < t.Schema.Arity() {
			typ = t.Schema.Cols[a.Col].Type
		}
		outCols = append(outCols, Column{Name: a.As, Type: typ})
	}
	out := &Table{Name: t.Name, Schema: Schema{Cols: outCols}}

	type groupState struct {
		key      Row
		sums     []float64
		counts   []int64
		mins     []Value
		maxs     []Value
		distinct []map[any]bool
		n        int64
	}
	groups := make(map[string]*groupState)
	var order []string // deterministic output: first-seen group order
	for _, r := range t.Rows {
		k := joinKey(r, groupBy)
		g, ok := groups[k]
		if !ok {
			g = &groupState{
				sums:     make([]float64, len(aggs)),
				counts:   make([]int64, len(aggs)),
				mins:     make([]Value, len(aggs)),
				maxs:     make([]Value, len(aggs)),
				distinct: make([]map[any]bool, len(aggs)),
			}
			g.key = make(Row, len(groupBy))
			for i, c := range groupBy {
				g.key[i] = r[c]
			}
			groups[k] = g
			order = append(order, k)
		}
		g.n++
		for i, a := range aggs {
			switch a.Fn {
			case Count:
				g.counts[i]++
			case CountDistinct:
				if g.distinct[i] == nil {
					g.distinct[i] = make(map[any]bool)
				}
				g.distinct[i][r[a.Col].Key()] = true
			case Sum, Avg:
				f, ok := r[a.Col].AsFloat()
				if !ok {
					return nil, fmt.Errorf("relation: %s over non-numeric column %s", a.Fn, t.Schema.Cols[a.Col].Name)
				}
				g.sums[i] += f
				g.counts[i]++
			case Min, Max:
				v := r[a.Col]
				cur := g.mins[i]
				if a.Fn == Max {
					cur = g.maxs[i]
				}
				if cur.T == 0 {
					g.mins[i], g.maxs[i] = v, v
					continue
				}
				c, err := Compare(v, cur)
				if err != nil {
					return nil, err
				}
				if a.Fn == Min && c < 0 {
					g.mins[i] = v
				}
				if a.Fn == Max && c > 0 {
					g.maxs[i] = v
				}
			default:
				return nil, fmt.Errorf("relation: unknown aggregate %d", int(a.Fn))
			}
		}
	}

	if len(groups) == 0 && len(groupBy) == 0 {
		// Global aggregate over an empty input still yields one row.
		row := make(Row, 0, len(aggs))
		for _, a := range aggs {
			switch a.Fn {
			case Count, CountDistinct:
				row = append(row, IntVal(0))
			case Min, Max:
				row = append(row, Value{T: out.Schema.Cols[len(groupBy)+len(row)].Type})
			default:
				row = append(row, FloatVal(0))
			}
		}
		out.Rows = append(out.Rows, row)
		return out, nil
	}

	for _, k := range order {
		g := groups[k]
		row := make(Row, 0, out.Schema.Arity())
		row = append(row, g.key...)
		for i, a := range aggs {
			switch a.Fn {
			case Count:
				row = append(row, IntVal(g.counts[i]))
			case CountDistinct:
				row = append(row, IntVal(int64(len(g.distinct[i]))))
			case Sum:
				row = append(row, FloatVal(g.sums[i]))
			case Avg:
				row = append(row, FloatVal(g.sums[i]/float64(g.counts[i])))
			case Min:
				row = append(row, g.mins[i])
			case Max:
				row = append(row, g.maxs[i])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort stably sorts the table's rows in place by the given keys.
func Sort(t *Table, keys []SortKey) error {
	for _, k := range keys {
		if k.Col < 0 || k.Col >= t.Schema.Arity() {
			return fmt.Errorf("relation: sort column %d out of range", k.Col)
		}
	}
	t.image = nil
	var sortErr error
	sort.SliceStable(t.Rows, func(i, j int) bool {
		for _, k := range keys {
			c, err := Compare(t.Rows[i][k.Col], t.Rows[j][k.Col])
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// Limit truncates the table to at most n rows (in place). Negative n is an
// error.
func Limit(t *Table, n int) error {
	if n < 0 {
		return fmt.Errorf("relation: negative limit %d", n)
	}
	if n < len(t.Rows) {
		t.Rows = t.Rows[:n]
		t.image = nil
	}
	return nil
}
