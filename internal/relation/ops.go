package relation

import (
	"context"
	"fmt"
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
// qualify them beforehand (internal/sqlmini does). The output is
// left-major: l's rows in order, each one's matches in r's order. It is
// the one join order of the repository, so filtering l first keeps exactly
// the subsequence of the output that filtering afterwards would.
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

	// Build r, probe l in order: the left-major order, whatever the sizes.
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

	index := make(map[string][]Row, r.NumRows())
	for _, row := range r.Rows {
		if err := tick(); err != nil {
			return nil, err
		}
		k := RowKey(row, rk)
		index[k] = append(index[k], row)
	}
	for _, lrow := range l.Rows {
		if err := tick(); err != nil {
			return nil, err
		}
		for _, rrow := range index[RowKey(lrow, lk)] {
			if err := tick(); err != nil {
				return nil, err
			}
			nr := make(Row, 0, outSchema.Arity())
			nr = append(nr, lrow...)
			nr = append(nr, rrow...)
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// RowKey returns a collision-free composite key over the given column
// positions of the row — the canonical grouping/join/dedup/distinct key.
// Each component is tagged and length-prefixed so no byte sequence in one
// cell can impersonate a column boundary, and numerically equal Int/Float
// cells produce the same key (they must join).
func RowKey(r Row, cols []int) string {
	var b []byte
	for _, c := range cols {
		b = appendKeyPart(b, r[c])
	}
	return string(b)
}

func appendKeyPart(b []byte, v Value) []byte {
	switch v.T {
	case Int, Float:
		// Normalize to the float64 bit pattern so 3 and 3.0 share a key,
		// and −0 and +0 too.
		f, _ := v.AsFloat()
		bits := floatWord(f)
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

// AggSchema is the output schema of grouping a relation of schema in by
// the groupBy columns and computing aggs: the group columns as they are,
// then one column per aggregate — COUNT and COUNT DISTINCT are Int, MIN
// and MAX keep their input's type, SUM and AVG are Float. Every engine
// takes its aggregate schema from here; it rejects out-of-range columns
// (COUNT's column is ignored).
func AggSchema(in Schema, groupBy []int, aggs []AggSpec) (Schema, error) {
	cols := make([]Column, 0, len(groupBy)+len(aggs))
	for _, c := range groupBy {
		if c < 0 || c >= in.Arity() {
			return Schema{}, fmt.Errorf("relation: group-by column %d out of range", c)
		}
		cols = append(cols, in.Cols[c])
	}
	for _, a := range aggs {
		if a.Fn != Count && (a.Col < 0 || a.Col >= in.Arity()) {
			return Schema{}, fmt.Errorf("relation: aggregate column %d out of range", a.Col)
		}
		typ := Float
		switch a.Fn {
		case Count, CountDistinct:
			typ = Int
		case Min, Max:
			typ = in.Cols[a.Col].Type
		}
		cols = append(cols, Column{Name: a.As, Type: typ})
	}
	return Schema{Cols: cols}, nil
}

// Aggregator is the row-at-a-time GROUP BY accumulator: Add folds one row
// into its group, and Table renders the groups folded so far, at any
// point. Aggregate is one fold over it; an incremental view keeps one
// across deltas, so a view fed a table's rows in append order, in any
// number of batches, answers exactly what Aggregate gives over the whole
// table (row order matters to float sums and first-seen group order).
type Aggregator struct {
	in      Schema
	groupBy []int
	aggs    []AggSpec
	out     Schema
	groups  map[string]*aggGroup
	order   []*aggGroup // deterministic output: first-seen group order
}

// aggGroup is the running state of one group, one slot per aggregate.
type aggGroup struct {
	key      Row
	sums     []float64
	counts   []int64
	best     []Value // the running MIN or MAX
	distinct []map[string]bool
}

// NewAggregator returns an empty accumulator for grouping rows of schema
// in by the groupBy columns; its output schema is AggSchema's.
func NewAggregator(in Schema, groupBy []int, aggs []AggSpec) (*Aggregator, error) {
	out, err := AggSchema(in, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{in: in, groupBy: groupBy, aggs: aggs, out: out}
	a.Reset()
	return a, nil
}

// Reset empties the accumulator, keeping its layout.
func (a *Aggregator) Reset() {
	a.groups = make(map[string]*aggGroup)
	a.order = nil
}

// Add folds one row into its group, whole or not at all: a SUM or AVG
// cell that is not numeric fails the row before anything is folded. The
// row is not retained.
func (a *Aggregator) Add(r Row) error {
	for _, s := range a.aggs {
		if s.Fn != Sum && s.Fn != Avg {
			continue
		}
		if _, ok := r[s.Col].AsFloat(); !ok {
			return fmt.Errorf("relation: %s over non-numeric column %s", s.Fn, a.in.Cols[s.Col].Name)
		}
	}
	k := RowKey(r, a.groupBy)
	g, ok := a.groups[k]
	if !ok {
		n := len(a.aggs)
		g = &aggGroup{
			key:      make(Row, len(a.groupBy)),
			sums:     make([]float64, n),
			counts:   make([]int64, n),
			best:     make([]Value, n),
			distinct: make([]map[string]bool, n),
		}
		for i, c := range a.groupBy {
			g.key[i] = r[c]
		}
		a.groups[k] = g
		a.order = append(a.order, g)
	}
	for i, s := range a.aggs {
		switch s.Fn {
		case Count:
			g.counts[i]++
		case CountDistinct:
			if g.distinct[i] == nil {
				g.distinct[i] = make(map[string]bool)
			}
			g.distinct[i][string(appendKeyPart(nil, r[s.Col]))] = true
		case Sum, Avg:
			f, _ := r[s.Col].AsFloat()
			g.sums[i] += f
			g.counts[i]++
		case Min, Max:
			v := r[s.Col]
			if g.best[i].T == 0 {
				g.best[i] = v
				continue
			}
			c, err := Compare(v, g.best[i])
			if err != nil {
				return err
			}
			if (s.Fn == Min && c < 0) || (s.Fn == Max && c > 0) {
				g.best[i] = v
			}
		default:
			return fmt.Errorf("relation: unknown aggregate %d", int(s.Fn))
		}
	}
	return nil
}

// Table renders the groups folded so far as a fresh table named name, in
// first-seen group order. With no group columns it is one global row even
// before any Add, per SQL semantics for COUNT/SUM over empty sets: COUNT
// is 0, other aggregates are 0-valued floats rather than NULL (the engine
// has no NULLs), and MIN/MAX are their type's zero value. Later Adds never
// touch a table returned earlier.
func (a *Aggregator) Table(name string) *Table {
	out := &Table{Name: name, Schema: Schema{Cols: append([]Column(nil), a.out.Cols...)}}
	if len(a.order) == 0 && len(a.groupBy) == 0 {
		row := make(Row, len(a.aggs))
		for i, s := range a.aggs {
			switch s.Fn {
			case Count, CountDistinct:
				row[i] = IntVal(0)
			case Min, Max:
				row[i] = Value{T: a.out.Cols[i].Type}
			default:
				row[i] = FloatVal(0)
			}
		}
		out.Rows = append(out.Rows, row)
		return out
	}
	for _, g := range a.order {
		row := make(Row, 0, a.out.Arity())
		row = append(row, g.key...)
		for i, s := range a.aggs {
			switch s.Fn {
			case Count:
				row = append(row, IntVal(g.counts[i]))
			case CountDistinct:
				row = append(row, IntVal(int64(len(g.distinct[i]))))
			case Sum:
				row = append(row, FloatVal(g.sums[i]))
			case Avg:
				row = append(row, FloatVal(g.sums[i]/float64(g.counts[i])))
			default:
				row = append(row, g.best[i])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Aggregate groups t by the groupBy columns and computes the aggregates:
// one Aggregator fold over t's rows (see Aggregator.Table for the output,
// including the global row over an empty input).
func Aggregate(t *Table, groupBy []int, aggs []AggSpec) (*Table, error) {
	a, err := NewAggregator(t.Schema, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	for _, r := range t.Rows {
		if err := a.Add(r); err != nil {
			return nil, err
		}
	}
	return a.Table(t.Name), nil
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
