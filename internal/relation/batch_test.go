package relation

import (
	"context"
	"reflect"
	"testing"
)

// mixedColTable builds an n-row columnar table with all four column types.
func mixedColTable(n int) *ColTable {
	schema := MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "price", Type: Float},
		Column{Name: "note", Type: Str},
		Column{Name: "day", Type: Date},
	)
	ct := NewColTable("mixed", schema, n)
	for i := 0; i < n; i++ {
		ct.Cols[0].Append(IntVal(int64(i)))
		ct.Cols[1].Append(FloatVal(float64(i) / 4))
		ct.Cols[2].Append(StrVal(string(rune('a' + i%26))))
		ct.Cols[3].Append(DateVal(int64(9000 + i)))
	}
	ct.N = n
	return ct
}

func TestToTableRoundTripsThroughColumnar(t *testing.T) {
	for _, n := range []int{0, 1, transposeRows - 1, transposeRows, 3*transposeRows + 5} {
		ct := mixedColTable(n)
		table := ct.ToTable()
		if table.NumRows() != n || table.Image() != ct {
			t.Fatalf("n=%d: %d rows, image %p want %p", n, table.NumRows(), table.Image(), ct)
		}
		back, err := Columnar(&Table{Name: table.Name, Schema: table.Schema, Rows: table.Rows})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Cols, ct.Cols) {
			t.Fatalf("n=%d: rows do not transpose back to the vectors", n)
		}
	}
}

func TestToTableAllocatesAConstantNumberOfObjects(t *testing.T) {
	small, large := mixedColTable(500), mixedColTable(2000)
	allocs := func(ct *ColTable) float64 {
		return testing.AllocsPerRun(20, func() { ct.ToTable() })
	}
	if a, b := allocs(small), allocs(large); a != b || a > 3 {
		t.Errorf("ToTable allocates %v objects for 500 rows and %v for 2000; want the same, at most 3", a, b)
	}
}

// The hash kernels allocate per call, not per row: a build plus a
// foreign-key probe, and a grouped count over a fixed number of groups,
// allocate as many objects over 100k rows as over 1k.
func TestKeyKernelsAllocateAConstantNumberOfObjects(t *testing.T) {
	ctx := context.Background()
	allocs := func(n int) (join, group float64) {
		ct := mixedColTable(n)
		ids, count := ct.Refs([]int{0}), []AggSpec{{Fn: Count, As: "n"}}
		for i := range ct.Cols[1].Floats {
			ct.Cols[1].Floats[i] = float64(i % 3)
		}
		join = testing.AllocsPerRun(3, func() {
			idx, err := BuildJoinIndex(ctx, ids, n)
			if err == nil {
				_, _, err = idx.Probe(ctx, ids, n, nil, nil)
			}
			if err != nil {
				t.Error(err)
			}
		})
		group = testing.AllocsPerRun(3, func() {
			if _, err := ColAggregateContext(ctx, ct, []int{2, 1}, count); err != nil {
				t.Error(err)
			}
		})
		return join, group
	}
	j1, g1 := allocs(1000)
	j2, g2 := allocs(100_000)
	if j1 != j2 || j1 > 10 {
		t.Errorf("build plus probe allocates %v objects over 1k rows and %v over 100k; want the same, at most 10", j1, j2)
	}
	if g1 != g2 {
		t.Errorf("a grouped count allocates %v objects over 1k rows and %v over 100k; want the same", g1, g2)
	}
}

// Rows are capped views of one slab: growing one must not write into the
// next.
func TestToTableRowsDoNotShareCapacity(t *testing.T) {
	table := mixedColTable(3).ToTable()
	next := table.Rows[1][0]
	_ = append(table.Rows[0], IntVal(99))
	if table.Rows[1][0] != next {
		t.Errorf("append to row 0 overwrote row 1: %v", table.Rows[1][0])
	}
}

func TestImageDroppedByInPlaceMutation(t *testing.T) {
	fresh := func() *Table { return mixedColTable(10).ToTable() }
	for name, mutate := range map[string]func(*Table){
		"sort":   func(tb *Table) { _ = Sort(tb, []SortKey{{Col: 0, Desc: true}}) },
		"limit":  func(tb *Table) { _ = Limit(tb, 4) },
		"insert": func(tb *Table) { tb.MustInsert(tb.Rows[0].Clone()) },
		"append": func(tb *Table) { tb.Rows = append(tb.Rows, tb.Rows[0]) },
		"retype": func(tb *Table) {
			tb.Schema = MustSchema(tb.Schema.Cols[1], tb.Schema.Cols[0], tb.Schema.Cols[2], tb.Schema.Cols[3])
		},
		"narrow": func(tb *Table) { tb.Schema = MustSchema(tb.Schema.Cols[:3]...) },
	} {
		tb := fresh()
		mutate(tb)
		if tb.Image() != nil {
			t.Errorf("%s: the table still offers its image", name)
		}
	}
	// Truncating and refilling to the old length must not resurrect it.
	tb := fresh()
	_ = Limit(tb, 9)
	tb.Rows = append(tb.Rows, tb.Rows[0])
	if tb.Image() != nil {
		t.Error("limit then append back to N: the table still offers its image")
	}
	// Renaming columns of the same types keeps it.
	tb = fresh()
	tb.Schema = MustSchema(Column{"a", Int}, Column{"b", Float}, Column{"c", Str}, Column{"d", Date})
	if tb.Image() == nil {
		t.Error("renaming columns dropped the image")
	}
}
