package relation

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndString(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		want string
	}{
		{"int", IntVal(42), "42"},
		{"float", FloatVal(1.5), "1.5000"},
		{"string", StrVal("hi"), "hi"},
		{"date", DateOf(1996, time.March, 13), "1996-03-13"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1998-12-01")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1998-12-01" {
		t.Errorf("round trip = %q", v.String())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("bad date accepted")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Value
		want    int
		wantErr bool
	}{
		{"int lt", IntVal(1), IntVal(2), -1, false},
		{"int eq", IntVal(2), IntVal(2), 0, false},
		{"int float mix", IntVal(2), FloatVal(1.5), 1, false},
		{"float int equal", FloatVal(3), IntVal(3), 0, false},
		{"strings", StrVal("a"), StrVal("b"), -1, false},
		{"dates", DateOf(2020, 1, 2), DateOf(2020, 1, 1), 1, false},
		{"string vs int", StrVal("1"), IntVal(1), 0, true},
		{"date vs int", DateOf(2020, 1, 1), IntVal(5), 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Compare(tt.a, tt.b)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if !tt.wantErr && got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEqual(t *testing.T) {
	if !Equal(IntVal(3), FloatVal(3)) {
		t.Error("3 != 3.0")
	}
	if Equal(StrVal("x"), IntVal(0)) {
		t.Error("incompatible types reported equal")
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Type: Int}, Column{Name: "A", Type: Str}); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	if _, err := NewSchema(Column{Name: "", Type: Int}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: Type(99)}); err == nil {
		t.Error("invalid type accepted")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := MustSchema(Column{"id", Int}, Column{"Name", Str})
	if s.ColIndex("name") != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("missing column not -1")
	}
	if s.String() != "id int, Name string" {
		t.Errorf("String = %q", s.String())
	}
}

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("orders", MustSchema(
		Column{"id", Int}, Column{"cust", Int}, Column{"total", Float},
	))
	rows := []Row{
		{IntVal(1), IntVal(10), FloatVal(100)},
		{IntVal(2), IntVal(20), FloatVal(50)},
		{IntVal(3), IntVal(10), FloatVal(75)},
		{IntVal(4), IntVal(30), FloatVal(25)},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestInsertValidation(t *testing.T) {
	tbl := NewTable("t", MustSchema(Column{"a", Int}))
	if err := tbl.Insert(Row{IntVal(1), IntVal(2)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.Insert(Row{StrVal("x")}); err == nil {
		t.Error("wrong type accepted")
	}
	if err := tbl.Insert(Row{IntVal(1)}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

func TestTableClone(t *testing.T) {
	tbl := testTable(t)
	snap := tbl.Clone()
	tbl.Rows[0][2] = FloatVal(999)
	tbl.MustInsert(Row{IntVal(5), IntVal(1), FloatVal(1)})
	if snap.NumRows() != 4 {
		t.Errorf("clone grew with original: %d rows", snap.NumRows())
	}
	if snap.Rows[0][2].F != 100 {
		t.Error("clone shares row storage with original")
	}
}

func TestSizeBytes(t *testing.T) {
	tbl := NewTable("t", MustSchema(Column{"a", Int}, Column{"s", Str}))
	tbl.MustInsert(Row{IntVal(1), StrVal("abcd")})
	if got := tbl.SizeBytes(); got != 12 {
		t.Errorf("SizeBytes = %d, want 12", got)
	}
}

func TestFilter(t *testing.T) {
	tbl := testTable(t)
	out := Filter(tbl, func(r Row) bool { return r[1].I == 10 })
	if out.NumRows() != 2 {
		t.Errorf("filtered rows = %d, want 2", out.NumRows())
	}
}

func TestProject(t *testing.T) {
	tbl := testTable(t)
	out, err := Project(tbl, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Cols[0].Name != "total" || out.Schema.Cols[1].Name != "id" {
		t.Errorf("projected schema = %v", out.Schema)
	}
	if out.Rows[0][0].F != 100 || out.Rows[0][1].I != 1 {
		t.Errorf("projected row = %v", out.Rows[0])
	}
	if _, err := Project(tbl, []int{9}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestHashJoin(t *testing.T) {
	orders := testTable(t)
	custs := NewTable("cust", MustSchema(Column{"cid", Int}, Column{"cname", Str}))
	custs.MustInsert(Row{IntVal(10), StrVal("alice")})
	custs.MustInsert(Row{IntVal(20), StrVal("bob")})

	out, err := HashJoin(orders, custs, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Orders with cust 30 have no match; 10 matches twice, 20 once.
	if out.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3", out.NumRows())
	}
	if out.Schema.Arity() != 5 {
		t.Errorf("join arity = %d, want 5", out.Schema.Arity())
	}
	for _, r := range out.Rows {
		if r[1].I != r[3].I {
			t.Errorf("join key mismatch in row %v", r)
		}
	}
}

func TestHashJoinBuildSideSwap(t *testing.T) {
	// The probe side is larger: column order must still be left-then-right.
	small := NewTable("s", MustSchema(Column{"k", Int}))
	small.MustInsert(Row{IntVal(10)})
	big := testTable(t)
	out, err := HashJoin(big, small, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
	if out.Schema.Cols[0].Name != "id" || out.Schema.Cols[3].Name != "k" {
		t.Errorf("column order wrong after build-side swap: %v", out.Schema)
	}
}

func TestHashJoinErrors(t *testing.T) {
	a := testTable(t)
	if _, err := HashJoin(a, a, nil, nil); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := HashJoin(a, a, []int{0}, []int{99}); err == nil {
		t.Error("out-of-range key accepted")
	}
	if _, err := HashJoin(a, a, []int{0, 1}, []int{0}); err == nil {
		t.Error("mismatched key lengths accepted")
	}
}

func TestAggregateGrouped(t *testing.T) {
	tbl := testTable(t)
	out, err := Aggregate(tbl, []int{1}, []AggSpec{
		{Fn: Sum, Col: 2, As: "revenue"},
		{Fn: Count, Col: -1, As: "n"},
		{Fn: Avg, Col: 2, As: "avg_total"},
		{Fn: Max, Col: 2, As: "max_total"},
		{Fn: Min, Col: 0, As: "min_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	// First-seen group order: cust 10 first.
	r := out.Rows[0]
	if r[0].I != 10 || r[1].F != 175 || r[2].I != 2 || r[3].F != 87.5 || r[4].F != 100 || r[5].I != 1 {
		t.Errorf("group row = %v", r)
	}
}

func TestAggregateGlobalEmptyInput(t *testing.T) {
	tbl := NewTable("t", MustSchema(Column{"a", Float}))
	out, err := Aggregate(tbl, nil, []AggSpec{
		{Fn: Count, Col: -1, As: "n"},
		{Fn: Sum, Col: 0, As: "s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", out.NumRows())
	}
	if out.Rows[0][0].I != 0 || out.Rows[0][1].F != 0 {
		t.Errorf("empty aggregate = %v", out.Rows[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	tbl := NewTable("t", MustSchema(Column{"s", Str}))
	tbl.MustInsert(Row{StrVal("x")})
	if _, err := Aggregate(tbl, nil, []AggSpec{{Fn: Sum, Col: 0, As: "s"}}); err == nil {
		t.Error("sum over strings accepted")
	}
	if _, err := Aggregate(tbl, []int{5}, nil); err == nil {
		t.Error("out-of-range group column accepted")
	}
	if _, err := Aggregate(tbl, nil, []AggSpec{{Fn: Sum, Col: 9, As: "s"}}); err == nil {
		t.Error("out-of-range aggregate column accepted")
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	tbl := NewTable("t", MustSchema(Column{"s", Str}))
	for _, s := range []string{"pear", "apple", "zebra"} {
		tbl.MustInsert(Row{StrVal(s)})
	}
	out, err := Aggregate(tbl, nil, []AggSpec{
		{Fn: Min, Col: 0, As: "lo"},
		{Fn: Max, Col: 0, As: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].S != "apple" || out.Rows[0][1].S != "zebra" {
		t.Errorf("min/max = %v", out.Rows[0])
	}
}

func TestSort(t *testing.T) {
	tbl := testTable(t)
	if err := Sort(tbl, []SortKey{{Col: 2, Desc: true}}); err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 75, 50, 25}
	for i, w := range want {
		if tbl.Rows[i][2].F != w {
			t.Fatalf("sorted totals = %v...", tbl.Rows[i][2].F)
		}
	}
	if err := Sort(tbl, []SortKey{{Col: 9}}); err == nil {
		t.Error("out-of-range sort column accepted")
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	tbl := testTable(t)
	// Sort by cust asc, then total desc.
	if err := Sort(tbl, []SortKey{{Col: 1}, {Col: 2, Desc: true}}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][1].I != 10 || tbl.Rows[0][2].F != 100 {
		t.Errorf("first row = %v", tbl.Rows[0])
	}
	if tbl.Rows[1][1].I != 10 || tbl.Rows[1][2].F != 75 {
		t.Errorf("second row = %v", tbl.Rows[1])
	}
}

func TestLimit(t *testing.T) {
	tbl := testTable(t)
	if err := Limit(tbl, 2); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", tbl.NumRows())
	}
	if err := Limit(tbl, 100); err != nil || tbl.NumRows() != 2 {
		t.Error("limit beyond size should be a no-op")
	}
	if err := Limit(tbl, -1); err == nil {
		t.Error("negative limit accepted")
	}
}

// TestJoinCardinalityProperty: joining a table with itself on a unique key
// returns exactly the original cardinality.
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(keys []int64) bool {
		seen := make(map[int64]bool)
		tbl := NewTable("t", MustSchema(Column{"k", Int}))
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			tbl.MustInsert(Row{IntVal(k)})
		}
		out, err := HashJoin(tbl, tbl, []int{0}, []int{0})
		return err == nil && out.NumRows() == tbl.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAggregateSumProperty: the grand total equals the sum of per-group
// sums, for any grouping.
func TestAggregateSumProperty(t *testing.T) {
	f := func(pairs []struct {
		G uint8
		V int32
	}) bool {
		tbl := NewTable("t", MustSchema(Column{"g", Int}, Column{"v", Float}))
		var want float64
		for _, p := range pairs {
			tbl.MustInsert(Row{IntVal(int64(p.G)), FloatVal(float64(p.V))})
			want += float64(p.V)
		}
		out, err := Aggregate(tbl, []int{0}, []AggSpec{{Fn: Sum, Col: 1, As: "s"}})
		if err != nil {
			return false
		}
		var got float64
		for _, r := range out.Rows {
			got += r[1].F
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregateCountDistinct(t *testing.T) {
	tbl := testTable(t)
	out, err := Aggregate(tbl, nil, []AggSpec{
		{Fn: CountDistinct, Col: 1, As: "custs"},
		{Fn: Count, Col: -1, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].I != 3 || out.Rows[0][1].I != 4 {
		t.Errorf("row = %v", out.Rows[0])
	}
	if out.Schema.Cols[0].Type != Int {
		t.Errorf("count-distinct type = %v", out.Schema.Cols[0].Type)
	}
}

// TestJoinKeyNoBoundaryCollisions: crafted strings containing separator
// bytes must not collide across column boundaries.
func TestJoinKeyNoBoundaryCollisions(t *testing.T) {
	a := Row{StrVal("a\x00b"), StrVal("c")}
	b := Row{StrVal("a"), StrVal("b\x00c")}
	if RowKey(a, []int{0, 1}) == RowKey(b, []int{0, 1}) {
		t.Error("boundary collision between distinct rows")
	}
	// Length-prefix spoofing attempt.
	c := Row{StrVal("s\x00\x00\x00\x00\x00\x00\x00\x01x"), StrVal("")}
	d := Row{StrVal("s"), StrVal("x")}
	if RowKey(c, []int{0, 1}) == RowKey(d, []int{0, 1}) {
		t.Error("length-prefix collision")
	}
}

func TestRowKeyNumericEquivalence(t *testing.T) {
	if RowKey(Row{IntVal(3)}, []int{0}) != RowKey(Row{FloatVal(3)}, []int{0}) {
		t.Error("3 and 3.0 should share a key")
	}
	if RowKey(Row{IntVal(3)}, []int{0}) == RowKey(Row{DateVal(3)}, []int{0}) {
		t.Error("int and date keys must differ")
	}
}

// TestJoinGroupKeyProperty: rows group together iff their key columns are
// pairwise Equal.
func TestJoinGroupKeyProperty(t *testing.T) {
	f := func(aInt int64, aStr string, bInt int64, bStr string) bool {
		a := Row{IntVal(aInt), StrVal(aStr)}
		b := Row{IntVal(bInt), StrVal(bStr)}
		same := aInt == bInt && aStr == bStr
		return (RowKey(a, []int{0, 1}) == RowKey(b, []int{0, 1})) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
