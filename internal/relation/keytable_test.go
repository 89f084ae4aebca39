package relation

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randKeyCell draws a cell of type typ from a small domain, so keys repeat
// and Int and Float cells coincide (−0.0 among them).
func randKeyCell(rng *rand.Rand, typ Type) Value {
	switch typ {
	case Int:
		return IntVal(int64(rng.Intn(5)))
	case Float:
		switch rng.Intn(4) {
		case 0:
			return FloatVal(math.Copysign(0, -1))
		case 1:
			return FloatVal(float64(rng.Intn(5)) + 0.5)
		default:
			return FloatVal(float64(rng.Intn(5)))
		}
	case Date:
		return DateVal(int64(rng.Intn(5)))
	default:
		return StrVal([]string{"", "a", "b", "ab", "\x00"}[rng.Intn(5)])
	}
}

// randKeyTable builds an n-row table with one column per type, then an
// Int id column numbering the rows.
func randKeyTable(rng *rand.Rand, name string, types []Type, n int) *Table {
	cols := make([]Column, 0, len(types)+1)
	for i, ty := range types {
		cols = append(cols, Column{Name: fmt.Sprintf("c%d", i), Type: ty})
	}
	t := NewTable(name, MustSchema(append(cols, Column{Name: "id", Type: Int})...))
	for i := 0; i < n; i++ {
		row := make(Row, 0, len(types)+1)
		for _, ty := range types {
			row = append(row, randKeyCell(rng, ty))
		}
		t.MustInsert(append(row, IntVal(int64(i))))
	}
	return t
}

// indirectRefs reads tb's key columns, one per type, through a row-id
// vector: tb's rows sit shuffled inside a larger columnar table, among
// rows nothing points at.
func indirectRefs(t *testing.T, rng *rand.Rand, tb *Table, types []Type) []ColRef {
	t.Helper()
	n := len(tb.Rows)
	base := randKeyTable(rng, "base", types, n+3)
	perm := rng.Perm(n + 3)
	rows := make([]int32, n)
	for i, r := range tb.Rows {
		base.Rows[perm[i]] = r
		rows[i] = int32(perm[i])
	}
	ct, err := Columnar(base)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]ColRef, len(types))
	for k := range refs {
		refs[k] = ColRef{V: &ct.Cols[k], Rows: rows}
	}
	return refs
}

// sameCell is exact equality, down to the sign of a zero.
func sameCell(a, b Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestJoinIndexMatchesHashJoin: over random tables with composite,
// duplicated keys of every type pairing (Int against Float matches
// numerically, Date against Int never), BuildJoinIndex plus Probe on the
// smaller side, with keys read through row ids, yields exactly
// HashJoinContext's rows in HashJoinContext's order.
func TestJoinIndexMatchesHashJoin(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	pairings := [][2]Type{{Int, Int}, {Int, Float}, {Float, Int}, {Float, Float}, {Date, Date}, {Date, Int}, {Str, Str}}
	mixedMatches, empty := 0, 0
	for trial := 0; trial < 600; trial++ {
		nk := 1 + rng.Intn(3)
		lt, rt := make([]Type, nk), make([]Type, nk)
		mixed := false
		for k := range lt {
			p := pairings[rng.Intn(len(pairings))]
			lt[k], rt[k] = p[0], p[1]
			mixed = mixed || p[0] != p[1]
		}
		l, r := randKeyTable(rng, "l", lt, rng.Intn(20)), randKeyTable(rng, "r", rt, rng.Intn(20))
		keys := make([]int, nk)
		for k := range keys {
			keys[k] = k
		}
		want, err := HashJoinContext(ctx, l, r, keys, keys)
		if err != nil {
			t.Fatal(err)
		}
		lrefs, rrefs := indirectRefs(t, rng, l, lt), indirectRefs(t, rng, r, rt)
		var lp, rp []int32
		if len(r.Rows) >= len(l.Rows) {
			idx, err := BuildJoinIndex(ctx, lrefs, len(l.Rows))
			if err != nil {
				t.Fatal(err)
			}
			lp, rp, err = idx.Probe(ctx, rrefs, len(r.Rows))
			if err != nil {
				t.Fatal(err)
			}
		} else {
			idx, err := BuildJoinIndex(ctx, rrefs, len(r.Rows))
			if err != nil {
				t.Fatal(err)
			}
			rp, lp, err = idx.Probe(ctx, lrefs, len(l.Rows))
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(lp) != len(want.Rows) || len(rp) != len(want.Rows) {
			t.Fatalf("trial %d (%v ⋈ %v): %d pairs, HashJoin has %d rows", trial, lt, rt, len(lp), len(want.Rows))
		}
		for i, row := range want.Rows {
			got := append(l.Rows[lp[i]].Clone(), r.Rows[rp[i]]...)
			for c := range row {
				if !sameCell(row[c], got[c]) {
					t.Fatalf("trial %d (%v ⋈ %v): pair %d is %v, HashJoin row is %v", trial, lt, rt, i, got, row)
				}
			}
		}
		if mixed && len(lp) > 0 {
			mixedMatches++
		}
		if len(l.Rows) == 0 || len(r.Rows) == 0 {
			empty++
		}
	}
	if mixedMatches == 0 || empty == 0 {
		t.Fatalf("the draw never matched across Int and Float (%d) or never had an empty side (%d)", mixedMatches, empty)
	}
}

// TestColAggregateMatchesAggregate: over random tables grouped by zero to
// two columns of any type, every aggregate of ColAggregateContext equals
// the row-major Aggregate's cell for cell, in the same group order.
func TestColAggregateMatchesAggregate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	all := []Type{Int, Float, Date, Str}
	for trial := 0; trial < 300; trial++ {
		ng := rng.Intn(3)
		types := make([]Type, 0, ng+len(all))
		groupBy := make([]int, ng)
		for g := range groupBy {
			types = append(types, all[rng.Intn(len(all))])
			groupBy[g] = g
		}
		types = append(types, all...)
		tb := randKeyTable(rng, "t", types, rng.Intn(40))
		aggs := []AggSpec{{Fn: Count, As: "n"}}
		for i, ty := range all {
			c := ng + i
			aggs = append(aggs,
				AggSpec{Fn: CountDistinct, Col: c, As: "d" + ty.String()},
				AggSpec{Fn: Min, Col: c, As: "lo" + ty.String()},
				AggSpec{Fn: Max, Col: c, As: "hi" + ty.String()})
			if ty == Int || ty == Float {
				aggs = append(aggs,
					AggSpec{Fn: Sum, Col: c, As: "s" + ty.String()},
					AggSpec{Fn: Avg, Col: c, As: "a" + ty.String()})
			}
		}
		want, err := Aggregate(tb, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Columnar(tb)
		if err != nil {
			t.Fatal(err)
		}
		gotCT, err := ColAggregateContext(ctx, ct, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		got := gotCT.ToTable()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("trial %d (group by %v): %d groups, Aggregate has %d", trial, types[:ng], len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for c := range want.Rows[i] {
				if !sameCell(want.Rows[i][c], got.Rows[i][c]) || want.Schema.Cols[c] != got.Schema.Cols[c] {
					t.Fatalf("trial %d (group by %v): row %d %s is %v, Aggregate has %v",
						trial, types[:ng], i, want.Schema.Cols[c].Name, got.Rows[i][c], want.Rows[i][c])
				}
			}
		}
	}
}
