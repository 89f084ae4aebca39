package relation

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// numerically, Date against Int never), BuildJoinIndex over the right
// input plus Probe with the left, keys read through row ids, yields
// HashJoinContext's rows pair for pair, in its left-major order. So does
// the other build side: an index over the left probed with the right by
// ProbeBuildMajor.
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
		ridx, err := BuildJoinIndex(ctx, rrefs, len(r.Rows))
		if err != nil {
			t.Fatal(err)
		}
		rp, lp, err := ridx.Probe(ctx, lrefs, len(l.Rows), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		lidx, err := BuildJoinIndex(ctx, lrefs, len(l.Rows))
		if err != nil {
			t.Fatal(err)
		}
		lp2, rp2, err := lidx.ProbeBuildMajor(ctx, rrefs, len(r.Rows), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for side, pairs := range [][2][]int32{{lp, rp}, {lp2, rp2}} {
			lp, rp := pairs[0], pairs[1]
			if len(lp) != len(want.Rows) || len(rp) != len(want.Rows) {
				t.Fatalf("trial %d (%v ⋈ %v), build %s: %d pairs, HashJoin has %d rows", trial, lt, rt, []string{"right", "left"}[side], len(lp), len(want.Rows))
			}
			for i, row := range want.Rows {
				got := append(l.Rows[lp[i]].Clone(), r.Rows[rp[i]]...)
				for c := range row {
					if !sameCell(row[c], got[c]) {
						t.Fatalf("trial %d (%v ⋈ %v), build %s: pair %d is %v, HashJoin row is %v", trial, lt, rt, []string{"right", "left"}[side], i, got, row)
					}
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

// TestProbeReservationLinear: a join of two disjoint low-cardinality key
// domains (3 build keys, 2 probe keys, 6,000 rows a side) matches nothing,
// and Probe and ProbeBuildMajor allocate O(n + N) bytes for it, not the
// n × N/3 pairs a mean-chain-length reservation alone would reserve.
func TestProbeReservationLinear(t *testing.T) {
	ctx := context.Background()
	const n = 6000
	keyed := func(domain ...string) []ColRef {
		tb := NewTable("t", MustSchema(Column{Name: "k", Type: Str}))
		for i := 0; i < n; i++ {
			tb.MustInsert(Row{StrVal(domain[i%len(domain)])})
		}
		ct, err := Columnar(tb)
		if err != nil {
			t.Fatal(err)
		}
		return ct.Refs([]int{0})
	}
	build, probe := keyed("R", "A", "N"), keyed("O", "F")
	idx, err := BuildJoinIndex(ctx, build, n)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(16 * (n + n))
	for _, run := range []struct {
		name  string
		probe func(context.Context, []ColRef, int, []int32, []int32) ([]int32, []int32, error)
	}{{"Probe", idx.Probe}, {"ProbeBuildMajor", idx.ProbeBuildMajor}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, p, err := run.probe(ctx, probe, n, nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 0 || len(p) != 0 {
			t.Fatalf("%s: %d pairs across disjoint key domains", run.name, len(b))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s allocated %d bytes for a join matching nothing, over the linear bound %d", run.name, got, limit)
		}
	}
}

// TestProbeFillsCallerBuffers: handed destinations, Probe,
// ProbeBuildMajor and CrossPairs return the pairs they return for nil
// ones, in the caller's arrays when those have room, so a unique-key probe
// into PairCap-sized buffers allocates nothing. A destination with too
// little room is replaced, never written.
func TestProbeFillsCallerBuffers(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	l, err := Columnar(randKeyTable(rng, "l", []Type{Int}, 30))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Columnar(randKeyTable(rng, "r", []Type{Int}, 20))
	if err != nil {
		t.Fatal(err)
	}
	for key, name := range []string{"repeated keys", "unique ids"} {
		lk := l.Refs([]int{key})
		idx, err := BuildJoinIndex(ctx, r.Refs([]int{key}), r.N)
		if err != nil {
			t.Fatal(err)
		}
		size := idx.PairCap(l.N)
		bb, pb := make([]int32, size), make([]int32, size)
		for _, run := range []struct {
			name  string
			probe func(context.Context, []ColRef, int, []int32, []int32) ([]int32, []int32, error)
		}{{"Probe", idx.Probe}, {"ProbeBuildMajor", idx.ProbeBuildMajor}} {
			wb, wp, err := run.probe(ctx, lk, l.N, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			gb, gp, err := run.probe(ctx, lk, l.N, bb, pb)
			if err != nil {
				t.Fatal(err)
			}
			if len(wb) == 0 || !slices.Equal(gb, wb) || !slices.Equal(gp, wp) {
				t.Fatalf("%s, %s: pairs into caller buffers %v %v, into nil %v %v", name, run.name, gb, gp, wb, wp)
			}
		}
		short := []int32{-7}
		if gb, _, err := idx.Probe(ctx, lk, l.N, short[:0], nil); err != nil || short[0] != -7 || cap(gb) < size {
			t.Fatalf("%s: a one-slot destination was written (%d) or not replaced by PairCap %d (cap %d, err %v)", name, short[0], size, cap(gb), err)
		}
		if key == 1 {
			allocs := testing.AllocsPerRun(5, func() {
				gb, _, err := idx.Probe(ctx, lk, l.N, bb, pb)
				if err != nil || &gb[0] != &bb[0] {
					t.Fatalf("unique-key probe left the caller's buffer (err %v)", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("unique-key probe into PairCap buffers allocates %v objects", allocs)
			}
		}
	}
	wl, wr, err := CrossPairs(ctx, 3, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb, rb := make([]int32, 12), make([]int32, 12)
	allocs := testing.AllocsPerRun(5, func() {
		gl, gr, err := CrossPairs(ctx, 3, 4, lb, rb)
		if err != nil || &gl[0] != &lb[0] || !slices.Equal(gl, wl) || !slices.Equal(gr, wr) {
			t.Fatalf("cross pairs into caller buffers %v %v, into nil %v %v (err %v)", gl, gr, wl, wr, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cross pairs into buffers of room allocate %v objects", allocs)
	}
}

// randAggCase draws a table of up to 40 rows grouped by zero to two
// columns of any type, with every aggregate over every type it applies
// to: COUNT, then COUNT DISTINCT, MIN and MAX of each type, and SUM and
// AVG of the numeric ones.
func randAggCase(rng *rand.Rand) (tb *Table, groupBy []int, aggs []AggSpec) {
	all := []Type{Int, Float, Date, Str}
	ng := rng.Intn(3)
	types := make([]Type, 0, ng+len(all))
	groupBy = make([]int, ng)
	for g := range groupBy {
		types = append(types, all[rng.Intn(len(all))])
		groupBy[g] = g
	}
	types = append(types, all...)
	tb = randKeyTable(rng, "t", types, rng.Intn(40))
	aggs = []AggSpec{{Fn: Count, As: "n"}}
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
	return tb, groupBy, aggs
}

// TestColAggregateMatchesAggregate: over random tables grouped by zero to
// two columns of any type, every aggregate of ColAggregateContext equals
// the row-major Aggregate's cell for cell, in the same group order.
func TestColAggregateMatchesAggregate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		tb, groupBy, aggs := randAggCase(rng)
		want, err := Aggregate(tb, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Columnar(tb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ColAggregateContext(ctx, ct, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAggregate(t, fmt.Sprintf("trial %d (group by %v)", trial, tb.Schema.Cols[:len(groupBy)]), want, got.ToTable())
	}
}

// requireSameAggregate demands got equal want cell for cell, down to the
// sign of a zero, with the same schema and group order.
func requireSameAggregate(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d groups, Aggregate has %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if !sameCell(want.Rows[i][c], got.Rows[i][c]) || want.Schema.Cols[c] != got.Schema.Cols[c] {
				t.Fatalf("%s: row %d %s is %v, Aggregate has %v",
					label, i, want.Schema.Cols[c].Name, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
}
