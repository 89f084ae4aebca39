package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAggregatorFoldsInChunks: folding a table's rows through one
// Aggregator in random-size chunks gives, after every chunk, exactly the
// table Aggregate gives over the prefix folded so far — the property an
// incremental view's exactness rests on. A table returned earlier must not
// change under later Adds (view results are copy-on-write), and Reset then
// one fold of every row must reach the full table again.
func TestAggregatorFoldsInChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		tb, groupBy, aggs := randAggCase(rng)
		label := fmt.Sprintf("trial %d (group by %v)", trial, tb.Schema.Cols[:len(groupBy)])
		acc, err := NewAggregator(tb.Schema, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		type snapshot struct{ got, want *Table }
		var earlier []snapshot
		for n := 0; ; {
			prefix := &Table{Name: tb.Name, Schema: tb.Schema, Rows: tb.Rows[:n]}
			want, err := Aggregate(prefix, groupBy, aggs)
			if err != nil {
				t.Fatal(err)
			}
			got := acc.Table(tb.Name)
			requireSameAggregate(t, fmt.Sprintf("%s after %d rows", label, n), want, got)
			earlier = append(earlier, snapshot{got: got, want: want})
			if n == len(tb.Rows) {
				break
			}
			chunk := min(1+rng.Intn(8), len(tb.Rows)-n)
			for _, r := range tb.Rows[n : n+chunk] {
				if err := acc.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			n += chunk
		}
		for i, s := range earlier {
			requireSameAggregate(t, fmt.Sprintf("%s: table %d after later Adds", label, i), s.want, s.got)
		}

		full := earlier[len(earlier)-1].want
		acc.Reset()
		for _, r := range tb.Rows {
			if err := acc.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		requireSameAggregate(t, label+" after Reset", full, acc.Table(tb.Name))
	}
}

// TestAggSchemaTypes pins the one output-type rule every engine takes
// from AggSchema: group columns as they are, COUNT (whose column is never
// read) and COUNT DISTINCT Int, MIN and MAX their input's type, SUM and
// AVG Float.
func TestAggSchemaTypes(t *testing.T) {
	in := MustSchema(Column{Name: "a", Type: Int}, Column{Name: "b", Type: Str}, Column{Name: "d", Type: Date})
	got, err := AggSchema(in, []int{1}, []AggSpec{
		{Fn: Count, Col: 9, As: "n"}, {Fn: CountDistinct, Col: 1, As: "k"}, {Fn: Max, Col: 1, As: "m"},
		{Fn: Min, Col: 2, As: "lo"}, {Fn: Sum, Col: 0, As: "s"}, {Fn: Avg, Col: 0, As: "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Column{{"b", Str}, {"n", Int}, {"k", Int}, {"m", Str}, {"lo", Date}, {"s", Float}, {"v", Float}}
	if fmt.Sprint(got.Cols) != fmt.Sprint(want) {
		t.Errorf("AggSchema = %v, want %v", got.Cols, want)
	}
}
