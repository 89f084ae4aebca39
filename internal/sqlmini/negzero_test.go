package sqlmini

import (
	"math"
	"testing"

	"ivdss/internal/relation"
)

// TestNegativeZeroIsOneKey: = says −0.0 equals +0.0, so an equijoin, a
// GROUP BY, COUNT(DISTINCT) and DISTINCT must treat them as one key in
// both engines, agreeing with the range form of the same join.
func TestNegativeZeroIsOneKey(t *testing.T) {
	col := func(name string) relation.Schema {
		return relation.MustSchema(relation.Column{Name: name, Type: relation.Float})
	}
	a, b := relation.NewTable("a", col("x")), relation.NewTable("b", col("y"))
	a.MustInsert(relation.Row{relation.FloatVal(0)})
	b.MustInsert(relation.Row{relation.FloatVal(math.Copysign(0, -1))})
	b.MustInsert(relation.Row{relation.FloatVal(0)})
	cat := MapCatalog{"a": a, "b": b}

	for _, c := range []struct {
		q    string
		want []int64 // the single column of each output row
	}{
		{"SELECT count(*) FROM a, b WHERE a.x <= b.y AND a.x >= b.y", []int64{2}},
		{"SELECT count(*) FROM a, b WHERE a.x = b.y", []int64{2}},
		{"SELECT count(*) FROM b, a WHERE b.y = a.x", []int64{2}},
		{"SELECT count(*) FROM b GROUP BY y", []int64{2}},
		{"SELECT count(DISTINCT y) FROM b", []int64{1}},
	} {
		tree, vm, treeErr, vmErr := execBoth(t, cat, c.q)
		if treeErr != nil || vmErr != nil {
			t.Fatalf("%q: tree %v, vm %v", c.q, treeErr, vmErr)
		}
		requireSameTable(t, c.q, tree, vm)
		if len(tree.Rows) != len(c.want) {
			t.Fatalf("%q: %d rows, want %d", c.q, len(tree.Rows), len(c.want))
		}
		for i, w := range c.want {
			if got := tree.Rows[i][0]; got != relation.IntVal(w) {
				t.Errorf("%q: row %d is %v, want %d", c.q, i, got, w)
			}
		}
	}
	tree, vm, treeErr, vmErr := execBoth(t, cat, "SELECT DISTINCT y FROM b")
	if treeErr != nil || vmErr != nil {
		t.Fatalf("DISTINCT: tree %v, vm %v", treeErr, vmErr)
	}
	requireSameTable(t, "SELECT DISTINCT y FROM b", tree, vm)
	if len(tree.Rows) != 1 {
		t.Errorf("SELECT DISTINCT y FROM b: %d rows, want 1", len(tree.Rows))
	}
}
