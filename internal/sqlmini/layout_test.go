package sqlmini

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ivdss/internal/relation"
)

// layoutBase is a one-table schema with a column of every type.
func layoutBase() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "o_id", Type: relation.Int},
		relation.Column{Name: "o_cust", Type: relation.Int},
		relation.Column{Name: "o_total", Type: relation.Float},
		relation.Column{Name: "o_date", Type: relation.Date},
		relation.Column{Name: "o_status", Type: relation.Str},
	)
}

// requireIdentical is requireSameTable with no numeric coercion: each cell
// must have the same type and the same bits.
func requireIdentical(t *testing.T, label string, want, got *relation.Table) {
	t.Helper()
	requireSameTable(t, label, want, got)
	for i := range want.Rows {
		for j, w := range want.Rows[i] {
			g := got.Rows[i][j]
			if w.T != g.T || w.I != g.I || w.S != g.S || math.Float64bits(w.F) != math.Float64bits(g.F) {
				t.Fatalf("%s: row %d col %d: %#v vs %#v", label, i, j, w, g)
			}
		}
	}
}

// TestThreeEnginesShareOneLayout runs grouping shapes no other
// differential covers through the tree walk, the VM and a view program
// fed the same rows in random chunks. After every chunk all three must
// answer byte-identically over the rows so far: they share one derived-row
// layout, one grouped schema and one output layout.
func TestThreeEnginesShareOneLayout(t *testing.T) {
	queries := []string{
		// GROUP BY an expression, named by its rendering.
		"SELECT o_cust + 1, count(*), sum(o_total) FROM orders GROUP BY o_cust + 1",
		// Aggregates over expressions.
		"SELECT o_status, sum(o_total * 2), avg(o_total - o_cust), max(o_cust * o_id) FROM orders GROUP BY o_status",
		// ORDER BY an aggregate that is not in SELECT: a hidden sort key.
		"SELECT o_cust FROM orders GROUP BY o_cust ORDER BY sum(o_total) DESC, o_cust",
		// The same aggregate twice: one derived column, two outputs.
		"SELECT count(DISTINCT o_status), count(DISTINCT o_status) FROM orders",
		// Global MIN/MAX on Date and Str over an always-empty input.
		"SELECT min(o_date), max(o_date), min(o_status), max(o_status), count(*) FROM orders WHERE o_total < 0",
	}
	ctx := context.Background()
	statuses := []string{"F", "O", "P", ""}
	for qi, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rng := rand.New(rand.NewSource(int64(qi)))
		for trial := 0; trial < 20; trial++ {
			prog, err := CompileView(stmt, layoutBase())
			if err != nil {
				t.Fatalf("%q: CompileView: %v", q, err)
			}
			rows := make([]relation.Row, rng.Intn(30))
			for i := range rows {
				rows[i] = relation.Row{
					relation.IntVal(int64(i)),
					relation.IntVal(int64(rng.Intn(4))),
					relation.FloatVal(float64(rng.Intn(400)) / 8),
					relation.DateVal(int64(rng.Intn(5))),
					relation.StrVal(statuses[rng.Intn(len(statuses))]),
				}
			}
			for n := 0; ; {
				label := fmt.Sprintf("%s [trial %d, %d rows]", q, trial, n)
				cat := MapCatalog{"orders": &relation.Table{Name: "orders", Schema: layoutBase(), Rows: rows[:n]}}
				tree, err := ExecuteWith(ctx, stmt, cat, Options{Engine: EngineTreeWalk})
				if err != nil {
					t.Fatalf("%s: tree walk: %v", label, err)
				}
				vm, err := ExecuteWith(ctx, stmt, cat, Options{Engine: EngineVM})
				if err != nil {
					t.Fatalf("%s: VM: %v", label, err)
				}
				view, err := prog.Result(ctx)
				if err != nil {
					t.Fatalf("%s: view: %v", label, err)
				}
				requireIdentical(t, label+" VM", tree, vm)
				requireIdentical(t, label+" view", tree, view)
				if n == len(rows) {
					break
				}
				chunk := min(1+rng.Intn(7), len(rows)-n)
				if err := prog.Apply(ctx, rows[n:n+chunk]); err != nil {
					t.Fatalf("%s: Apply: %v", label, err)
				}
				n += chunk
			}
		}
	}

	// What the layout decides, pinned by name and type.
	cat := MapCatalog{"orders": relation.NewTable("orders", layoutBase())}
	dup := runQuery(t, cat, queries[3])
	if got := dup.Schema.Cols[1].Name; got != dup.Schema.Cols[0].Name+"_1" {
		t.Errorf("repeated aggregate's output is named %q, want %q", got, dup.Schema.Cols[0].Name+"_1")
	}
	empty := runQuery(t, cat, queries[4])
	want := []relation.Type{relation.Date, relation.Date, relation.Str, relation.Str, relation.Int}
	if len(empty.Rows) != 1 {
		t.Fatalf("global aggregate over no rows: %d rows, want 1", len(empty.Rows))
	}
	for i, c := range empty.Schema.Cols {
		if c.Type != want[i] || empty.Rows[0][i].T != want[i] {
			t.Errorf("global %s over no rows: column %v, cell %#v; want type %v", c.Name, c, empty.Rows[0][i], want[i])
		}
	}
}
