package sqlmini

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ivdss/internal/relation"
)

func viewBaseSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "o_id", Type: relation.Int},
		relation.Column{Name: "o_region", Type: relation.Str},
		relation.Column{Name: "o_amount", Type: relation.Float},
		relation.Column{Name: "o_qty", Type: relation.Int},
	)
}

func randomOrderRow(rng *rand.Rand, id int64) relation.Row {
	regions := []string{"east", "west", "north", "south"}
	return relation.Row{
		relation.IntVal(id),
		relation.StrVal(regions[rng.Intn(len(regions))]),
		relation.FloatVal(float64(rng.Intn(2000)) / 20),
		relation.IntVal(int64(rng.Intn(10))),
	}
}

// wireSQL renders the remote-side shipping query ViewWire describes, the
// same statement the sync layer sends to the base site.
func wireSQL(table, filter string, columns []string) string {
	return WireSQL(table, filter, columns)
}

// TestViewMaintainable pins the maintainability frontier: single-table
// statements compile, joins and multi-table FROMs are rejected.
func TestViewMaintainable(t *testing.T) {
	ok := []string{
		"SELECT o_region, sum(o_amount) FROM orders GROUP BY o_region",
		"SELECT * FROM orders WHERE o_qty > 3",
		"SELECT count(*) FROM orders",
	}
	for _, q := range ok {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if err := ViewMaintainable(stmt); err != nil {
			t.Errorf("%q: want maintainable, got %v", q, err)
		}
	}
	bad := []string{
		"SELECT c_name, o_total FROM customers, orders WHERE c_id = o_cust",
		"SELECT c_name FROM customers JOIN orders ON c_id = o_cust",
	}
	for _, q := range bad {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if err := ViewMaintainable(stmt); err == nil {
			t.Errorf("%q: want not-maintainable error, got nil", q)
		}
	}
}

// TestViewWire checks the shipping spec: filter rendered in bare names,
// referenced columns in first-appearance order, nil columns when the view
// selects * (or reads no column by name, and the wire must still carry row
// existence).
func TestViewWire(t *testing.T) {
	cases := []struct {
		q       string
		table   string
		filter  string
		columns []string
	}{
		{
			q:       "SELECT o_region, sum(o_amount) FROM orders WHERE o_qty > 2 GROUP BY o_region",
			table:   "orders",
			filter:  "(o_qty > 2)",
			columns: []string{"o_region", "o_amount", "o_qty"},
		},
		{
			q:       "SELECT o.o_id FROM orders AS o WHERE o.o_region = 'east'",
			table:   "orders",
			filter:  "(o_id = o_id)", // placeholder; replaced below
			columns: []string{"o_id", "o_region"},
		},
		{
			q:       "SELECT * FROM orders WHERE o_qty > 1",
			table:   "orders",
			filter:  "(o_qty > 1)",
			columns: nil,
		},
		{
			q:       "SELECT count(*) FROM orders",
			table:   "orders",
			filter:  "",
			columns: nil,
		},
	}
	cases[1].filter = "(o_region = 'east')"
	for _, tc := range cases {
		stmt, err := Parse(tc.q)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		table, filter, columns, err := ViewWire(stmt)
		if err != nil {
			t.Fatalf("%q: ViewWire: %v", tc.q, err)
		}
		if table != tc.table || filter != tc.filter {
			t.Errorf("%q: got (%q, %q), want (%q, %q)", tc.q, table, filter, tc.table, tc.filter)
		}
		if fmt.Sprint(columns) != fmt.Sprint(tc.columns) {
			t.Errorf("%q: columns %v, want %v", tc.q, columns, tc.columns)
		}
	}

	stmt, err := Parse("SELECT x.o_id FROM orders AS o")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ViewWire(stmt); err == nil {
		t.Error("foreign qualifier: want error, got nil")
	}
}

// TestViewProgramDifferential is the delta-vs-recompute oracle: random
// append-only delta batches flow through the full wire path (remote filter
// + projection via the rendered shipping SQL, then ViewProgram.Apply), and
// after every batch the program's Result must be byte-identical to
// executing the view query from scratch over the whole base table.
// Periodic Reset + full-history replay pins the snapshot recovery path to
// the same answer.
func TestViewProgramDifferential(t *testing.T) {
	queries := []string{
		"SELECT o_region, sum(o_amount), count(*) FROM orders WHERE o_qty > 2 GROUP BY o_region",
		"SELECT o_region, avg(o_amount) AS avg_amt, min(o_qty), max(o_amount) FROM orders GROUP BY o_region HAVING count(*) > 1 ORDER BY avg_amt DESC, o_region",
		"SELECT count(DISTINCT o_region), sum(o_qty) FROM orders WHERE o_amount BETWEEN 5 AND 50",
		"SELECT count(*) FROM orders WHERE o_region = 'east'",
		"SELECT * FROM orders WHERE o_region IN ('east', 'west') ORDER BY o_id LIMIT 10",
		"SELECT o.o_id, o.o_amount FROM orders AS o WHERE o.o_region = 'east' AND o.o_qty >= 1",
		"SELECT DISTINCT o_region FROM orders WHERE o_qty > 0 ORDER BY o_region",
		"SELECT o_region, count(*) AS n FROM orders GROUP BY o_region ORDER BY n DESC, o_region LIMIT 3",
	}
	ctx := context.Background()
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(1000 + qi)))
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		table, filter, columns, err := ViewWire(stmt)
		if err != nil {
			t.Fatalf("%q: ViewWire: %v", q, err)
		}
		ship := wireSQL(table, filter, columns)

		// The shipped schema is whatever the shipping query produces — run
		// it once over an empty base to capture it, as the sync layer does
		// from the snapshot response.
		empty := relation.NewTable(table, viewBaseSchema())
		probe, err := Run(ship, MapCatalog{table: empty})
		if err != nil {
			t.Fatalf("%q: shipping query %q: %v", q, ship, err)
		}
		prog, err := CompileView(stmt, probe.Schema)
		if err != nil {
			t.Fatalf("%q: CompileView: %v", q, err)
		}

		base := relation.NewTable(table, viewBaseSchema())
		var history []relation.Row
		nextID := int64(0)
		for round := 0; round < 24; round++ {
			delta := relation.NewTable(table, viewBaseSchema())
			for i := 0; i < rng.Intn(5); i++ {
				row := randomOrderRow(rng, nextID)
				nextID++
				base.MustInsert(row)
				delta.MustInsert(row)
			}
			batch, err := Run(ship, MapCatalog{table: delta})
			if err != nil {
				t.Fatalf("%q: ship batch: %v", q, err)
			}
			if err := prog.Apply(ctx, batch.Rows); err != nil {
				t.Fatalf("%q round %d: Apply: %v", q, round, err)
			}
			history = append(history, batch.Rows...)
			if round%6 == 5 {
				prog.Reset()
				if err := prog.Apply(ctx, history); err != nil {
					t.Fatalf("%q round %d: replay after Reset: %v", q, round, err)
				}
			}

			got, err := prog.Result(ctx)
			if err != nil {
				t.Fatalf("%q round %d: Result: %v", q, round, err)
			}
			oracle, err := ExecuteContext(ctx, stmt, MapCatalog{table: base})
			if err != nil {
				t.Fatalf("%q round %d: oracle: %v", q, round, err)
			}
			requireSameTable(t, fmt.Sprintf("%s [round %d]", q, round), oracle, got)
		}
		if prog.Folded() == 0 {
			t.Errorf("%q: no rows folded across all rounds; differential vacuous", q)
		}
	}
}

// TestViewProgramUnfilteredInput feeds the program raw, unfiltered base
// rows: the local WHERE re-application must reach the same answer, which
// is what makes remote filtering a pure byte optimization.
func TestViewProgramUnfilteredInput(t *testing.T) {
	ctx := context.Background()
	q := "SELECT o_region, sum(o_amount) AS total FROM orders WHERE o_qty > 4 GROUP BY o_region ORDER BY o_region"
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	base := relation.NewTable("orders", viewBaseSchema())
	for i := 0; i < 40; i++ {
		base.MustInsert(randomOrderRow(rng, int64(i)))
	}

	// Full base schema shipped, no remote filter at all.
	prog, err := CompileView(stmt, viewBaseSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Apply(ctx, base.Rows); err != nil {
		t.Fatal(err)
	}
	got, err := prog.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ExecuteContext(ctx, stmt, MapCatalog{"orders": base})
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, q, oracle, got)
}

// TestViewApplyIsAllOrNothing feeds a delta whose last row fails
// evaluation, in the derived row, in the WHERE and in a detail view: Apply
// must return the error and leave Result and Folded as they were, so a
// retry of the same delta does not fold its earlier rows twice.
func TestViewApplyIsAllOrNothing(t *testing.T) {
	queries := []string{
		"SELECT o_region, count(*), sum(10 / o_qty) FROM orders GROUP BY o_region",
		"SELECT o_region, count(*), sum(o_amount) FROM orders WHERE 10 / o_qty > 1 GROUP BY o_region",
		"SELECT o_id, o_amount FROM orders WHERE 10 / o_qty > 1",
	}
	row := func(id int64, qty int64) relation.Row {
		return relation.Row{relation.IntVal(id), relation.StrVal("east"), relation.FloatVal(2.5), relation.IntVal(qty)}
	}
	ctx := context.Background()
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		prog, err := CompileView(stmt, viewBaseSchema())
		if err != nil {
			t.Fatalf("%q: CompileView: %v", q, err)
		}
		if err := prog.Apply(ctx, []relation.Row{row(0, 2)}); err != nil {
			t.Fatalf("%q: first Apply: %v", q, err)
		}
		before, err := prog.Result(ctx)
		if err != nil {
			t.Fatalf("%q: Result: %v", q, err)
		}
		folded := prog.Folded()

		bad := []relation.Row{row(1, 2), row(2, 5), row(3, 0)}
		if err := prog.Apply(ctx, bad); err == nil {
			t.Fatalf("%q: Apply of a delta ending in o_qty = 0 succeeded", q)
		}
		after, err := prog.Result(ctx)
		if err != nil {
			t.Fatalf("%q: Result after a failed Apply: %v", q, err)
		}
		requireIdentical(t, q+" after a failed Apply", before, after)
		if prog.Folded() != folded {
			t.Errorf("%q: Folded %d after a failed Apply, want %d", q, prog.Folded(), folded)
		}

		// The state is still the rows before the failure: the delta's good
		// rows fold once, as a full run over them answers.
		if err := prog.Apply(ctx, bad[:2]); err != nil {
			t.Fatalf("%q: Apply of the good rows: %v", q, err)
		}
		got, err := prog.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		base := &relation.Table{Name: "orders", Schema: viewBaseSchema(), Rows: []relation.Row{row(0, 2), bad[0], bad[1]}}
		want, err := ExecuteContext(ctx, stmt, MapCatalog{"orders": base})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, q+" after the retry", want, got)
	}

	// A SUM over a string column fails every non-empty batch at its first
	// row, after that row's COUNT(*) is reached: nothing may be folded.
	stmt, err := Parse("SELECT count(*), sum(o_region) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileView(stmt, viewBaseSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Apply(ctx, []relation.Row{row(0, 2)}); err == nil {
		t.Fatal("Apply of a SUM over a string column succeeded")
	}
	got, err := prog.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteContext(ctx, stmt, MapCatalog{"orders": relation.NewTable("orders", viewBaseSchema())})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "SUM over a string column after a failed Apply", want, got)
}

// TestViewApplyRejectsConfusedDelta feeds a delta row whose cell type
// contradicts the shipped schema: Apply must fail naming the row and the
// column, and fold nothing, rather than serve the confused cell.
func TestViewApplyRejectsConfusedDelta(t *testing.T) {
	ctx := context.Background()
	good := relation.Row{relation.IntVal(1), relation.StrVal("east"), relation.FloatVal(4), relation.IntVal(3)}
	confused := relation.Row{relation.IntVal(2), relation.StrVal("west"), relation.StrVal("not a float"), relation.IntVal(3)}
	for _, q := range []string{
		"SELECT o_region, max(o_amount) FROM orders GROUP BY o_region",
		"SELECT o_id, o_amount FROM orders",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		prog, err := CompileView(stmt, viewBaseSchema())
		if err != nil {
			t.Fatalf("%q: CompileView: %v", q, err)
		}
		err = prog.Apply(ctx, []relation.Row{good, confused})
		if err == nil || !strings.Contains(err.Error(), "row 1") || !strings.Contains(err.Error(), "o_amount") {
			t.Fatalf("%q: Apply of a confused delta: error %v, want one naming row 1 and o_amount", q, err)
		}
		if prog.Folded() != 0 {
			t.Errorf("%q: Folded %d after a rejected delta, want 0", q, prog.Folded())
		}
		got, err := prog.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExecuteContext(ctx, stmt, MapCatalog{"orders": relation.NewTable("orders", viewBaseSchema())})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, q+" after a rejected delta", want, got)
	}
}
