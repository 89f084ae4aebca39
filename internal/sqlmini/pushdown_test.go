package sqlmini

import (
	"testing"

	"ivdss/internal/relation"
)

func TestPushdownForBasic(t *testing.T) {
	stmt, err := Parse(`
		SELECT c.c_name, o.o_total FROM customers c, orders o
		WHERE c.c_id = o.o_cust AND c.c_nation = 'DE'
		  AND o.o_total > 25 AND o.o_date >= DATE '2020-03-01'`)
	if err != nil {
		t.Fatal(err)
	}
	sql, ok := PushdownFor(stmt, "orders")
	if !ok {
		t.Fatal("no pushdown for orders")
	}
	// The columns orders contributes, in first-appearance order (o_cust only
	// through the join conjunct), and its own conjuncts unqualified; the
	// join conjunct (two qualifiers) stays local.
	if want := "SELECT o_total, o_cust, o_date FROM orders WHERE (o_total > 25) AND (o_date >= DATE '2020-03-01')"; sql != want {
		t.Errorf("sql = %q\nwant  %q", sql, want)
	}

	// Pushed SQL must run against the bare table.
	out, err := Run(sql, testCatalog(t))
	if err != nil {
		t.Fatalf("pushed sql %q: %v", sql, err)
	}
	// Only order 103 ($80, 2020-04-10) passes both filters.
	if out.NumRows() != 1 || out.Rows[0][0].F != 80 || out.Rows[0][1].I != 3 {
		t.Errorf("pushed rows = %d: %v", out.NumRows(), out.Rows)
	}
}

func TestPushdownEquivalence(t *testing.T) {
	// Fetch-filtered + local residual WHERE == plain execution.
	cat := testCatalog(t)
	full := `SELECT c.c_name, sum(o.o_total) AS s FROM customers c, orders o
	         WHERE c.c_id = o.o_cust AND o.o_total > 20 AND c.c_nation = 'DE'
	         GROUP BY c.c_name ORDER BY c.c_name`
	want := runQuery(t, cat, full)

	stmt, err := Parse(full)
	if err != nil {
		t.Fatal(err)
	}
	pushedOrders, ok := PushdownFor(stmt, "orders")
	if !ok {
		t.Fatal("no orders pushdown")
	}
	filteredOrders, err := Run(pushedOrders, cat)
	if err != nil {
		t.Fatal(err)
	}
	filteredOrders.Name = "orders"
	pushedCust, ok := PushdownFor(stmt, "customers")
	if !ok {
		t.Fatal("no customers pushdown")
	}
	filteredCust, err := Run(pushedCust, cat)
	if err != nil {
		t.Fatal(err)
	}
	filteredCust.Name = "customers"

	got, err := Run(full, MapCatalog{"orders": filteredOrders, "customers": filteredCust})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("pushdown changed results: %d vs %d rows", got.NumRows(), want.NumRows())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j].String() != got.Rows[i][j].String() {
				t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// A table read under two aliases ships the union of their columns and no
// filter: one row set serves both, and each alias's filter would drop rows
// the other needs.
func TestPushdownSkipsMultiAliasTables(t *testing.T) {
	stmt, err := Parse(`SELECT a.o_id FROM orders a, orders b
		WHERE a.o_id = b.o_id AND a.o_total > 10 AND b.o_total > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if sql, ok := PushdownFor(stmt, "orders"); !ok || sql != "SELECT o_id, o_total FROM orders" {
		t.Errorf("self-join pushdown = %q, %v; want the aliases' columns and no filter", sql, ok)
	}
}

func TestPushdownNothingPushable(t *testing.T) {
	stmt, err := Parse("SELECT c.c_name FROM customers c, orders o WHERE c.c_id = o.o_cust")
	if err != nil {
		t.Fatal(err)
	}
	// No filter of its own, but orders still ships only its join key.
	if sql, ok := PushdownFor(stmt, "orders"); !ok || sql != "SELECT o_cust FROM orders" {
		t.Errorf("join-only pushdown = %q, %v; want the join key and no filter", sql, ok)
	}
	if _, ok := PushdownFor(stmt, "ghost"); ok {
		t.Error("unknown table pushed")
	}
}

func TestPushdownUnqualifiedRefsNotPushed(t *testing.T) {
	// An unqualified column can belong to any table; it must not push.
	stmt, err := Parse("SELECT c.c_name FROM customers c, orders o WHERE c.c_id = o.o_cust AND o_total > 5")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PushdownFor(stmt, "orders"); ok {
		t.Error("unqualified predicate pushed")
	}
}

func TestPushdownComplexPredicates(t *testing.T) {
	stmt, err := Parse(`SELECT o.o_id FROM orders o, customers c
		WHERE o.o_cust = c.c_id
		  AND (o.o_total BETWEEN 10 AND 60 OR o.o_total > 75)
		  AND NOT o.o_id IN (101, 102)`)
	if err != nil {
		t.Fatal(err)
	}
	sql, ok := PushdownFor(stmt, "orders")
	if !ok {
		t.Fatal("complex single-table predicates not pushed")
	}
	out, err := Run(sql, testCatalog(t))
	if err != nil {
		t.Fatalf("pushed sql %q: %v", sql, err)
	}
	// Orders: 100(50✓), 101(30 but excluded), 102(20 excluded), 103(80✓), 104(10✓).
	if out.NumRows() != 3 {
		t.Errorf("rows = %d: %v", out.NumRows(), out.Rows)
	}
}

// A pushed predicate must select at the remote what it selects locally:
// a float literal keeps every digit (four decimals shipped o_total =
// 0.1235, which no row matches) and a quote inside a LIKE pattern stays
// escaped (unescaped, the remote could not parse the pushdown).
func TestPushdownLiteralsSurviveRendering(t *testing.T) {
	cat := testCatalog(t)
	cat["orders"].MustInsert(relation.Row{relation.IntVal(105), relation.IntVal(4), relation.FloatVal(0.12345), relation.DateOf(2020, 6, 1)})
	cat["customers"].MustInsert(relation.Row{relation.IntVal(4), relation.StrVal("O'Brien"), relation.StrVal("IE")})
	for _, tc := range []struct{ name, table, q string }{
		{"float", "orders", "SELECT c.c_name FROM customers c, orders o WHERE c.c_id = o.o_cust AND o.o_total = 0.12345"},
		{"like quote", "customers", "SELECT c.c_name FROM customers c, orders o WHERE c.c_id = o.o_cust AND c.c_name LIKE 'O''B%'"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			sql, ok := PushdownFor(stmt, tc.table)
			if !ok {
				t.Fatalf("no pushdown for %s", tc.table)
			}
			fetched, err := Run(sql, cat)
			if err != nil {
				t.Fatalf("pushed %q: %v", sql, err)
			}
			if fetched.NumRows() != 1 {
				t.Fatalf("pushed %q fetched %d rows, want the one that matches", sql, fetched.NumRows())
			}
			fetched.Name = tc.table
			narrowed := MapCatalog{"orders": cat["orders"], "customers": cat["customers"]}
			narrowed[tc.table] = fetched
			out, err := Execute(stmt, narrowed)
			if err != nil || out.NumRows() != 1 || out.Rows[0][0].S != "O'Brien" {
				t.Fatalf("over the pushed fetch: %v %v", err, out)
			}
		})
	}
}
