package sqlmini

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ivdss/internal/relation"
)

// execBoth runs one statement through both engines and returns the pair.
func execBoth(t *testing.T, cat Catalog, q string) (tree, vm *relation.Table, treeErr, vmErr error) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	ctx := context.Background()
	tree, treeErr = ExecuteWith(ctx, stmt, cat, Options{Engine: EngineTreeWalk})
	vm, vmErr = ExecuteWith(ctx, stmt, cat, Options{Engine: EngineVM})
	return tree, vm, treeErr, vmErr
}

// requireSameTable demands byte-identical answers: same column names and
// types, same rows in the same order.
func requireSameTable(t *testing.T, q string, tree, vm *relation.Table) {
	t.Helper()
	if len(tree.Schema.Cols) != len(vm.Schema.Cols) {
		t.Fatalf("%q: schema width %d vs %d", q, len(tree.Schema.Cols), len(vm.Schema.Cols))
	}
	for i := range tree.Schema.Cols {
		if tree.Schema.Cols[i] != vm.Schema.Cols[i] {
			t.Fatalf("%q: column %d: tree %v vs vm %v", q, i, tree.Schema.Cols[i], vm.Schema.Cols[i])
		}
	}
	if len(tree.Rows) != len(vm.Rows) {
		t.Fatalf("%q: row count tree %d vs vm %d", q, len(tree.Rows), len(vm.Rows))
	}
	for i := range tree.Rows {
		for j := range tree.Rows[i] {
			if !relation.Equal(tree.Rows[i][j], vm.Rows[i][j]) {
				t.Fatalf("%q: row %d col %d: tree %v vs vm %v", q, i, j, tree.Rows[i][j], vm.Rows[i][j])
			}
		}
	}
}

// TestEngineDifferentialCorpus runs a broad query corpus through both
// engines: successes must agree byte for byte, failures must fail on
// both (messages may differ in wording, never in class).
func TestEngineDifferentialCorpus(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		// projections, filters, expressions
		"SELECT * FROM customers",
		"SELECT c_name FROM customers WHERE c_nation = 'DE'",
		"SELECT c_id + 1, c_name FROM customers",
		"SELECT -o_total, o_id FROM orders",
		"SELECT o_id, o_total / 2 AS half FROM orders ORDER BY half DESC",
		"SELECT o_id FROM orders WHERE o_total * 2 > 50 ORDER BY o_id",
		"SELECT 1 + 2, 'x' FROM customers LIMIT 1",
		"SELECT * FROM customers WHERE c_id > 100",
		"SELECT * FROM customers WHERE c_name > 'b'",
		// AND / OR / NOT / BETWEEN / IN / LIKE
		"SELECT * FROM orders WHERE o_total > 25 AND o_date < '2020-04-01'",
		"SELECT * FROM orders WHERE o_total > 75 OR o_cust = 1",
		"SELECT * FROM customers WHERE NOT c_nation = 'DE'",
		"SELECT o_id FROM orders WHERE o_total BETWEEN 20 AND 50",
		"SELECT o_id FROM orders WHERE o_cust IN (1, 3)",
		"SELECT c_id FROM customers WHERE c_nation IN ('DE', 'IT')",
		"SELECT c_name FROM customers WHERE c_name LIKE 'a%'",
		"SELECT c_name FROM customers WHERE c_name LIKE '%o%'",
		"SELECT count(*) FROM customers WHERE c_nation LIKE 'D%'",
		// dates
		"SELECT o_id FROM orders WHERE o_date = '2020-01-10'",
		"SELECT o_id FROM orders WHERE o_date BETWEEN DATE '2020-02-01' AND '2020-04-30'",
		"SELECT min(o_date), max(o_date) FROM orders",
		// joins
		"SELECT c_name, o_total FROM customers, orders WHERE c_id = o_cust",
		"SELECT c_name, o_total FROM customers JOIN orders ON c_id = o_cust WHERE o_total > 25",
		"SELECT customers.c_name, orders.o_id FROM customers, orders WHERE customers.c_id = orders.o_cust AND orders.o_total < 40",
		"SELECT c.c_name FROM customers AS c WHERE c.c_id = 2",
		"SELECT count(*) FROM customers, orders",
		"SELECT x.c_id, y.c_id FROM customers AS x, customers AS y WHERE x.c_id = y.c_id ORDER BY x.c_id",
		// row-id working relations: every shape that rewrites, composes or
		// reads through the per-load row-id vectors.
		// two aliases of one table, Q7-style
		"SELECT o.o_id, x.c_name, y.c_name FROM orders o, customers x, customers y WHERE o.o_cust = x.c_id AND x.c_nation = y.c_nation AND x.c_id <> y.c_id",
		// an ON residual leaves zero rows feeding the next join
		"SELECT c.c_name, o.o_id, d.c_name FROM customers c JOIN orders o ON c.c_id = o.o_cust AND o.o_total > 1000 JOIN customers d ON d.c_id = o.o_cust",
		// cross join, then WHERE
		"SELECT c_name, o_id FROM customers, orders WHERE o_total > 25 AND c_nation = 'DE'",
		// non-equi ON residuals, alone and chained under a WHERE
		"SELECT c_name, o_total FROM customers JOIN orders ON c_id = o_cust AND o_total > 25",
		"SELECT c_name, o_total FROM customers JOIN orders ON c_id = o_cust AND o_total > 25 AND c_name <> 'carol' WHERE o_total < 80",
		// every column of a 3-way join live
		"SELECT * FROM customers c, orders o, customers d WHERE c.c_id = o.o_cust AND d.c_nation = c.c_nation",
		// the right side is the smaller build
		"SELECT o_id, c_name FROM orders, customers WHERE o_cust = c_id",
		"SELECT o_id, c_name FROM orders, customers WHERE o_cust = c_id AND c_nation = 'FR'",
		// a zero divisor the WHERE removes before the value stage
		"SELECT o_total / (c_id - 2) FROM customers, orders WHERE c_id = o_cust AND c_id <> 2",
		// aggregation, grouping, having
		"SELECT count(*) FROM orders",
		"SELECT count(DISTINCT c_nation) FROM customers",
		"SELECT sum(o_total * 2) + 1 FROM orders",
		"SELECT c_nation, count(*), sum(o_total) FROM customers, orders WHERE c_id = o_cust GROUP BY c_nation ORDER BY c_nation",
		"SELECT c_nation, avg(o_total) FROM customers, orders WHERE c_id = o_cust GROUP BY c_nation HAVING count(*) > 1",
		"SELECT o_cust, sum(o_total) AS total FROM orders GROUP BY o_cust ORDER BY total DESC LIMIT 2",
		"SELECT o_cust FROM orders GROUP BY o_cust HAVING sum(o_total) > 50",
		"SELECT o_cust, count(*) FROM orders WHERE o_total > 15 GROUP BY o_cust ORDER BY count(*) DESC, o_cust",
		// distinct, ordering, limits
		"SELECT DISTINCT c_nation FROM customers ORDER BY c_nation",
		"SELECT DISTINCT o_cust, o_total > 25 FROM orders ORDER BY o_cust",
		"SELECT c_name FROM customers ORDER BY c_id DESC LIMIT 2",
		"SELECT o_id FROM orders ORDER BY o_total / 2",
	}
	for _, q := range queries {
		tree, vm, treeErr, vmErr := execBoth(t, cat, q)
		if treeErr != nil {
			t.Fatalf("%q: tree-walk oracle failed: %v", q, treeErr)
		}
		if vmErr != nil {
			t.Fatalf("%q: vm failed where oracle succeeded: %v", q, vmErr)
		}
		requireSameTable(t, q, tree, vm)
	}
}

// TestEngineDifferentialErrors runs queries the oracle rejects at
// execution time and demands the VM rejects them too.
func TestEngineDifferentialErrors(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT nosuch FROM customers",
		"SELECT * FROM nosuchtable",
		"SELECT c_id FROM customers AS x, customers AS y WHERE x.c_id = y.c_id", // ambiguous c_id
		"SELECT * FROM customers AS x, orders AS x",                             // duplicate alias
		"SELECT c_id FROM customers WHERE c_name > 5",                           // type mismatch
		"SELECT o_total / 0 FROM orders",                                        // division by zero
		"SELECT c_id FROM customers WHERE c_name",                               // non-boolean predicate
		"SELECT sum(c_id) FROM customers WHERE sum(c_id) > 1",                   // aggregate in WHERE
		"SELECT c_id FROM customers HAVING c_id > 1",                            // HAVING without aggregation
		"SELECT * FROM customers JOIN orders ON c_id > o_cust",                  // no equijoin
		"SELECT c_id FROM customers WHERE c_id LIKE 'a%'",                       // LIKE over non-string
		"SELECT o_id FROM orders WHERE o_date > 'notadate'",                     // bad date literal
		"SELECT c_id + c_name FROM customers",                                   // arithmetic over string
		// division by zero that only a joined row reaches
		"SELECT o_total / (c_id - 2) FROM customers, orders WHERE c_id = o_cust",
		"SELECT c_name FROM customers, orders WHERE c_id = o_cust AND o_total / (o_cust - 3) > 0",
	}
	for _, q := range queries {
		_, _, treeErr, vmErr := execBoth(t, cat, q)
		if treeErr == nil {
			t.Fatalf("%q: oracle unexpectedly succeeded", q)
		}
		if vmErr == nil {
			t.Errorf("%q: vm succeeded where oracle failed with: %v", q, treeErr)
		}
	}
}

// bigCatalog builds a table spanning several columnar batches so the
// batched VM paths (selection vectors crossing batch boundaries, join
// probe windows, grouped aggregation across batches) are exercised.
func bigCatalog(t *testing.T, rows int) MapCatalog {
	t.Helper()
	items := relation.NewTable("items", relation.MustSchema(
		relation.Column{Name: "i_id", Type: relation.Int},
		relation.Column{Name: "i_cat", Type: relation.Int},
		relation.Column{Name: "i_price", Type: relation.Float},
		relation.Column{Name: "i_tag", Type: relation.Str},
	))
	for i := 0; i < rows; i++ {
		items.MustInsert(relation.Row{
			relation.IntVal(int64(i)),
			relation.IntVal(int64(i % 7)),
			relation.FloatVal(float64(i%100) / 2),
			relation.StrVal(fmt.Sprintf("tag%d", i%5)),
		})
	}
	cats := relation.NewTable("cats", relation.MustSchema(
		relation.Column{Name: "k_id", Type: relation.Int},
		relation.Column{Name: "k_name", Type: relation.Str},
	))
	for i := 0; i < 7; i++ {
		cats.MustInsert(relation.Row{relation.IntVal(int64(i)), relation.StrVal(fmt.Sprintf("cat%d", i))})
	}
	return MapCatalog{"items": items, "cats": cats}
}

// TestEngineDifferentialMultiBatch checks agreement on inputs bigger
// than one columnar batch (relation.BatchRows rows).
func TestEngineDifferentialMultiBatch(t *testing.T) {
	cat := bigCatalog(t, 3*relation.BatchRows+17)
	queries := []string{
		"SELECT count(*), sum(i_price) FROM items",
		"SELECT i_id FROM items WHERE i_price > 40 AND i_cat IN (1, 3, 5) ORDER BY i_id LIMIT 10",
		"SELECT i_cat, count(*), avg(i_price) FROM items GROUP BY i_cat ORDER BY i_cat",
		"SELECT k_name, count(*) FROM items, cats WHERE i_cat = k_id GROUP BY k_name ORDER BY k_name",
		"SELECT count(*) FROM items WHERE i_tag LIKE 'tag1%' OR i_price < 3",
		// joined inputs wider than two batches: gathers cross window
		// boundaries on both the probe and the build side's row-ids
		"SELECT i_id, k_name, i_price FROM items, cats WHERE i_cat = k_id AND i_price > 10 ORDER BY i_id DESC LIMIT 50",
		"SELECT k_name, i_tag, sum(i_price), count(*) FROM cats, items WHERE k_id = i_cat AND i_tag LIKE 'tag1%' GROUP BY k_name, i_tag ORDER BY k_name, i_tag",
		"SELECT a.i_id, b.i_id, k_name FROM items a, items b, cats WHERE a.i_id = b.i_id AND b.i_cat = k_id AND a.i_price < b.i_id ORDER BY a.i_id LIMIT 20",
		"SELECT i_tag, k_name FROM items JOIN cats ON i_cat = k_id AND i_id > 5000 WHERE i_price = 0 ORDER BY i_id",
	}
	for _, q := range queries {
		tree, vm, treeErr, vmErr := execBoth(t, cat, q)
		if treeErr != nil || vmErr != nil {
			t.Fatalf("%q: tree err %v, vm err %v", q, treeErr, vmErr)
		}
		requireSameTable(t, q, tree, vm)
	}
}

// TestPrepareReuse compiles once and executes many times — results must
// be identical run to run and match the oracle, the compile-once
// contract the micro-batch scheduler leans on.
func TestPrepareReuse(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT c_nation, sum(o_total) FROM customers, orders WHERE c_id = o_cust GROUP BY c_nation ORDER BY c_nation"
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ExecuteWith(context.Background(), stmt, cat, Options{Engine: EngineTreeWalk})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewExecCache()
	for i := 0; i < 3; i++ {
		got, err := prep.ExecuteContext(context.Background(), cat, cache)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		requireSameTable(t, q, oracle, got)
	}
}

// TestExecCacheSeesAppends shares one cache across executions of a
// mutating table: the row-count validation must refresh the columnar
// image, so appended rows appear in the next answer.
func TestExecCacheSeesAppends(t *testing.T) {
	cat := testCatalog(t)
	cache := NewExecCache()
	opts := Options{Engine: EngineVM, Cache: cache}
	q := "SELECT count(*) FROM orders"
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ExecuteWith(context.Background(), stmt, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	orders, err := cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	orders.MustInsert(relation.Row{
		relation.IntVal(105), relation.IntVal(2), relation.FloatVal(5), relation.DateOf(2020, 6, 1),
	})
	after, err := ExecuteWith(context.Background(), stmt, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := before.Rows[0][0].I
	a := after.Rows[0][0].I
	if a != b+1 {
		t.Fatalf("stale cache: count %d before append, %d after (want %d)", b, a, b+1)
	}
}

// TestExecCacheForget plays the federated read path: every execution runs
// over freshly fetched tables whose pointers never come back, and the
// owner forgets them afterwards. Nothing may stay pinned in either map,
// while a long-lived table executed alongside stays cached.
func TestExecCacheForget(t *testing.T) {
	cache := NewExecCache()
	opts := Options{Engine: EngineVM, Cache: cache}
	q := "SELECT c_name, o_total FROM customers, orders WHERE c_id = o_cust"
	for i := 0; i < 5; i++ {
		cat := testCatalog(t) // fresh *relation.Table pointers
		if _, err := RunWith(context.Background(), q, cat, opts); err != nil {
			t.Fatal(err)
		}
		if len(cache.cols) != 2 || len(cache.builds) != 1 {
			t.Fatalf("run %d cached %d tables and %d builds, want 2 and 1", i, len(cache.cols), len(cache.builds))
		}
		for _, tbl := range cat {
			cache.Forget(tbl)
		}
		if len(cache.cols) != 0 || len(cache.builds) != 0 {
			t.Fatalf("run %d left %d tables and %d builds cached after Forget", i, len(cache.cols), len(cache.builds))
		}
	}
	replica := testCatalog(t)
	if _, err := RunWith(context.Background(), q, replica, opts); err != nil {
		t.Fatal(err)
	}
	cache.Forget(testCatalog(t)["orders"]) // some other table: a no-op
	if len(cache.cols) != 2 || len(cache.builds) != 1 {
		t.Fatalf("forgetting an unrelated table dropped live entries: %d tables, %d builds", len(cache.cols), len(cache.builds))
	}
}

// TestPrepareSchemaChangeIsAnError swaps a table for one with a different
// schema after Prepare: the stale plan must not run and nothing re-runs
// the statement on another interpreter — the caller gets the plain error.
// A fresh ExecuteWith prepares against the new schema and answers.
func TestPrepareSchemaChangeIsAnError(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := Parse("SELECT c_name FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	swapped := relation.NewTable("customers", relation.MustSchema(
		relation.Column{Name: "c_name", Type: relation.Str}, // narrower schema
	))
	swapped.MustInsert(relation.Row{relation.StrVal("dora")})
	cat.Add("customers", swapped)
	_, err = prep.ExecuteContext(context.Background(), cat, nil)
	if err == nil || !strings.Contains(err.Error(), `table "customers" schema changed since prepare`) {
		t.Fatalf("want the schema-changed error, got %v", err)
	}
	out, err := ExecuteWith(context.Background(), stmt, cat, Options{})
	if err != nil {
		t.Fatalf("ExecuteWith after swap: %v", err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].S != "dora" {
		t.Fatalf("re-prepared statement answered wrong rows: %v", out.Rows)
	}
}

// TestSchemaViolatingRowsFailTheQuery hands the VM a table whose cells do
// not match the declared column types, or whose rows are the wrong width —
// what a confused or hostile remote can put on the wire. The statement
// fails with an error naming table, row and column; the tree-walk
// interpreter, which would compute over the confused cells, is not tried.
func TestSchemaViolatingRowsFailTheQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  relation.Row
		want string
	}{
		{"wrong cell type", relation.Row{relation.StrVal("7"), relation.StrVal("eve")}, "customers: row 3 column c_id wants int, got string"},
		{"short row", relation.Row{relation.IntVal(7)}, "customers: row 3 has 1 cells, schema has 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := testCatalog(t)
			good := cat["customers"]
			bad := &relation.Table{Name: "customers", Schema: relation.MustSchema(good.Schema.Cols[:2]...)}
			for _, r := range good.Rows {
				bad.Rows = append(bad.Rows, r[:2])
			}
			bad.Rows = append(bad.Rows, tc.row) // bypasses Insert's check, as decoding does
			cat.Add("customers", bad)
			_, err := RunWith(context.Background(), "SELECT c_name FROM customers", cat, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}
