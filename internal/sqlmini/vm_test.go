package sqlmini

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

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
// types, same rows in the same order, each cell of the same type and each
// float to the bit (the sign of a zero included).
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
			a, b := tree.Rows[i][j], vm.Rows[i][j]
			if a.T != b.T || !relation.Equal(a, b) || math.Float64bits(a.F) != math.Float64bits(b.F) {
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
// the joined-before marks included (a one-shot join leaves a mark, never
// a build), while a long-lived table executed alongside stays cached and
// earns its build on its second join.
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
		for _, idx := range cache.builds {
			if idx != nil {
				t.Fatalf("run %d built over a one-shot table, want only a joined-before mark", i)
			}
		}
		for _, tbl := range cat {
			cache.Forget(tbl)
		}
		if len(cache.cols) != 0 || len(cache.builds) != 0 {
			t.Fatalf("run %d left %d tables and %d builds cached after Forget", i, len(cache.cols), len(cache.builds))
		}
	}
	replica := testCatalog(t)
	for i := 0; i < 2; i++ {
		if _, err := RunWith(context.Background(), q, replica, opts); err != nil {
			t.Fatal(err)
		}
	}
	cache.Forget(testCatalog(t)["orders"]) // some other table: a no-op
	if len(cache.cols) != 2 || len(cache.builds) != 1 {
		t.Fatalf("forgetting an unrelated table dropped live entries: %d tables, %d builds", len(cache.cols), len(cache.builds))
	}
	if cache.builds[buildKey{rows: rowsKey(replica["orders"]), sig: "1"}] == nil {
		t.Fatal("a table joined twice holds no cached build")
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

// agreeAcrossBuilds runs q on the tree walk, then three ways on the VM:
// with no cache (the size rule picks every build side), and twice on one
// fresh cache (the first run marks each right input it did not build
// over; the second builds over every right input). Each VM run must
// answer the tree walk's table byte for byte, or fail where it fails. It
// returns the tree walk's error and how many marks each cached run left.
func agreeAcrossBuilds(t *testing.T, cat Catalog, q string) (treeErr error, coldMarks, warmMarks int) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	ctx := context.Background()
	tree, treeErr := ExecuteWith(ctx, stmt, cat, Options{Engine: EngineTreeWalk})
	cache := NewExecCache()
	marks := func() (n int) {
		for _, idx := range cache.builds {
			if idx == nil {
				n++
			}
		}
		return n
	}
	for run, c := range []*ExecCache{nil, cache, cache} {
		vm, vmErr := ExecuteWith(ctx, stmt, cat, Options{Cache: c})
		switch {
		case treeErr != nil && vmErr == nil:
			t.Fatalf("%q, run %d: vm succeeded where the tree walk failed with %v", q, run, treeErr)
		case treeErr == nil && vmErr != nil:
			t.Fatalf("%q, run %d: vm failed where the tree walk succeeded: %v", q, run, vmErr)
		case treeErr == nil:
			requireSameTable(t, q, tree, vm)
		}
		switch run {
		case 1:
			coldMarks = marks()
		case 2:
			warmMarks = marks()
		}
	}
	return treeErr, coldMarks, warmMarks
}

// placementCatalog is testCatalog plus events, whose e_cust 9 names no
// customer and no order: that row alone carries a zero divisor and a
// malformed date string, so only a row the join removes could raise them.
func placementCatalog(t *testing.T) MapCatalog {
	t.Helper()
	cat := testCatalog(t)
	events := relation.NewTable("events", relation.MustSchema(
		relation.Column{Name: "e_id", Type: relation.Int},
		relation.Column{Name: "e_cust", Type: relation.Int},
		relation.Column{Name: "e_when", Type: relation.Str},
		relation.Column{Name: "e_div", Type: relation.Int},
	))
	for _, r := range []relation.Row{
		{relation.IntVal(1), relation.IntVal(1), relation.StrVal("2020-01-15"), relation.IntVal(2)},
		{relation.IntVal(2), relation.IntVal(2), relation.StrVal("2020-03-01"), relation.IntVal(1)},
		{relation.IntVal(3), relation.IntVal(9), relation.StrVal("notadate"), relation.IntVal(0)},
		{relation.IntVal(4), relation.IntVal(3), relation.StrVal("2020-02-20"), relation.IntVal(4)},
		{relation.IntVal(5), relation.IntVal(1), relation.StrVal("2020-06-30"), relation.IntVal(3)},
	} {
		events.MustInsert(r)
	}
	cat.Add("events", events)
	return cat
}

// TestEngineDifferentialPlacement holds WHERE placement to the tree walk:
// conjuncts that run before the first join, after the join of their last
// table, or (fallible, or behind a cross step) after the last one, under
// either build side. fails says whether the tree walk errors.
func TestEngineDifferentialPlacement(t *testing.T) {
	cat := placementCatalog(t)
	for _, c := range []struct {
		q     string
		fails bool
	}{
		// one conjunct on load 0, one on a right input only, and one
		// spanning two loads that lands mid-pipeline, before d joins
		{"SELECT c.c_name, o.o_id, d.c_name FROM customers c, orders o, customers d WHERE c.c_id = o.o_cust AND d.c_nation = c.c_nation AND c.c_nation = 'DE' AND o.o_total > 20 AND o.o_total > c.c_id * 10 AND d.c_name <> 'alice'", false},
		{"SELECT o.o_id, c.c_name FROM orders o, customers c, events e WHERE o.o_cust = c.c_id AND e.e_cust = c.c_id AND o.o_date < '2020-05-01' AND o.o_total * 2 > e.e_div + c.c_id", false},
		// constant conjuncts, on a join and on a global aggregate
		{"SELECT c_name, o_id FROM customers, orders WHERE 1 = 1 AND c_id = o_cust", false},
		{"SELECT c_name, o_id FROM customers, orders WHERE c_id = o_cust AND 1 = 0", false},
		{"SELECT count(*), sum(o_total) FROM customers, orders WHERE 1 = 0 AND c_id = o_cust", false},
		// OR across tables, Q19's shape
		{"SELECT c_name, o_id, o_total FROM customers, orders WHERE c_id = o_cust AND (c_nation = 'FR' OR o_total > 60)", false},
		{"SELECT c_nation, sum(o_total) FROM orders, customers WHERE o_cust = c_id AND (c_name LIKE 'a%' AND o_total < 40 OR c_nation = 'DE' AND o_date BETWEEN '2020-04-01' AND '2020-12-31') GROUP BY c_nation", false},
		// explicit JOIN ... ON with residuals, plus WHERE
		{"SELECT c.c_name, o.o_id FROM customers c JOIN orders o ON c.c_id = o.o_cust AND o.o_total > 15 WHERE c.c_nation = 'DE' AND o.o_date < '2020-05-01'", false},
		{"SELECT c.c_name, o.o_id, e.e_id FROM customers c JOIN orders o ON c.c_id = o.o_cust AND o.o_total <> 30 JOIN events e ON e.e_cust = c.c_id AND e.e_div > 1 WHERE c.c_nation = 'DE' AND o.o_total + e.e_div > 12", false},
		// a zero divisor and a malformed date that only the row failing
		// the join carries: a filter moved ahead of the join would raise them
		{"SELECT c_name, e_id FROM events, customers WHERE e_cust = c_id AND 10 / e_div > 2", false},
		{"SELECT c_name, e_id FROM events, customers WHERE e_cust = c_id AND e_when > DATE '2020-02-01'", false},
		{"SELECT e_id, o_id FROM events, orders WHERE e_cust = o_cust AND e_when > o_date", false},
		// a zero divisor a joined row reaches before a filter that would
		// have removed it, had the filter moved ahead of the join
		{"SELECT c_name FROM events, customers WHERE e_cust = c_id AND 10 / (c_id - 2) > 0 AND e_div <> 1", true},
		// the same through a fallible ON residual
		{"SELECT c.c_name FROM events e, customers c JOIN orders o ON o.o_cust = c.c_id AND 100 / (o.o_id - 102) > 0 WHERE e.e_cust = c.c_id AND e.e_div > 1", true},
		// a malformed date string (every c_name) that joined rows reach,
		// though a filter moved ahead of the join would leave none
		{"SELECT c_name FROM events, customers WHERE e_cust = c_id AND c_name > DATE '2020-01-01' AND e_div > 5", true},
	} {
		treeErr, _, _ := agreeAcrossBuilds(t, cat, c.q)
		if (treeErr != nil) != c.fails {
			t.Errorf("%q: tree walk error %v, want failure %v", c.q, treeErr, c.fails)
		}
	}
}

// placementBigCatalog is bigCatalog plus sales, a second table wider than
// two batches whose s_item references items.
func placementBigCatalog(t *testing.T) MapCatalog {
	t.Helper()
	cat := bigCatalog(t, 3*relation.BatchRows+17)
	nItems := cat["items"].NumRows()
	sales := relation.NewTable("sales", relation.MustSchema(
		relation.Column{Name: "s_id", Type: relation.Int},
		relation.Column{Name: "s_item", Type: relation.Int},
		relation.Column{Name: "s_qty", Type: relation.Float},
		relation.Column{Name: "s_day", Type: relation.Date},
	))
	for i := 0; i < 2*relation.BatchRows+9; i++ {
		sales.MustInsert(relation.Row{
			relation.IntVal(int64(i)),
			relation.IntVal(int64(i * 7919 % nItems)),
			relation.FloatVal(float64(i%53) * 0.75),
			relation.DateOf(2020, time.Month(1+i%4), 1+i%28),
		})
	}
	cat.Add("sales", sales)
	return cat
}

// TestEngineDifferentialPlacementMultiBatch runs the placement shapes over
// inputs wider than two batches, each once with the working side built
// (the cold runs leave marks) and once with every right side built (the
// warm run leaves none).
func TestEngineDifferentialPlacementMultiBatch(t *testing.T) {
	cat := placementBigCatalog(t)
	for _, q := range []string{
		// load 0 and right-only conjuncts
		"SELECT k_name, sum(i_price), count(*) FROM cats, items WHERE k_id = i_cat AND k_name <> 'cat3' AND i_price > 10 GROUP BY k_name",
		"SELECT i_id, s_id, s_qty FROM items, sales WHERE i_id = s_item AND i_tag = 'tag2' AND s_qty < 40",
		// OR across tables and a BETWEEN on the last input
		"SELECT k_name, sum(s_qty * i_price) FROM cats, items, sales WHERE k_id = i_cat AND i_id = s_item AND k_id IN (1, 2) AND (i_price > 20 OR s_qty < 5) AND s_day BETWEEN '2020-01-10' AND '2020-03-01' GROUP BY k_name",
		// explicit JOIN with a residual, plus WHERE
		"SELECT i_tag, count(*), sum(s_qty) FROM items JOIN sales ON s_item = i_id AND s_qty > 3 WHERE i_cat = 2 AND i_tag LIKE 'tag%' GROUP BY i_tag",
		// constant conjuncts
		"SELECT count(*), sum(s_qty) FROM items, sales WHERE i_id = s_item AND 1 = 1 AND i_id < 3000",
		"SELECT i_id, s_id FROM items, sales WHERE i_id = s_item AND i_id < 3000 AND 1 = 0",
		// a conjunct spanning two loads, landing before cats joins
		"SELECT s_id, k_name FROM items, sales, cats WHERE i_id = s_item AND i_cat = k_id AND s_qty > i_price AND i_cat < 3",
		// a zero divisor and malformed date strings (every i_tag) that an
		// earlier conjunct keeps every row from reaching
		"SELECT count(*) FROM cats, items WHERE k_id = i_cat AND k_id = 1 AND i_price / (i_cat - 2) > 0",
		"SELECT count(*) FROM cats, items WHERE k_id = i_cat AND k_name = 'nope' AND i_tag > DATE '2020-01-01'",
	} {
		treeErr, cold, warm := agreeAcrossBuilds(t, cat, q)
		if treeErr != nil {
			t.Fatalf("%q: tree walk failed: %v", q, treeErr)
		}
		if cold == 0 || warm != 0 {
			t.Errorf("%q: cold run left %d marks (want some: a working side built), warm run %d (want none)", q, cold, warm)
		}
	}
	for _, q := range []string{
		// a zero divisor past the join, and a selective filter on a cross
		// product past maxCrossRows: both must still fail
		"SELECT count(*) FROM cats, items WHERE k_id = i_cat AND i_price / (i_id - 5000) > 0 AND k_id = 1",
		"SELECT count(*) FROM items a, items b WHERE a.i_id < 10",
		"SELECT count(*) FROM items a, items b, cats WHERE a.i_cat = k_id AND k_name = 'cat1' AND b.i_id < 10",
	} {
		if treeErr, _, _ := agreeAcrossBuilds(t, cat, q); treeErr == nil {
			t.Errorf("%q: tree walk succeeded, want an error", q)
		}
	}
}
