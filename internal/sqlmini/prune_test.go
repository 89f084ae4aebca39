package sqlmini_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// fetchAll runs every pushdown of the statement against the full catalog,
// as each remote site would, and returns the fetched tables by name. A
// table PushdownFor refuses is fetched whole.
func fetchAll(t *testing.T, stmt *sqlmini.SelectStmt, full sqlmini.MapCatalog) (map[string]*relation.Table, map[string]string) {
	t.Helper()
	fetched := make(map[string]*relation.Table)
	sqls := make(map[string]string)
	for _, name := range stmt.TableNames() {
		name = strings.ToLower(name)
		sql, ok := sqlmini.PushdownFor(stmt, name)
		if !ok {
			fetched[name] = full[name]
			continue
		}
		out, err := sqlmini.Run(sql, full)
		if err != nil {
			t.Fatalf("pushed %q: %v", sql, err)
		}
		out.Name = name
		fetched[name], sqls[name] = out, sql
	}
	return fetched, sqls
}

// sameTable requires identical schemas and identical rows in order.
func sameTable(t *testing.T, label string, want, got *relation.Table) {
	t.Helper()
	if !reflect.DeepEqual(want.Schema, got.Schema) {
		t.Fatalf("%s: schema %v, want %v", label, got.Schema, want.Schema)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestPushdownPrunedTemplatesMatchPlainRun is the pruning differential:
// for every TPC-H template, every base read is a pushdown, and running the
// full statement over the fetched tables — one at a time, as a mixed plan
// reads, and all together, as an all-base plan does — equals the plain run.
func TestPushdownPrunedTemplatesMatchPlainRun(t *testing.T) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := sqlmini.MapCatalog(tables)
	for _, q := range tpch.Queries() {
		stmt, err := sqlmini.Parse(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		want, err := sqlmini.Execute(stmt, full)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		fetched, sqls := fetchAll(t, stmt, full)
		all := make(sqlmini.MapCatalog, len(full))
		for name, tbl := range full {
			all[name] = tbl
		}
		for name, f := range fetched {
			sql, ok := sqls[name]
			if !ok {
				t.Fatalf("%s: %s is not pushed down", q.ID, name)
			}
			one := make(sqlmini.MapCatalog, len(full))
			for n, tbl := range full {
				one[n] = tbl
			}
			one[name], all[name] = f, f
			got, err := sqlmini.Execute(stmt, one)
			if err != nil {
				t.Fatalf("%s over %q: %v", q.ID, sql, err)
			}
			sameTable(t, q.ID+" with "+name+" fetched", want, got)
		}
		got, err := sqlmini.Execute(stmt, all)
		if err != nil {
			t.Fatalf("%s over every fetch: %v", q.ID, err)
		}
		sameTable(t, q.ID+" with every table fetched", want, got)
	}
}

// TestPushdownPruningShapes pins what each base fetch ships for the shapes
// the templates do not cover, and that the full statement over those
// fetches equals the plain run. "" is a refused pushdown: the whole table.
func TestPushdownPruningShapes(t *testing.T) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := sqlmini.MapCatalog(tables)
	cases := []struct {
		name string
		q    string
		want map[string]string
	}{
		{"aliases, ON-residual-only column", `
			SELECT cu.c_name, sum(ord.o_totalprice) AS spent
			FROM customer AS cu JOIN orders AS ord ON cu.c_custkey = ord.o_custkey AND ord.o_orderdate < DATE '1995-01-01'
			WHERE cu.c_mktsegment = 'BUILDING'
			GROUP BY cu.c_name ORDER BY spent DESC, cu.c_name LIMIT 10`,
			map[string]string{
				"customer": "SELECT c_name, c_mktsegment, c_custkey FROM customer WHERE (c_mktsegment = 'BUILDING')",
				"orders":   "SELECT o_totalprice, o_custkey, o_orderdate FROM orders",
			}},
		{"self-join", `
			SELECT n1.n_name, n2.n_name AS other FROM nation n1, nation n2
			WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_nationkey < n2.n_nationkey AND n1.n_name LIKE 'A%'
			ORDER BY n1.n_name, other`,
			map[string]string{"nation": "SELECT n_name, n_regionkey, n_nationkey FROM nation"}},
		{"select star", `
			SELECT * FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'`,
			map[string]string{"nation": "", "region": ""}},
		{"HAVING-only column", `
			SELECT c.c_nationkey, count(*) AS n FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey
			GROUP BY c.c_nationkey HAVING max(o.o_totalprice) > 100000 ORDER BY c.c_nationkey`,
			map[string]string{
				"customer": "SELECT c_nationkey, c_custkey FROM customer",
				"orders":   "SELECT o_custkey, o_totalprice FROM orders",
			}},
		{"ORDER BY an output alias that shadows a column", `
			SELECT o.o_totalprice AS o_orderkey, c.c_name FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND o.o_orderpriority = '1-URGENT'
			ORDER BY o_orderkey DESC, c.c_name LIMIT 20`,
			map[string]string{
				"customer": "SELECT c_name, c_custkey FROM customer",
				"orders":   "SELECT o_totalprice, o_custkey, o_orderpriority FROM orders WHERE (o_orderpriority = '1-URGENT')",
			}},
		{"unqualified column among several tables", `
			SELECT c_name, o.o_totalprice FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 100000`,
			map[string]string{"customer": "", "orders": ""}},
		{"count(*) only", `SELECT count(*) AS n FROM region`,
			map[string]string{"region": ""}},
		{"one table, aliased and bare references", `
			SELECT count(*) AS n, max(li.l_extendedprice) AS top FROM lineitem li WHERE l_quantity < 5`,
			map[string]string{"lineitem": "SELECT l_extendedprice, l_quantity FROM lineitem WHERE (l_quantity < 5)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := sqlmini.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sqlmini.Execute(stmt, full)
			if err != nil {
				t.Fatal(err)
			}
			fetched, sqls := fetchAll(t, stmt, full)
			for name, wantSQL := range tc.want {
				if sqls[name] != wantSQL {
					t.Errorf("%s ships %q, want %q", name, sqls[name], wantSQL)
				}
			}
			got, err := sqlmini.Execute(stmt, sqlmini.MapCatalog(fetched))
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, tc.name, want, got)
		})
	}
}

// fuzzSeeds returns the string-literal entries of FuzzParse's seed corpus,
// read from fuzz_test.go so the corpus stays defined in one place.
func fuzzSeeds(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "fuzz_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "seeds" {
			return true
		}
		for _, elt := range as.Rhs[0].(*ast.CompositeLit).Elts {
			if lit, ok := elt.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				seeds = append(seeds, s)
			}
		}
		return false
	})
	if len(seeds) < 20 {
		t.Fatalf("found %d FuzzParse seeds in fuzz_test.go", len(seeds))
	}
	return seeds
}

// TestWhereRoundTrips: a rendered WHERE is what a pushdown ships, so it
// must reparse to the same tree and render identically — every template's
// and every FuzzParse seed's, plus the shapes that used not to: a float
// with more than four decimals, an integral float, a quote inside LIKE.
func TestWhereRoundTrips(t *testing.T) {
	inputs := []string{
		"SELECT a FROM t WHERE b = 0.12345 AND b < 2.0",
		"SELECT a FROM t WHERE s LIKE 'O''B%' AND NOT s LIKE '''%'",
	}
	for _, q := range tpch.Queries() {
		inputs = append(inputs, q.SQL)
	}
	checked := 0
	for _, in := range append(inputs, fuzzSeeds(t)...) {
		stmt, err := sqlmini.Parse(in)
		if err != nil || stmt.Where == nil {
			continue
		}
		checked++
		rendered := stmt.Where.String()
		again, err := sqlmini.Parse("SELECT a FROM t WHERE " + rendered)
		if err != nil {
			t.Errorf("%q renders its WHERE as %q, which does not parse: %v", in, rendered, err)
			continue
		}
		if r := again.Where.String(); r != rendered {
			t.Errorf("%q: WHERE renders %q, then %q", in, rendered, r)
		}
		if !reflect.DeepEqual(again.Where, stmt.Where) {
			t.Errorf("%q: WHERE rendered as %q reparses to a different tree", in, rendered)
		}
	}
	if checked < 30 {
		t.Fatalf("checked %d WHERE clauses", checked)
	}
}
