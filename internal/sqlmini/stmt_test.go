package sqlmini_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// TestStatementWarmRunAllocs holds the statement cache to its purpose: a
// warm RunWith with a cache parses and prepares nothing, so each template
// allocates at most what running its prepared plan allocates, plus a
// small constant. Its answers are the uncached run's.
func TestStatementWarmRunAllocs(t *testing.T) {
	cat, cache, queries, preps := tpchPrepared(t)
	ctx := context.Background()
	opts := sqlmini.Options{Cache: cache}
	const slack = 2
	for i, q := range queries {
		want, err := sqlmini.RunWith(ctx, q.SQL, cat, sqlmini.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		got, err := sqlmini.RunWith(ctx, q.SQL, cat, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		sqlmini.RequireSameTable(t, q.ID, want, got)

		prepared := testing.AllocsPerRun(3, func() {
			if _, err := preps[i].ExecuteContext(ctx, cat, cache); err != nil {
				t.Fatal(err)
			}
		})
		run := testing.AllocsPerRun(3, func() {
			if _, err := sqlmini.RunWith(ctx, q.SQL, cat, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%-4s warm RunWith %5.0f allocs, prepared ExecuteContext %5.0f", q.ID, run, prepared)
		if run > prepared+slack {
			t.Errorf("%s: warm RunWith allocates %.0f, want at most %.0f (the prepared plan's %.0f + %d)", q.ID, run, prepared+slack, prepared, slack)
		}
		if n := cache.Plans(q.SQL); n != 1 {
			t.Errorf("%s: %d plans kept, want 1", q.ID, n)
		}
	}
}

// BenchmarkRunTemplates times and sizes one warm RunWith per template
// through a cache: the server's path, the statement compiled once.
func BenchmarkRunTemplates(b *testing.B) {
	cat, cache, queries, _ := tpchPrepared(b)
	ctx := context.Background()
	opts := sqlmini.Options{Cache: cache}
	for _, q := range queries {
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sqlmini.RunWith(ctx, q.SQL, cat, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A DSS binds one text to full replicas and to pruned pushdown results.
// The cache keeps a plan for each set of load schemas, and each answers
// the plain run over the full catalog; running again prepares nothing.
func TestStatementPlanPerSchemaSet(t *testing.T) {
	tables, err := tpch.Generate(tpch.Config{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := sqlmini.MapCatalog(tables)
	q, err := tpch.QueryByID("Q3")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := sqlmini.RunWith(ctx, q.SQL, full, sqlmini.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := sqlmini.NewExecCache()
	st, err := cache.Statement(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	fetched, _ := fetchAll(t, st.Stmt, full)
	pruned := sqlmini.MapCatalog(fetched)
	for round := 0; round < 2; round++ {
		for _, c := range []struct {
			label string
			cat   sqlmini.MapCatalog
		}{{"full", full}, {"pruned", pruned}} {
			got, err := sqlmini.RunWith(ctx, q.SQL, c.cat, sqlmini.Options{Cache: cache})
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, c.label, err)
			}
			sqlmini.RequireSameTable(t, c.label, want, got)
		}
		if n := cache.Plans(q.SQL); n != 2 {
			t.Fatalf("round %d: %d plans kept, want 2 (full and pruned)", round, n)
		}
	}
}

// Changing a table's schema between runs re-prepares the text; it never
// fails with "schema changed since prepare", and the old plan stays for
// the old schema.
func TestStatementReprepareOnSchemaChange(t *testing.T) {
	ab := relation.NewTable("t", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Int},
		relation.Column{Name: "b", Type: relation.Str},
	))
	ba := relation.NewTable("t", relation.MustSchema(
		relation.Column{Name: "b", Type: relation.Str},
		relation.Column{Name: "a", Type: relation.Int},
	))
	for i := int64(0); i < 5; i++ {
		ab.MustInsert(relation.Row{relation.IntVal(i), relation.StrVal(fmt.Sprint("s", i))})
		ba.MustInsert(relation.Row{relation.StrVal(fmt.Sprint("s", i)), relation.IntVal(i)})
	}
	const sql = "SELECT b, a * 2 AS twice FROM t WHERE a > 1 ORDER BY a DESC"
	ctx := context.Background()
	cache := sqlmini.NewExecCache()
	for round := 0; round < 2; round++ {
		for _, tbl := range []*relation.Table{ab, ba} {
			cat := sqlmini.MapCatalog{"t": tbl}
			want, err := sqlmini.RunWith(ctx, sql, cat, sqlmini.Options{Engine: sqlmini.EngineTreeWalk})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sqlmini.RunWith(ctx, sql, cat, sqlmini.Options{Cache: cache})
			if err != nil {
				t.Fatalf("round %d, schema %v: %v", round, tbl.Schema, err)
			}
			sqlmini.RequireSameTable(t, sql, want, got)
		}
	}
	if n := cache.Plans(sql); n != 2 {
		t.Fatalf("%d plans kept, want 2", n)
	}
}

// A text that fails to parse is not kept, and a failed Prepare keeps no
// plan: the same text answers once the catalog can bind it.
func TestStatementErrorsNotCached(t *testing.T) {
	ctx := context.Background()
	cache := sqlmini.NewExecCache()
	const bad = "SELECT FROM WHERE"
	for i := 0; i < 2; i++ {
		if _, err := sqlmini.RunWith(ctx, bad, sqlmini.MapCatalog{}, sqlmini.Options{Cache: cache}); err == nil {
			t.Fatal("a malformed text ran")
		}
		if n := sqlmini.Statements(cache); n != 0 {
			t.Fatalf("a malformed text left %d statements", n)
		}
	}

	const sql = "SELECT a FROM t"
	cat := sqlmini.MapCatalog{}
	if _, err := sqlmini.RunWith(ctx, sql, cat, sqlmini.Options{Cache: cache}); err == nil {
		t.Fatal("a text over an unknown table ran")
	}
	if n := cache.Plans(sql); n != 0 {
		t.Fatalf("a failed prepare kept %d plans", n)
	}
	tbl := relation.NewTable("t", relation.MustSchema(relation.Column{Name: "a", Type: relation.Int}))
	tbl.MustInsert(relation.Row{relation.IntVal(7)})
	cat.Add("t", tbl)
	out, err := sqlmini.RunWith(ctx, sql, cat, sqlmini.Options{Cache: cache})
	if err != nil {
		t.Fatalf("after the table appeared: %v", err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].I != 7 {
		t.Fatalf("answered %v, want [[7]]", out.Rows)
	}
	if n := cache.Plans(sql); n != 1 {
		t.Fatalf("%d plans kept, want 1", n)
	}
}

// The cache keeps at most StmtCacheCap texts, and a text at most
// StmtPlansCap plans, however many it has seen.
func TestStatementCacheBounded(t *testing.T) {
	ctx := context.Background()
	cache := sqlmini.NewExecCache()
	tbl := relation.NewTable("t", relation.MustSchema(relation.Column{Name: "a", Type: relation.Int}))
	tbl.MustInsert(relation.Row{relation.IntVal(1)})
	cat := sqlmini.MapCatalog{"t": tbl}
	for i := 0; i < 2*sqlmini.StmtCacheCap+3; i++ {
		if _, err := sqlmini.RunWith(ctx, fmt.Sprintf("SELECT a + %d AS x FROM t", i), cat, sqlmini.Options{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		if n := sqlmini.Statements(cache); n > sqlmini.StmtCacheCap {
			t.Fatalf("after %d texts the cache keeps %d, cap %d", i+1, n, sqlmini.StmtCacheCap)
		}
	}

	const sql = "SELECT count(*) AS n FROM t"
	for i := 0; i < 2*sqlmini.StmtPlansCap+1; i++ {
		cols := []relation.Column{{Name: "a", Type: relation.Int}}
		for j := 0; j < i; j++ {
			cols = append(cols, relation.Column{Name: fmt.Sprint("pad", j), Type: relation.Int})
		}
		cat := sqlmini.MapCatalog{"t": relation.NewTable("t", relation.MustSchema(cols...))}
		if _, err := sqlmini.RunWith(ctx, sql, cat, sqlmini.Options{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		if n := cache.Plans(sql); n < 1 || n > sqlmini.StmtPlansCap {
			t.Fatalf("after %d schemas the text keeps %d plans, want 1..%d", i+1, n, sqlmini.StmtPlansCap)
		}
	}
}

// Eight goroutines run one cached statement at once, half of them over
// pruned tables, so plans are prepared, kept and reused concurrently; run
// it under -race. Every answer is the uncached one.
func TestStatementConcurrent(t *testing.T) {
	tables, err := tpch.Generate(tpch.Config{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := sqlmini.MapCatalog(tables)
	q, err := tpch.QueryByID("Q10")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := sqlmini.RunWith(ctx, q.SQL, full, sqlmini.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlmini.Parse(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	fetched, _ := fetchAll(t, stmt, full)
	pruned := sqlmini.MapCatalog(fetched)
	cache := sqlmini.NewExecCache()
	const goroutines, runs = 8, 4
	got := make([][]*relation.Table, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		cat := full
		if g%2 == 1 {
			cat = pruned
		}
		wg.Add(1)
		go func(g int, cat sqlmini.MapCatalog) {
			defer wg.Done()
			for r := 0; r < runs && errs[g] == nil; r++ {
				var out *relation.Table
				out, errs[g] = sqlmini.RunWith(ctx, q.SQL, cat, sqlmini.Options{Cache: cache})
				got[g] = append(got[g], out)
			}
		}(g, cat)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for _, out := range got[g] {
			sqlmini.RequireSameTable(t, q.ID, want, out)
		}
	}
	if n := cache.Plans(q.SQL); n != 2 {
		t.Fatalf("%d plans kept, want 2 (full and pruned)", n)
	}
}

// A statement renders each table's pushdown once: the memo answers what
// PushdownFor answers, and a repeated call allocates nothing.
func TestStatementPushdownMemo(t *testing.T) {
	for _, q := range tpch.Queries() {
		st, err := sqlmini.NewExecCache().Statement(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for _, table := range st.Tables {
			wantSQL, wantOK := sqlmini.PushdownFor(st.Stmt, table)
			for i := 0; i < 2; i++ {
				if sql, ok := st.Pushdown(table); sql != wantSQL || ok != wantOK {
					t.Fatalf("%s, %s: Pushdown = %q, %v; PushdownFor = %q, %v", q.ID, table, sql, ok, wantSQL, wantOK)
				}
			}
			if n := testing.AllocsPerRun(5, func() { st.Pushdown(table) }); n != 0 {
				t.Errorf("%s, %s: a memoized pushdown allocates %.0f", q.ID, table, n)
			}
		}
	}
}
