package sqlmini_test

import (
	"context"
	"runtime"
	"testing"

	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// tpchPrepared compiles the 22 TPC-H templates over a scale-1 catalog and
// warms one shared ExecCache, the micro-batch steady state.
func tpchPrepared(tb testing.TB) (sqlmini.MapCatalog, *sqlmini.ExecCache, []tpch.Query, []*sqlmini.Prepared) {
	tb.Helper()
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cat := sqlmini.MapCatalog(tables)
	cache := sqlmini.NewExecCache()
	queries := tpch.Queries()
	preps := make([]*sqlmini.Prepared, len(queries))
	for i, q := range queries {
		stmt, err := sqlmini.Parse(q.SQL)
		if err != nil {
			tb.Fatalf("%s: %v", q.ID, err)
		}
		if preps[i], err = sqlmini.Prepare(stmt, cat); err != nil {
			tb.Fatalf("%s: %v", q.ID, err)
		}
		if _, err := preps[i].ExecuteContext(context.Background(), cat, cache); err != nil {
			tb.Fatalf("%s: %v", q.ID, err)
		}
	}
	return cat, cache, queries, preps
}

// preChangeAllocBytes is what one warm execution of each template
// allocated (MemStats.TotalAlloc delta, scale 1, seed 1) while the VM
// still widened a ColTable at every join and filter.
var preChangeAllocBytes = map[string]uint64{
	"Q1":  3_947_624,
	"Q2":  1_013_232,
	"Q3":  2_594_504,
	"Q4":  1_650_720,
	"Q5":  3_015_712,
	"Q6":  208_384,
	"Q7":  11_029_744,
	"Q8":  19_437_600,
	"Q9":  12_701_232,
	"Q10": 4_837_312,
	"Q11": 410_064,
	"Q12": 1_734_072,
	"Q13": 1_028_248,
	"Q14": 1_857_104,
	"Q15": 1_661_960,
	"Q16": 866_440,
	"Q17": 1_898_688,
	"Q18": 9_690_296,
	"Q19": 2_598_336,
	"Q20": 558_128,
	"Q21": 5_470_064,
	"Q22": 105_216,
}

// TestVMAllocBudget guards late materialization and filtering before
// joins: the 22 templates together must allocate at most 10 % of what the
// eager representation did. Bytes allocated are all but deterministic, so
// this needs no timing slack.
func TestVMAllocBudget(t *testing.T) {
	cat, cache, queries, preps := tpchPrepared(t)
	var total, before uint64
	var ms runtime.MemStats
	for i, q := range queries {
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		if _, err := preps[i].ExecuteContext(context.Background(), cat, cache); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		runtime.ReadMemStats(&ms)
		got := ms.TotalAlloc - start
		t.Logf("%-4s %9d B (pre-change %9d B)", q.ID, got, preChangeAllocBytes[q.ID])
		total += got
		before += preChangeAllocBytes[q.ID]
	}
	if budget := before * 10 / 100; total > budget {
		t.Fatalf("22 templates allocate %d B per pass, budget %d B (10%% of the pre-change %d B)", total, budget, before)
	}
}

// preFrameAllocBytes is what one warm execution of each template
// allocated (MemStats.TotalAlloc delta, scale 1, seed 1) while every stage
// still allocated its own register files, selections, row-id vectors,
// pair lists and derived columns, before executions drew them from a
// scratch frame of the ExecCache.
var preFrameAllocBytes = map[string]uint64{
	"Q1":  1_092_888,
	"Q2":  36_104,
	"Q3":  81_984,
	"Q4":  65_072,
	"Q5":  213_616,
	"Q6":  155_216,
	"Q7":  708_656,
	"Q8":  11_768,
	"Q9":  346_984,
	"Q10": 172_608,
	"Q11": 119_608,
	"Q12": 399_184,
	"Q13": 197_472,
	"Q14": 59_496,
	"Q15": 221_920,
	"Q16": 339_248,
	"Q17": 109_560,
	"Q18": 1_304_960,
	"Q19": 990_520,
	"Q20": 28_152,
	"Q21": 640_584,
	"Q22": 27_360,
}

// TestVMWarmFrameBudget guards the executions' scratch frames: with the
// cache warm, the 22 templates together must allocate at most half of
// what they did when every stage allocated its own buffers.
func TestVMWarmFrameBudget(t *testing.T) {
	cat, cache, queries, preps := tpchPrepared(t)
	var total, before uint64
	var ms runtime.MemStats
	for i, q := range queries {
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		if _, err := preps[i].ExecuteContext(context.Background(), cat, cache); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		runtime.ReadMemStats(&ms)
		got := ms.TotalAlloc - start
		t.Logf("%-4s %9d B (before frames %9d B)", q.ID, got, preFrameAllocBytes[q.ID])
		total += got
		before += preFrameAllocBytes[q.ID]
	}
	if budget := before / 2; total > budget {
		t.Fatalf("22 templates allocate %d B per warm pass, budget %d B (half of the %d B before frames)", total, budget, before)
	}
}

// BenchmarkVMTemplates times and sizes one warm execution per template,
// the per-layer twin of the ledger's sqlmini.exec_* counters.
func BenchmarkVMTemplates(b *testing.B) {
	cat, cache, queries, preps := tpchPrepared(b)
	ctx := context.Background()
	for i, q := range queries {
		prep := preps[i]
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prep.ExecuteContext(ctx, cat, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewApply times and sizes one refresh of the Q1 view the way
// the server's sync agent drives it: fold a 100-row lineitem delta into
// the compiled view program, then render its answer. The program starts
// warm, with all of lineitem (tpch scale 1) folded in.
func BenchmarkViewApply(b *testing.B) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lineitem := tables[tpch.LineItem]
	q, err := tpch.QueryByID("Q1")
	if err != nil {
		b.Fatal(err)
	}
	stmt, err := sqlmini.Parse(q.SQL)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sqlmini.CompileView(stmt, lineitem.Schema)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := prog.Apply(ctx, lineitem.Rows); err != nil {
		b.Fatal(err)
	}
	delta := lineitem.Rows[:100]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog.Apply(ctx, delta); err != nil {
			b.Fatal(err)
		}
		if _, err := prog.Result(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareTemplates sizes planning: one pass prepares all 22
// templates over a scale-1 catalog (parsing excluded), the work every DSS
// query pays before it executes.
func BenchmarkPrepareTemplates(b *testing.B) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cat := sqlmini.MapCatalog(tables)
	queries := tpch.Queries()
	stmts := make([]*sqlmini.SelectStmt, len(queries))
	for i, q := range queries {
		if stmts[i], err = sqlmini.Parse(q.SQL); err != nil {
			b.Fatalf("%s: %v", q.ID, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, stmt := range stmts {
			if _, err := sqlmini.Prepare(stmt, cat); err != nil {
				b.Fatalf("%s: %v", queries[j].ID, err)
			}
		}
	}
}
