package sqlmini_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
)

// The view sweep draws random view-maintainable SELECTs over one TPC-H
// table (lineitem or orders, with the join sweep's conjuncts) and feeds
// a prefix of the table into a view program in random chunks, some of
// them empty, with one Reset followed by a replay of every row so far.
// After every chunk the program's Result must equal the tree walk and
// the VM over the rows so far, to the float bit, or all three must fail.
// A chunk whose Apply fails must make both full runs fail too.

// viewSweepQuery draws one statement from rng: a grouping view (GROUP BY
// a column or an expression, or a global aggregate) with sums, averages,
// MIN/MAX, COUNT(DISTINCT …) and sometimes a HAVING that can fail on a
// group, or a detail view with DISTINCT; either may ORDER BY an alias
// or a hidden key and LIMIT.
func viewSweepQuery(rng *rand.Rand) string {
	t := sweepTables[rng.Intn(2)]
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var conj []string
	for n := rng.Intn(3); n > 0; n-- {
		if rng.Intn(5) == 0 {
			conj = append(conj, pick(t.fallible))
		} else {
			conj = append(conj, pick(t.preds))
		}
	}
	from := fmt.Sprintf(" FROM %s %s", t.name, t.alias)
	if len(conj) > 0 {
		from += " WHERE " + strings.Join(conj, " AND ")
	}
	f := pick(t.floats)
	var sel, tail string
	var order []string
	if rng.Intn(4) == 0 { // a detail view
		if rng.Intn(2) == 0 {
			sel = "DISTINCT "
		}
		sel += fmt.Sprintf("%s AS k, %s * %d AS v", pick(t.groups), f, 1+rng.Intn(3))
		order = []string{"k", "v DESC", pick(t.ints), pick(t.floats) + " DESC"}
	} else {
		aggs := []string{
			"count(*)",
			fmt.Sprintf("sum(%s)", f),
			fmt.Sprintf("avg(%s * (1 - %s))", pick(t.floats), pick(t.floats)),
			fmt.Sprintf("min(%s)", pick(t.floats)),
			fmt.Sprintf("max(%s)", pick(t.groups)),
			fmt.Sprintf("count(DISTINCT %s)", pick(t.groups)),
		}
		rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
		items := make([]string, 1+rng.Intn(len(aggs)))
		for i := range items {
			items[i] = fmt.Sprintf("%s AS a%d", aggs[i], i)
			order = append(order, fmt.Sprintf("a%d DESC", i))
		}
		// a hidden key: an aggregate no item selects
		order = append(order, aggs[len(aggs)-1])
		if rng.Intn(5) != 0 {
			key := pick(t.groups)
			if rng.Intn(3) == 0 {
				key = fmt.Sprintf("%s * 2 - %d", pick(t.ints), rng.Intn(3))
			}
			items = append([]string{key + " AS k"}, items...)
			tail = " GROUP BY " + key
			order = append(order, "k")
		}
		sel = strings.Join(items, ", ")
		switch rng.Intn(4) {
		case 0:
			tail += " HAVING count(*) > 1"
		case 1:
			tail += fmt.Sprintf(" HAVING sum(%s) / (count(*) - 2) > 0", f) // fails on a group of two
		}
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		tail += " ORDER BY " + strings.Join(order[:1+rng.Intn(2)], ", ")
	}
	if rng.Intn(3) == 0 {
		tail += fmt.Sprintf(" LIMIT %d", rng.Intn(6))
	}
	return "SELECT " + sel + from + tail
}

// viewSweepOne compiles q as a view, feeds it a random prefix of its
// table in random chunks and holds it to both full engines after each.
// It reports whether the draw ended in an error.
func viewSweepOne(t *testing.T, cat sqlmini.MapCatalog, rng *rand.Rand, q string) (failed bool) {
	t.Helper()
	stmt, err := sqlmini.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	base, err := cat.Table(stmt.From[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sqlmini.CompileView(stmt, base.Schema)
	if err != nil {
		t.Fatalf("%q: CompileView: %v", q, err)
	}
	ctx := context.Background()
	rows := base.Rows[:rng.Intn(len(base.Rows)+1)]
	full := func(n int) (tree, vm *relation.Table, treeErr, vmErr error) {
		part := sqlmini.MapCatalog{base.Name: &relation.Table{Name: base.Name, Schema: base.Schema, Rows: rows[:n]}}
		tree, treeErr = sqlmini.ExecuteWith(ctx, stmt, part, sqlmini.Options{Engine: sqlmini.EngineTreeWalk})
		vm, vmErr = sqlmini.ExecuteWith(ctx, stmt, part, sqlmini.Options{})
		return tree, vm, treeErr, vmErr
	}
	reset := rng.Intn(6) // the chunk after which the program is Reset and replayed
	for n, k := 0, 0; ; k++ {
		label := fmt.Sprintf("%s [%d of %d rows, chunk %d]", q, n, len(rows), k)
		tree, vm, treeErr, vmErr := full(n)
		view, viewErr := prog.Result(ctx)
		if (treeErr == nil) != (vmErr == nil) || (treeErr == nil) != (viewErr == nil) {
			t.Fatalf("%s: tree walk error %v, vm error %v, view error %v", label, treeErr, vmErr, viewErr)
		}
		if treeErr == nil {
			sqlmini.RequireSameTable(t, label+" vm", tree, vm)
			sqlmini.RequireSameTable(t, label+" view", tree, view)
		}
		failed = treeErr != nil
		if n == len(rows) {
			return failed
		}
		chunk := min(rng.Intn(len(rows)/3+2), len(rows)-n)
		if err := prog.Apply(ctx, rows[n:n+chunk]); err != nil {
			if _, _, treeErr, vmErr := full(n + chunk); treeErr == nil || vmErr == nil {
				t.Fatalf("%s: Apply of %d rows failed (%v), tree walk error %v, vm error %v", label, chunk, err, treeErr, vmErr)
			}
			return true
		}
		n += chunk
		if k == reset {
			prog.Reset()
			if err := prog.Apply(ctx, rows[:n]); err != nil {
				t.Fatalf("%s: replay of %d rows after Reset: %v", label, n, err)
			}
		}
	}
}

// TestViewSweep is the fixed-seed view sweep: 150 draws, well under 3 s.
func TestViewSweep(t *testing.T) {
	cat, err := sweepCatalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	failed := 0
	for i := 0; i < 150; i++ {
		if viewSweepOne(t, cat, rng, viewSweepQuery(rng)) {
			failed++
		}
	}
	// Both outcomes must be well represented, or the sweep proves little.
	if failed < 10 || failed > 75 {
		t.Fatalf("%d of 150 draws ended in an error; want both outcomes well represented", failed)
	}
}

// FuzzViewSweep explores the draw's seed space.
func FuzzViewSweep(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 39} {
		f.Add(seed)
	}
	cat, err := sweepCatalog()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		viewSweepOne(t, cat, rng, viewSweepQuery(rng))
	})
}
