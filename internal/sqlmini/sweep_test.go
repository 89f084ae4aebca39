package sqlmini_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// The join sweep draws random comma-join SELECTs over a TPC-H catalog and
// holds the VM to the tree walk on each, to the float bit: 2–5 tables
// joined on their foreign keys, WHERE conjuncts of every kind the planner
// places (one table, several tables, OR, BETWEEN/IN/LIKE, constant, and
// conjuncts that can fail on a row), sometimes a cross product past
// maxCrossRows, and either a GROUP BY with float sums or a bare
// projection, whose row order is the join order itself.

// sweepTable is one table of the draw: its alias and the conjuncts and
// columns the generator may use on it.
type sweepTable struct {
	name, alias string
	preds       []string // one-table conjuncts
	fallible    []string // one-table conjuncts that can fail on a row
	floats      []string // Float columns, for sums and cross-table terms
	ints        []string // Int columns, for divisors
	groups      []string // Int or Str columns to group or project by
}

var sweepTables = []sweepTable{
	{name: "lineitem", alias: "l",
		preds: []string{"l.l_quantity < 25", "l.l_discount BETWEEN 0.02 AND 0.06", "l.l_shipdate < '1995-06-01'",
			"l.l_returnflag IN ('R', 'A')", "l.l_shipmode LIKE '%AIR%'", "NOT l.l_linestatus = 'F'"},
		fallible: []string{"l.l_quantity / (l.l_linenumber - 1) > 2", "l.l_shipmode > DATE '1995-01-01'"},
		floats:   []string{"l.l_extendedprice", "l.l_discount", "l.l_quantity"},
		ints:     []string{"l.l_linenumber", "l.l_suppkey"},
		groups:   []string{"l.l_returnflag", "l.l_linenumber", "l.l_shipmode"}},
	{name: "orders", alias: "o",
		preds: []string{"o.o_totalprice > 150000", "o.o_orderdate BETWEEN DATE '1994-01-01' AND DATE '1996-12-31'",
			"o.o_orderpriority IN ('1-URGENT', '2-HIGH')", "o.o_orderstatus <> 'F'"},
		fallible: []string{"o.o_totalprice / (o.o_orderkey - 3) > 10"},
		floats:   []string{"o.o_totalprice"},
		ints:     []string{"o.o_custkey", "o.o_orderkey"},
		groups:   []string{"o.o_orderstatus", "o.o_orderpriority"}},
	{name: "customer", alias: "c",
		preds:    []string{"c.c_acctbal > 0", "c.c_mktsegment LIKE 'B%'", "c.c_custkey BETWEEN 10 AND 90"},
		fallible: []string{"c.c_acctbal / (c.c_nationkey - 7) < 1000", "c.c_mktsegment < DATE '1995-01-01'"},
		floats:   []string{"c.c_acctbal"},
		ints:     []string{"c.c_nationkey"},
		groups:   []string{"c.c_mktsegment", "c.c_nationkey"}},
	{name: "supplier", alias: "s",
		preds:    []string{"s.s_acctbal < 5000", "s.s_suppkey IN (1, 3, 5, 7)", "s.s_name LIKE '%0%'"},
		fallible: []string{"s.s_acctbal / (s.s_suppkey - 2) > 0"},
		floats:   []string{"s.s_acctbal"},
		ints:     []string{"s.s_suppkey", "s.s_nationkey"},
		groups:   []string{"s.s_name", "s.s_nationkey"}},
	{name: "part", alias: "p",
		preds:    []string{"p.p_size BETWEEN 5 AND 20", "p.p_type LIKE '%STEEL'", "p.p_brand <> 'Brand#23'"},
		fallible: []string{"p.p_retailprice / (p.p_size - 10) > 1"},
		floats:   []string{"p.p_retailprice"},
		ints:     []string{"p.p_size"},
		groups:   []string{"p.p_brand", "p.p_size"}},
	{name: "partsupp", alias: "ps",
		preds:    []string{"ps.ps_availqty > 5000", "ps.ps_supplycost < 500"},
		fallible: []string{"ps.ps_supplycost / (ps.ps_availqty - 100) > 0"},
		floats:   []string{"ps.ps_supplycost"},
		ints:     []string{"ps.ps_suppkey"},
		groups:   []string{"ps.ps_suppkey"}},
	{name: "nation", alias: "n",
		preds:    []string{"n.n_name IN ('FRANCE', 'GERMANY', 'BRAZIL', 'CHINA')", "n.n_regionkey <> 2", "n.n_name LIKE 'I%'"},
		fallible: []string{"n.n_regionkey / (n.n_nationkey - 5) >= 0"},
		ints:     []string{"n.n_nationkey", "n.n_regionkey"},
		groups:   []string{"n.n_name", "n.n_regionkey"}},
	{name: "region", alias: "r",
		preds:    []string{"r.r_name <> 'ASIA'", "r.r_regionkey BETWEEN 1 AND 3"},
		fallible: []string{"r.r_regionkey / (r.r_regionkey - 2) >= 0"},
		ints:     []string{"r.r_regionkey"},
		groups:   []string{"r.r_name"}},
}

// sweepEdges are the foreign-key joins, by index into sweepTables.
var sweepEdges = []struct {
	a, b int
	eq   string
}{
	{0, 1, "l.l_orderkey = o.o_orderkey"},
	{0, 4, "l.l_partkey = p.p_partkey"},
	{0, 3, "l.l_suppkey = s.s_suppkey"},
	{1, 2, "o.o_custkey = c.c_custkey"},
	{2, 6, "c.c_nationkey = n.n_nationkey"},
	{3, 6, "s.s_nationkey = n.n_nationkey"},
	{6, 7, "n.n_regionkey = r.r_regionkey"},
	{5, 4, "ps.ps_partkey = p.p_partkey"},
	{5, 3, "ps.ps_suppkey = s.s_suppkey"},
}

// sweepConflicts are the pairs never drawn together: each would fan one
// parent out to two child tables (supplier to lineitem and partsupp,
// nation to customer and supplier) and multiply the rows the tree walk
// materializes.
var sweepConflicts = [][2]int{{0, 5}, {2, 3}}

// sweepQuery draws one statement from rng. Tables grow by foreign-key
// edges from a random start, never into a conflicting pair. One draw in
// eight is a cross draw: it grows from lineitem without orders, then adds
// orders unjoined and never first, so the cross step comes last and
// multiplies at least lineitem's rows by orders'. That is past
// maxCrossRows at scale 1, so both engines must refuse it however
// selective the WHERE, and a cross draw always filters lineitem hard.
func sweepQuery(rng *rand.Rand) string {
	cross := rng.Intn(8) == 0
	in := map[int]bool{rng.Intn(len(sweepTables)): true}
	if cross {
		in = map[int]bool{0: true}
	}
	for want := 2 + rng.Intn(4); len(in) < want; {
		var next []int
		for _, e := range sweepEdges {
			for _, pair := range [2][2]int{{e.a, e.b}, {e.b, e.a}} {
				if in[pair[0]] && !in[pair[1]] && !conflicts(in, pair[1]) && !(cross && pair[1] == 1) {
					next = append(next, pair[1])
				}
			}
		}
		if len(next) == 0 {
			break
		}
		in[next[rng.Intn(len(next))]] = true
	}
	var conj []string
	for _, e := range sweepEdges {
		if in[e.a] && in[e.b] {
			conj = append(conj, e.eq)
		}
	}
	tables := make([]int, 0, len(in)+1)
	for i := range sweepTables {
		if in[i] {
			tables = append(tables, i)
		}
	}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	if cross {
		// a selective filter that, run before the cross step, would bring
		// it under the limit
		conj = append(conj, "l.l_quantity < 10")
		tables = append(tables, 0)
		copy(tables[2:], tables[1:])
		tables[1+rng.Intn(len(tables)-1)] = 1 // orders goes anywhere but first
		in[1] = true
	}

	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	table := func() sweepTable { return sweepTables[tables[rng.Intn(len(tables))]] }
	pred := func() string {
		t := table()
		if len(t.fallible) > 0 && rng.Intn(5) == 0 {
			return pick(t.fallible)
		}
		return pick(t.preds)
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(8) {
		case 0: // OR across tables, Q19's shape
			conj = append(conj, fmt.Sprintf("(%s AND %s OR %s)", pred(), pred(), pred()))
		case 1: // a cross-table comparison
			a, b := table(), table()
			if len(a.floats) > 0 && len(b.floats) > 0 {
				conj = append(conj, fmt.Sprintf("%s < %s * %d", pick(a.floats), pick(b.floats), 1+rng.Intn(500)))
			}
		case 2: // a cross-table term that can divide by zero
			a, b := table(), table()
			if len(a.floats) > 0 {
				conj = append(conj, fmt.Sprintf("%s / (%s - %d) > 0", pick(a.floats), pick(b.ints), rng.Intn(4)))
			}
		case 3:
			conj = append(conj, pick([]string{"1 = 1", "1 = 0", "2 > 1"}))
		default:
			conj = append(conj, pred())
		}
	}
	rng.Shuffle(len(conj), func(i, j int) { conj[i], conj[j] = conj[j], conj[i] })

	var from []string
	var floats, groups []string
	for _, i := range tables {
		t := sweepTables[i]
		from = append(from, t.name+" "+t.alias)
		floats = append(floats, t.floats...)
		groups = append(groups, t.groups...)
	}
	where := strings.Join(conj, " AND ")
	if rng.Intn(3) == 0 { // a bare projection: the join order is the answer's
		return fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s",
			pick(groups), pick(groups), strings.Join(from, ", "), where)
	}
	sum := "count(*)"
	if len(floats) > 0 {
		sum = fmt.Sprintf("sum(%s * (1 - %s)), sum(%s)", pick(floats), pick(floats), pick(floats))
	}
	if rng.Intn(4) == 0 {
		return fmt.Sprintf("SELECT count(*), %s FROM %s WHERE %s", sum, strings.Join(from, ", "), where)
	}
	g := pick(groups)
	return fmt.Sprintf("SELECT %s, count(*), %s FROM %s WHERE %s GROUP BY %s",
		g, sum, strings.Join(from, ", "), where, g)
}

// conflicts reports whether adding table t to the set would draw a
// conflicting pair.
func conflicts(in map[int]bool, t int) bool {
	for _, c := range sweepConflicts {
		if t == c[0] && in[c[1]] || t == c[1] && in[c[0]] {
			return true
		}
	}
	return false
}

var sweepCatalog = sync.OnceValues(func() (sqlmini.MapCatalog, error) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 7})
	return sqlmini.MapCatalog(tables), err
})

// sweepOne runs one drawn statement on the tree walk and on the VM: once
// with no cache (the size rule picks each build side, so small working
// sides are built and probed back into left-major order) and twice on the
// shared cache (the second run builds over every right input).
func sweepOne(t *testing.T, cat sqlmini.Catalog, cache *sqlmini.ExecCache, q string) (failed bool) {
	t.Helper()
	stmt, err := sqlmini.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	ctx := context.Background()
	tree, treeErr := sqlmini.ExecuteWith(ctx, stmt, cat, sqlmini.Options{Engine: sqlmini.EngineTreeWalk})
	for run, c := range []*sqlmini.ExecCache{nil, cache, cache} {
		vm, vmErr := sqlmini.ExecuteWith(ctx, stmt, cat, sqlmini.Options{Cache: c})
		switch {
		case (treeErr == nil) != (vmErr == nil):
			t.Fatalf("%q, run %d: tree walk error %v, vm error %v", q, run, treeErr, vmErr)
		case treeErr == nil:
			sqlmini.RequireSameTable(t, q, tree, vm)
		}
	}
	return treeErr != nil
}

// TestJoinSweep is the fixed-seed sweep: 120 draws, well under 3 s.
func TestJoinSweep(t *testing.T) {
	cat, err := sweepCatalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	cache := sqlmini.NewExecCache()
	failed := 0
	for i := 0; i < 120; i++ {
		if sweepOne(t, cat, cache, sweepQuery(rng)) {
			failed++
		}
	}
	// Both classes must be well represented, or the sweep proves little.
	if failed < 10 || failed > 60 {
		t.Fatalf("%d of 120 draws failed on the tree walk; want both outcomes well represented", failed)
	}
}

// FuzzJoinSweep explores the draw's seed space.
func FuzzJoinSweep(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 37} {
		f.Add(seed)
	}
	cat, err := sweepCatalog()
	if err != nil {
		f.Fatal(err)
	}
	cache := sqlmini.NewExecCache()
	f.Fuzz(func(t *testing.T, seed int64) {
		sweepOne(t, cat, cache, sweepQuery(rand.New(rand.NewSource(seed))))
	})
}
