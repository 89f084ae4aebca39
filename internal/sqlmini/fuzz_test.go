package sqlmini

import (
	"context"
	"sort"
	"strings"
	"testing"

	"ivdss/internal/relation"
)

// FuzzParse checks the parser never panics and that accepted statements
// execute identically on the tree-walk oracle and the compiled VM: same
// error class (both fail or both succeed), same output schema, and the
// same multiset of rows.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a, b AS x FROM t WHERE a > 1 AND b <> 'q' ORDER BY x DESC LIMIT 3",
		"SELECT sum(a * (1 - b)) FROM t GROUP BY c HAVING count(*) > 2",
		"SELECT count(DISTINCT a) FROM t, u WHERE t.a = u.a",
		"SELECT a FROM t WHERE d BETWEEN DATE '1995-01-01' AND '1996-01-01'",
		"SELECT a FROM t WHERE s LIKE '%x%' OR a IN (1, 2, 3)",
		"SELECT -a / 2 + 1 FROM t JOIN u ON t.a = u.a",
		"SELECT '" + strings.Repeat("x", 100) + "' FROM t",
		"SELECT",
		"SELECT a FROM",
		"((((",
		"SELECT a FROM t WHERE a = 'unterminated",
		// engine-differential seeds: joins, grouping, ordering, ranges,
		// membership, patterns, arithmetic edge cases, date coercions
		"SELECT t.a, u.a FROM t, u WHERE t.a = u.a",
		"SELECT c, count(*), min(b) FROM t GROUP BY c ORDER BY c",
		"SELECT a, b FROM t ORDER BY b DESC, a LIMIT 2",
		"SELECT a FROM t WHERE b BETWEEN 0 AND 1 AND a NOT IN (7, 9)",
		"SELECT s FROM t WHERE s LIKE 'x%' AND NOT s LIKE '%z'",
		"SELECT a / 0 FROM t",
		"SELECT a / b FROM t WHERE b <> 0",
		"SELECT a FROM t WHERE d > '1990-01-01' OR d = DATE '1995-06-01'",
		"SELECT a FROM t WHERE d > 'notadate'",
		"SELECT a FROM t WHERE s",
		"SELECT a + s FROM t",
		"SELECT sum(a) FROM t HAVING sum(a) > 0",
		// join-shaped seeds for the row-id paths: self-join aliases with a
		// residual, and a cross join narrowed by WHERE
		"SELECT x.a, y.s, u.a FROM t x JOIN t y ON x.a = y.a AND y.b < 1 JOIN u ON u.a = x.c - 1 WHERE x.s LIKE 'x%'",
		"SELECT t.s, u.a / (t.c - 2) FROM t, u WHERE t.b > u.a ORDER BY t.s",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	tbl := relation.NewTable("t", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Int},
		relation.Column{Name: "b", Type: relation.Float},
		relation.Column{Name: "c", Type: relation.Int},
		relation.Column{Name: "s", Type: relation.Str},
		relation.Column{Name: "d", Type: relation.Date},
	))
	tbl.MustInsert(relation.Row{
		relation.IntVal(1), relation.FloatVal(.5), relation.IntVal(2),
		relation.StrVal("xy"), relation.DateOf(1995, 6, 1),
	})
	u := relation.NewTable("u", relation.MustSchema(relation.Column{Name: "a", Type: relation.Int}))
	u.MustInsert(relation.Row{relation.IntVal(1)})
	cat := MapCatalog{"t": tbl, "u": u}

	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted statements must execute (or fail) without panicking,
		// and deterministically.
		r1, err1 := Execute(stmt, cat)
		r2, err2 := Execute(stmt, cat)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic error for %q: %v vs %v", input, err1, err2)
		}
		if err1 == nil && r1.NumRows() != r2.NumRows() {
			t.Fatalf("non-deterministic row count for %q", input)
		}
		// Differential oracle: the compiled VM must agree with the
		// tree-walk on error class, schema, and the multiset of rows.
		// (Row order is identical in practice, but the contract the rest
		// of the system depends on is set semantics plus explicit ORDER
		// BY, so the fuzz oracle compares multisets.)
		rv, errv := ExecuteWith(context.Background(), stmt, cat, Options{Engine: EngineVM})
		if (err1 == nil) != (errv == nil) {
			t.Fatalf("engines disagree on error for %q: tree %v, vm %v", input, err1, errv)
		}
		if err1 != nil {
			return
		}
		if !sameSchema(r1.Schema, rv.Schema) {
			t.Fatalf("engines disagree on schema for %q: tree %v, vm %v", input, r1.Schema, rv.Schema)
		}
		if !sameRowMultiset(r1, rv) {
			t.Fatalf("engines disagree on rows for %q:\ntree: %v\nvm:   %v", input, r1.Rows, rv.Rows)
		}
	})
}

// sameSchema compares column names and types positionally.
func sameSchema(a, b relation.Schema) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}

// sameRowMultiset compares two results as bags of rendered rows.
func sameRowMultiset(a, b *relation.Table) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	key := func(t *relation.Table) []string {
		keys := make([]string, len(t.Rows))
		for i, r := range t.Rows {
			var sb strings.Builder
			for _, v := range r {
				sb.WriteString(v.String())
				sb.WriteByte('\x00')
			}
			keys[i] = sb.String()
		}
		sort.Strings(keys)
		return keys
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
