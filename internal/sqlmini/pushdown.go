package sqlmini

import (
	"errors"
	"fmt"
	"strings"

	"ivdss/internal/relation"
)

// PushdownFor derives what the remote site owning one table must ship for
// the statement: "SELECT <read-set> FROM <table> [WHERE <pred>]", where the
// read-set is every column the statement reads from the table (readSet)
// and pred is the conjunction of the WHERE conjuncts that read only that
// table, their qualifiers stripped so they bind against the bare table.
// In a one-table statement unqualified references are the table's, so its
// whole WHERE travels.
//
// ok is false, and the caller fetches the whole table, when readSet cannot
// list the columns from the statement alone, or lists none (count(*) over
// the table). A table read under more than one alias (e.g. `nation n1,
// nation n2`) ships the union of its aliases' columns and no filter: one
// fetched row set must serve every alias, so one alias's filter would drop
// rows another needs.
//
// The fetch is only ever narrower than the table: the DSS executor runs
// the full statement, WHERE included, over what arrives, so pruning and
// filtering change bytes moved, never results.
func PushdownFor(stmt *SelectStmt, table string) (sql string, ok bool) {
	aliases := aliasesOf(stmt, table)
	cols, err := readSet(stmt, table)
	if len(aliases) == 0 || err != nil || len(cols) == 0 {
		return "", false
	}
	var pushed []string
	if len(aliases) == 1 {
		for _, c := range splitConjuncts(stmt.Where) {
			// readSet attributed every reference, so a conjunct left with
			// no qualifier once the table's is stripped reads it alone.
			if c = stripQualifier(c, aliases[0]); allRefsQualifiedBy(c, "") {
				pushed = append(pushed, c.String())
			}
		}
	}
	return WireSQL(table, strings.Join(pushed, " AND "), cols), true
}

// errReadsStar is readSet's answer for a statement with a `*` item: it
// reads every column, which only the table's schema can list.
var errReadsStar = errors.New("statement selects *")

// readSet lists the columns the statement reads from the table: every
// column reference in the SELECT items, WHERE, JOIN ON, GROUP BY, HAVING
// and ORDER BY, minus an unqualified ORDER BY reference to an output name
// (that sorts the result, as project resolves it, and reads no base
// column), deduplicated case-insensitively in first-appearance order. In a
// one-table statement an unqualified reference is the table's; a reference
// qualified by another of the statement's aliases belongs to another
// table. A reference it cannot attribute — unqualified among several
// tables, or under an alias the statement does not define — is an error,
// and so, once every reference has been checked, is a `*` item
// (errReadsStar).
//
// PushdownFor and ViewWire both ship what this returns, so a base fetch
// and a view's delta stream are one derivation.
func readSet(stmt *SelectStmt, table string) ([]string, error) {
	var refs []*ColumnRef
	var outs []relation.Column
	star := false
	for i, it := range stmt.Items {
		if it.Star {
			star = true
			continue
		}
		collectColumnRefs(it.Expr, &refs)
		outs = append(outs, relation.Column{Name: dedupeName(outs, itemName(it), i)})
	}
	collectColumnRefs(stmt.Where, &refs)
	for _, jc := range stmt.Joins {
		collectColumnRefs(jc.On, &refs)
	}
	for _, g := range stmt.GroupBy {
		collectColumnRefs(g, &refs)
	}
	collectColumnRefs(stmt.Having, &refs)
	for _, o := range stmt.OrderBy {
		if ref, ok := o.Expr.(*ColumnRef); ok && ref.Qualifier == "" && (relation.Schema{Cols: outs}).ColIndex(ref.Name) >= 0 {
			continue
		}
		collectColumnRefs(o.Expr, &refs)
	}

	// mine maps each alias of the statement to whether it names the table.
	mine := make(map[string]bool)
	for _, ref := range stmt.From {
		mine[strings.ToLower(ref.EffectiveAlias())] = strings.EqualFold(ref.Name, table)
	}
	for _, jc := range stmt.Joins {
		mine[strings.ToLower(jc.Table.EffectiveAlias())] = strings.EqualFold(jc.Table.Name, table)
	}
	oneTable := len(stmt.From)+len(stmt.Joins) == 1
	seen := make(map[string]bool)
	var cols []string
	for _, r := range refs {
		own, known := mine[strings.ToLower(r.Qualifier)]
		switch {
		case r.Qualifier == "" && !oneTable:
			return nil, fmt.Errorf("unqualified column %s in a statement over several tables", r)
		case r.Qualifier != "" && !known:
			return nil, fmt.Errorf("column %s qualified by unknown alias", r)
		case r.Qualifier != "" && !own:
			continue // another table's column
		}
		if key := strings.ToLower(r.Name); !seen[key] {
			seen[key] = true
			cols = append(cols, r.Name)
		}
	}
	if star {
		return nil, errReadsStar
	}
	return cols, nil
}

// aliasesOf lists the distinct aliases under which the statement reads the
// table.
func aliasesOf(stmt *SelectStmt, table string) []string {
	var out []string
	add := func(ref TableRef) {
		if strings.EqualFold(ref.Name, table) {
			out = append(out, ref.EffectiveAlias())
		}
	}
	for _, ref := range stmt.From {
		add(ref)
	}
	for _, jc := range stmt.Joins {
		add(jc.Table)
	}
	return out
}

// allRefsQualifiedBy reports whether every column reference in the
// expression carries the given qualifier (case-insensitively). An
// expression with no column references (a constant predicate) also
// qualifies. Aggregates never push down.
func allRefsQualifiedBy(e Expr, alias string) bool {
	if hasAgg(e) {
		return false
	}
	var refs []*ColumnRef
	collectColumnRefs(e, &refs)
	for _, r := range refs {
		if !strings.EqualFold(r.Qualifier, alias) {
			return false
		}
	}
	return true
}

// stripQualifier returns a copy of the expression with the alias qualifier
// removed from every column reference, so it binds against the bare table
// at the remote site.
func stripQualifier(e Expr, alias string) Expr {
	switch x := e.(type) {
	case *Literal:
		return x
	case *ColumnRef:
		if strings.EqualFold(x.Qualifier, alias) {
			return &ColumnRef{Name: x.Name}
		}
		return x
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: stripQualifier(x.Left, alias), Right: stripQualifier(x.Right, alias)}
	case *NotExpr:
		return &NotExpr{Inner: stripQualifier(x.Inner, alias)}
	case *BetweenExpr:
		return &BetweenExpr{
			Subject: stripQualifier(x.Subject, alias),
			Lo:      stripQualifier(x.Lo, alias),
			Hi:      stripQualifier(x.Hi, alias),
		}
	case *InExpr:
		opts := make([]Expr, len(x.Options))
		for i, o := range x.Options {
			opts[i] = stripQualifier(o, alias)
		}
		return &InExpr{Subject: stripQualifier(x.Subject, alias), Options: opts}
	case *LikeExpr:
		return &LikeExpr{Subject: stripQualifier(x.Subject, alias), Pattern: x.Pattern}
	default:
		return x
	}
}
