package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"ivdss/internal/relation"
)

// Expr is a scalar or boolean expression evaluated per row.
type Expr interface {
	// String renders the expression back to (approximate) SQL.
	String() string
}

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Qualifier string // "" when unqualified
	Name      string
}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct {
	Val relation.Value
}

func (l *Literal) String() string {
	switch l.Val.T {
	case relation.Str:
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case relation.Date:
		return "DATE '" + l.Val.String() + "'"
	case relation.Float:
		// The shortest digits that reparse to the same Float (so with a
		// decimal point): rendered SQL ships to remotes, where four decimals
		// would turn `o_total = 0.12345` into a different predicate.
		s := strconv.FormatFloat(l.Val.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return l.Val.String()
	}
}

// BinaryExpr applies an arithmetic, comparison, or logical operator.
type BinaryExpr struct {
	Op          string // +, -, *, /, =, <>, <, <=, >, >=, AND, OR
	Left, Right Expr
}

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	Inner Expr
}

func (n *NotExpr) String() string { return "NOT (" + n.Inner.String() + ")" }

// BetweenExpr is `subject BETWEEN lo AND hi` (inclusive).
type BetweenExpr struct {
	Subject, Lo, Hi Expr
}

func (b *BetweenExpr) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.Subject, b.Lo, b.Hi)
}

// InExpr is `subject IN (literal, ...)`.
type InExpr struct {
	Subject Expr
	Options []Expr
}

func (e *InExpr) String() string {
	opts := make([]string, len(e.Options))
	for i, o := range e.Options {
		opts[i] = o.String()
	}
	return fmt.Sprintf("(%s IN (%s))", e.Subject, strings.Join(opts, ", "))
}

// LikeExpr matches a string column against a pattern with % wildcards.
type LikeExpr struct {
	Subject Expr
	Pattern string
}

func (e *LikeExpr) String() string {
	return fmt.Sprintf("(%s LIKE '%s')", e.Subject, strings.ReplaceAll(e.Pattern, "'", "''"))
}

// AggExpr is an aggregate call. Star marks COUNT(*).
type AggExpr struct {
	Fn   relation.AggFn
	Arg  Expr // nil when Star
	Star bool
}

func (a *AggExpr) String() string {
	if a.Star {
		return "count(*)"
	}
	if a.Fn == relation.CountDistinct {
		return fmt.Sprintf("count(distinct %s)", a.Arg)
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Arg)
}

// SelectItem is one output column of a SELECT. A nil Expr with Star set
// expands to every column of the joined input.
type SelectItem struct {
	Expr  Expr
	Alias string // "" means derive a name from the expression
	Star  bool
}

// TableRef names a table in FROM, with an optional alias.
type TableRef struct {
	Name  string
	Alias string // defaults to Name
}

// EffectiveAlias returns the alias, or the table name when none was given.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one `JOIN table ON cond` step.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is the root of a parsed query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []JoinClause
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// TableNames returns the distinct table names the statement reads, in
// first-appearance order. The planner uses this to map a SQL text onto the
// catalog's base tables.
func (s *SelectStmt) TableNames() []string {
	seen := make(map[string]bool)
	var names []string
	add := func(name string) {
		key := strings.ToLower(name)
		if !seen[key] {
			seen[key] = true
			names = append(names, name)
		}
	}
	for _, t := range s.From {
		add(t.Name)
	}
	for _, j := range s.Joins {
		add(j.Table.Name)
	}
	return names
}
