package relation

import (
	"fmt"
	"strings"
)

// Column is one named, typed attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. Column names are matched
// case-insensitively, following SQL convention.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema and validates that column names are non-empty
// and unique (case-insensitively).
func NewSchema(cols ...Column) (Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		name := strings.ToLower(c.Name)
		if name == "" {
			return Schema{}, fmt.Errorf("relation: empty column name")
		}
		if seen[name] {
			return Schema{}, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		if c.Type < Int || c.Type > Date {
			return Schema{}, fmt.Errorf("relation: column %q has invalid type %d", c.Name, int(c.Type))
		}
		seen[name] = true
	}
	return Schema{Cols: cols}, nil
}

// MustSchema is NewSchema for static schema literals; it panics on error.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColIndex returns the position of the named column, or -1 if absent.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// String renders "name type, name type, ...".
func (s Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Row is one tuple; its cells align positionally with a schema.
type Row []Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a named, schema-ful collection of rows.
type Table struct {
	Name   string
	Schema Schema
	Rows   []Row
	// image is the columnar form the rows were built from
	// (ColTable.ToTable), kept so the VM and the wire encoder need not
	// re-derive it. Whatever reorders or resizes Rows in place drops it.
	image *ColTable
}

// Image returns the table's columnar image, or nil when it has none or
// the image no longer describes the table: Rows and Schema are public, so
// the row count and the column types are re-checked on every call.
func (t *Table) Image() *ColTable {
	if c := t.image; c != nil && c.Describes(t) {
		return c
	}
	return nil
}

// Describes reports whether c can stand for t's rows: the same row count
// and, column for column, the same types as t's schema.
func (c *ColTable) Describes(t *Table) bool {
	if c.N != len(t.Rows) || len(c.Cols) != len(t.Schema.Cols) {
		return false
	}
	for i := range c.Cols {
		if c.Cols[i].T != t.Schema.Cols[i].Type {
			return false
		}
	}
	return true
}

// NewTable returns an empty table.
func NewTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Insert appends rows after checking each one's arity and types: all of
// them, or none if one fails.
func (t *Table) Insert(rows ...Row) error {
	for ri, r := range rows {
		if len(r) != t.Schema.Arity() {
			return fmt.Errorf("relation: table %s: row %d: arity %d, want %d", t.Name, ri, len(r), t.Schema.Arity())
		}
		for i, v := range r {
			if v.T != t.Schema.Cols[i].Type {
				return fmt.Errorf("relation: table %s: row %d: column %s wants %s, got %s",
					t.Name, ri, t.Schema.Cols[i].Name, t.Schema.Cols[i].Type, v.T)
			}
		}
	}
	t.Rows = append(t.Rows, rows...)
	t.image = nil
	return nil
}

// MustInsert inserts and panics on a type error; for generators whose rows
// are correct by construction.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// Clone returns a snapshot copy of the table: fresh row slice and fresh
// rows, sharing only immutable Values. It is how the replication manager
// materializes replica versions.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Schema: t.Schema, Rows: make([]Row, len(t.Rows))}
	for i, r := range t.Rows {
		out.Rows[i] = r.Clone()
	}
	return out
}

// SizeBytes estimates the in-memory payload size of the table, used by cost
// models that charge by data volume.
func (t *Table) SizeBytes() int64 {
	var size int64
	for _, r := range t.Rows {
		for _, v := range r {
			switch v.T {
			case Str:
				size += int64(len(v.S))
			default:
				size += 8
			}
		}
	}
	return size
}
