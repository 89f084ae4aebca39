package relation

import "fmt"

// BatchRows is the number of rows a columnar execution batch holds. It is
// sized so one batch of vectors (a few typed slices of this length) stays
// comfortably inside L2 while still amortizing per-batch bookkeeping —
// the 1–4k sweet spot for vectorized interpreters.
const BatchRows = 2048

// Vector is one column of values stored contiguously by type: the
// column-vector representation batch execution runs over. Exactly one
// payload slice is populated, selected by T (Date shares Ints, storing
// days since the epoch just like Value does).
type Vector struct {
	T      Type
	Ints   []int64   // Int and Date payload
	Floats []float64 // Float payload
	Strs   []string  // Str payload
}

// NewVector returns an empty vector of the given type with room for
// capHint values.
func NewVector(t Type, capHint int) Vector {
	v := Vector{T: t}
	switch t {
	case Int, Date:
		v.Ints = make([]int64, 0, capHint)
	case Float:
		v.Floats = make([]float64, 0, capHint)
	case Str:
		v.Strs = make([]string, 0, capHint)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.T {
	case Int, Date:
		return len(v.Ints)
	case Float:
		return len(v.Floats)
	case Str:
		return len(v.Strs)
	default:
		return 0
	}
}

// Value materializes the i-th value of the vector.
func (v *Vector) Value(i int) Value {
	switch v.T {
	case Int:
		return Value{T: Int, I: v.Ints[i]}
	case Date:
		return Value{T: Date, I: v.Ints[i]}
	case Float:
		return Value{T: Float, F: v.Floats[i]}
	case Str:
		return Value{T: Str, S: v.Strs[i]}
	default:
		return Value{}
	}
}

// Append adds a value; the caller guarantees x matches the vector type
// (Int and Date payloads are interchangeable at the storage level, so a
// zero Value of the right type appends as zero).
func (v *Vector) Append(x Value) {
	switch v.T {
	case Int, Date:
		v.Ints = append(v.Ints, x.I)
	case Float:
		v.Floats = append(v.Floats, x.F)
	case Str:
		v.Strs = append(v.Strs, x.S)
	}
}

// AppendFrom adds src's i-th value without materializing a Value.
func (v *Vector) AppendFrom(src *Vector, i int) {
	switch v.T {
	case Int, Date:
		v.Ints = append(v.Ints, src.Ints[i])
	case Float:
		v.Floats = append(v.Floats, src.Floats[i])
	case Str:
		v.Strs = append(v.Strs, src.Strs[i])
	}
}

// ColTable is a table in columnar form: one typed Vector per schema
// column, all of length N. It is the execution-time representation the
// bytecode VM and the columnar operators below work on; base tables stay
// row-major and are converted (and cached) at the edge.
type ColTable struct {
	Name   string
	Schema Schema
	N      int
	Cols   []Vector
}

// NewColTable returns an empty columnar table with per-column capacity
// capHint.
func NewColTable(name string, schema Schema, capHint int) *ColTable {
	cols := make([]Vector, schema.Arity())
	for i, c := range schema.Cols {
		cols[i] = NewVector(c.Type, capHint)
	}
	return &ColTable{Name: name, Schema: schema, Cols: cols}
}

// Columnar converts a row-major table to columnar form. Every row must be
// as wide as the schema and every cell must match its declared column
// type; tables built through Insert always are, decoded ones need not be.
func Columnar(t *Table) (*ColTable, error) {
	for ri, r := range t.Rows {
		if len(r) != len(t.Schema.Cols) {
			return nil, fmt.Errorf("relation: columnar %s: row %d has %d cells, schema has %d",
				t.Name, ri, len(r), len(t.Schema.Cols))
		}
	}
	out := NewColTable(t.Name, t.Schema, len(t.Rows))
	for ci := range t.Schema.Cols {
		want := t.Schema.Cols[ci].Type
		v := &out.Cols[ci]
		for ri, r := range t.Rows {
			cell := r[ci]
			if cell.T != want {
				return nil, fmt.Errorf("relation: columnar %s: row %d column %s wants %s, got %s",
					t.Name, ri, t.Schema.Cols[ci].Name, want, cell.T)
			}
			v.Append(cell)
		}
	}
	out.N = len(t.Rows)
	return out, nil
}

// transposeRows is how many rows ToTable fills per pass over the columns.
const transposeRows = 128

// ToTable converts back to row-major form in a constant number of
// allocations: every row is a capped view of one Value slab, so appending
// to a row reallocates it instead of running into its neighbour. The
// table keeps c as its columnar image (see Table.Image), so c must not be
// written afterwards.
func (c *ColTable) ToTable() *Table {
	width := len(c.Cols)
	slab := make([]Value, c.N*width)
	out := &Table{Name: c.Name, Schema: c.Schema, Rows: make([]Row, c.N), image: c}
	for ri := range out.Rows {
		out.Rows[ri] = slab[ri*width : (ri+1)*width : (ri+1)*width]
	}
	// Transpose a block of rows at a time: the block's slab stays in cache
	// while each column's values are dealt across it. The slab starts
	// zeroed, so only a cell's type and its one payload field are stored.
	for lo := 0; lo < c.N; lo += transposeRows {
		hi := min(lo+transposeRows, c.N)
		for ci := range c.Cols {
			v := &c.Cols[ci]
			cells := slab[lo*width+ci:]
			switch v.T {
			case Int, Date:
				for ri, x := range v.Ints[lo:hi] {
					cell := &cells[ri*width]
					cell.T, cell.I = v.T, x
				}
			case Float:
				for ri, x := range v.Floats[lo:hi] {
					cell := &cells[ri*width]
					cell.T, cell.F = Float, x
				}
			case Str:
				for ri, x := range v.Strs[lo:hi] {
					cell := &cells[ri*width]
					cell.T, cell.S = Str, x
				}
			}
		}
	}
	return out
}
