package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ivdss/internal/relation"
)

// This file executes a Prepared plan: a register interpreter for the
// bytecode in compile.go, and the batched pipeline driver that binds the
// plan to live tables, joins and filters them as row-id vectors over the
// bound columns (reusing cached build indexes), and drives each
// expression program one BatchRows window at a time. Columns are gathered
// only where a program reads them, a window at a time.

// identitySel is the shared all-rows selection; programs only read it.
var identitySel = func() []int32 {
	s := make([]int32, relation.BatchRows)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// working is the relation a stage reads: bound columnar tables plus one
// row-id vector per joined table. Row i of the relation is row rows[l][i]
// of every loads[l]; a nil vector is the identity (load 0 as a bare scan).
// Joins and filters only rewrite the row-id vectors, so a column nobody
// reads is never touched. The stages draw their scratch vectors from f.
type working struct {
	loads []*relation.ColTable
	rows  [][]int32
	refs  []colRef // schema position → (load, column); nil: columns of loads[0]
	n     int
	f     *frame
}

// scanOf wraps one columnar table as a bare-scan working relation whose
// stages draw their buffers from f.
func scanOf(ct *relation.ColTable, f *frame) *working {
	return &working{loads: []*relation.ColTable{ct}, rows: [][]int32{nil}, n: ct.N, f: f}
}

// col returns the accessor for the column at a schema position.
func (w *working) col(pos int) relation.ColRef {
	r := colRef{col: pos}
	if w.refs != nil {
		r = w.refs[pos]
	}
	return relation.ColRef{V: &w.loads[r.load].Cols[r.col], Rows: w.rows[r.load]}
}

func (w *working) keys(cols []int) []relation.ColRef {
	keys := make([]relation.ColRef, len(cols))
	for i, c := range cols {
		keys[i] = w.col(c)
	}
	return keys
}

// take replaces the relation by its rows at positions sel (never nil),
// composing every joined load's row-ids with it. inPlace reuses the
// vectors, which is safe when sel is ascending (a filter's survivors).
func (w *working) take(sel []int32, inPlace bool) {
	for l, old := range w.rows {
		if old == nil {
			continue
		}
		dst := old
		if !inPlace {
			dst = w.f.int32s(len(sel))
		}
		for i, r := range sel {
			dst[i] = old[r]
		}
		w.rows[l] = dst[:len(sel)]
	}
	if w.rows[0] == nil {
		w.rows[0] = sel
	}
	w.n = len(sel)
}

// progRegs is one program's register file. Data registers are indexed
// uniformly across the three typed pools (only the slice matching the
// register's type is populated); view registers of an identity load rebind
// to column windows per batch, every other register owns a batch-sized
// buffer, lent by the working relation's frame, for the lifetime of the
// stage. Selection registers hold sorted row positions; register 0 is the
// stage-provided input selection.
type progRegs struct {
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	sels   [][]int32
	selBuf [][]int32 // backing storage for computed selections
}

func newProgRegs(p *prog, w *working) *progRegs {
	size := min(w.n, relation.BatchRows)
	rf := w.f.regFile(len(p.dataTypes), p.nsel)
	for r, t := range p.dataTypes {
		if c := p.viewCol[r]; c >= 0 && w.col(c).Rows == nil {
			continue
		}
		switch t {
		case relation.Float:
			rf.floats[r] = w.f.float64s(size)
		case relation.Str:
			rf.strs[r] = w.f.strings(size)
		default: // Int, Date
			rf.ints[r] = w.f.int64s(size)
		}
	}
	for i := 1; i < p.nsel; i++ {
		rf.selBuf[i] = w.f.int32s(size)[:0]
	}
	return rf
}

// load binds register dst to the window [base, base+n) of col: a zero-copy
// view while the column's load is an identity scan, else a gather through
// its row-ids into the register's own buffer.
func (rf *progRegs) load(dst uint16, col relation.ColRef, base, n int) {
	v := col.V
	if col.Rows == nil {
		switch v.T {
		case relation.Float:
			rf.floats[dst] = v.Floats[base : base+n]
		case relation.Str:
			rf.strs[dst] = v.Strs[base : base+n]
		default:
			rf.ints[dst] = v.Ints[base : base+n]
		}
		return
	}
	rows := col.Rows[base : base+n]
	switch v.T {
	case relation.Float:
		d := rf.floats[dst]
		for i, r := range rows {
			d[i] = v.Floats[r]
		}
	case relation.Str:
		d := rf.strs[dst]
		for i, r := range rows {
			d[i] = v.Strs[r]
		}
	default:
		d := rf.ints[dst]
		for i, r := range rows {
			d[i] = v.Ints[r]
		}
	}
}

// run executes the program over the window [base, base+n) of w. The
// caller sets rf.sels[0] to the input selection before calling.
func (p *prog) run(rf *progRegs, w *working, base, n int) error {
	for _, in := range p.ins {
		switch in.op {
		case opLoadCol:
			rf.load(in.dst, w.col(int(in.aux)), base, n)
		case opConst:
			v := p.consts[in.aux]
			switch v.T {
			case relation.Float:
				d := rf.floats[in.dst]
				for i := 0; i < n; i++ {
					d[i] = v.F
				}
			case relation.Str:
				d := rf.strs[in.dst]
				for i := 0; i < n; i++ {
					d[i] = v.S
				}
			default:
				d := rf.ints[in.dst]
				for i := 0; i < n; i++ {
					d[i] = v.I
				}
			}
		case opI2F:
			a, d := rf.ints[in.a], rf.floats[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = float64(a[i])
			}
		case opAddI:
			a, b, d := rf.ints[in.a], rf.ints[in.b], rf.ints[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = a[i] + b[i]
			}
		case opSubI:
			a, b, d := rf.ints[in.a], rf.ints[in.b], rf.ints[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = a[i] - b[i]
			}
		case opMulI:
			a, b, d := rf.ints[in.a], rf.ints[in.b], rf.ints[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = a[i] * b[i]
			}
		case opAddF:
			a, b, d := rf.floats[in.a], rf.floats[in.b], rf.floats[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = a[i] + b[i]
			}
		case opSubF:
			a, b, d := rf.floats[in.a], rf.floats[in.b], rf.floats[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = a[i] - b[i]
			}
		case opMulF:
			a, b, d := rf.floats[in.a], rf.floats[in.b], rf.floats[in.dst]
			for _, i := range rf.sels[in.sel] {
				d[i] = a[i] * b[i]
			}
		case opDivF:
			a, b, d := rf.floats[in.a], rf.floats[in.b], rf.floats[in.dst]
			for _, i := range rf.sels[in.sel] {
				if b[i] == 0 {
					return fmt.Errorf("sqlmini: division by zero")
				}
				d[i] = a[i] / b[i]
			}
		case opParseDate:
			a, d := rf.strs[in.a], rf.ints[in.dst]
			for _, i := range rf.sels[in.sel] {
				v, err := relation.ParseDate(a[i])
				if err != nil {
					return err
				}
				d[i] = v.I
			}
		case opCmpF:
			rf.sels[in.dst] = cmpFloats(rf.selBuf[in.dst][:0], rf.floats[in.a], rf.floats[in.b], rf.sels[in.sel], in.aux)
			rf.selBuf[in.dst] = rf.sels[in.dst][:0]
		case opCmpI:
			rf.sels[in.dst] = cmpInts(rf.selBuf[in.dst][:0], rf.ints[in.a], rf.ints[in.b], rf.sels[in.sel], in.aux)
			rf.selBuf[in.dst] = rf.sels[in.dst][:0]
		case opCmpS:
			rf.sels[in.dst] = cmpStrs(rf.selBuf[in.dst][:0], rf.strs[in.a], rf.strs[in.b], rf.sels[in.sel], in.aux)
			rf.selBuf[in.dst] = rf.sels[in.dst][:0]
		case opSelNonZeroI:
			out := rf.selBuf[in.dst][:0]
			a := rf.ints[in.a]
			for _, i := range rf.sels[in.sel] {
				if a[i] != 0 {
					out = append(out, i)
				}
			}
			rf.sels[in.dst] = out
			rf.selBuf[in.dst] = out[:0]
		case opSelNonZeroF:
			out := rf.selBuf[in.dst][:0]
			a := rf.floats[in.a]
			for _, i := range rf.sels[in.sel] {
				if a[i] != 0 {
					out = append(out, i)
				}
			}
			rf.sels[in.dst] = out
			rf.selBuf[in.dst] = out[:0]
		case opLike:
			out := rf.selBuf[in.dst][:0]
			a, parts := rf.strs[in.a], p.pats[in.aux]
			for _, i := range rf.sels[in.sel] {
				if likeMatchParts(a[i], parts) {
					out = append(out, i)
				}
			}
			rf.sels[in.dst] = out
			rf.selBuf[in.dst] = out[:0]
		case opSelDiff:
			rf.sels[in.dst] = selDiff(rf.selBuf[in.dst][:0], rf.sels[in.a], rf.sels[in.b])
			rf.selBuf[in.dst] = rf.sels[in.dst][:0]
		case opSelUnion:
			rf.sels[in.dst] = selUnion(rf.selBuf[in.dst][:0], rf.sels[in.a], rf.sels[in.b])
			rf.selBuf[in.dst] = rf.sels[in.dst][:0]
		case opSelInter:
			rf.sels[in.dst] = selInter(rf.selBuf[in.dst][:0], rf.sels[in.a], rf.sels[in.b])
			rf.selBuf[in.dst] = rf.sels[in.dst][:0]
		case opBoolFromSel:
			d, sa, sb := rf.ints[in.dst], rf.sels[in.a], rf.sels[in.b]
			j := 0
			for _, i := range sa {
				for j < len(sb) && sb[j] < i {
					j++
				}
				if j < len(sb) && sb[j] == i {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		case opError:
			if len(rf.sels[in.sel]) > 0 {
				return errors.New(p.errs[in.aux])
			}
		}
	}
	return nil
}

// cmpFloats filters sel by a[i] <op> b[i]; the comparison predicate is
// hoisted out of the loop so the hot path is a branch per row.
func cmpFloats(out []int32, a, b []float64, sel []int32, code int32) []int32 {
	switch code {
	case cmpEQ:
		for _, i := range sel {
			if a[i] == b[i] {
				out = append(out, i)
			}
		}
	case cmpNE:
		for _, i := range sel {
			if a[i] != b[i] {
				out = append(out, i)
			}
		}
	case cmpLT:
		for _, i := range sel {
			if a[i] < b[i] {
				out = append(out, i)
			}
		}
	case cmpLE:
		for _, i := range sel {
			if a[i] <= b[i] {
				out = append(out, i)
			}
		}
	case cmpGT:
		for _, i := range sel {
			if a[i] > b[i] {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if a[i] >= b[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

func cmpInts(out []int32, a, b []int64, sel []int32, code int32) []int32 {
	switch code {
	case cmpEQ:
		for _, i := range sel {
			if a[i] == b[i] {
				out = append(out, i)
			}
		}
	case cmpNE:
		for _, i := range sel {
			if a[i] != b[i] {
				out = append(out, i)
			}
		}
	case cmpLT:
		for _, i := range sel {
			if a[i] < b[i] {
				out = append(out, i)
			}
		}
	case cmpLE:
		for _, i := range sel {
			if a[i] <= b[i] {
				out = append(out, i)
			}
		}
	case cmpGT:
		for _, i := range sel {
			if a[i] > b[i] {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if a[i] >= b[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

func cmpStrs(out []int32, a, b []string, sel []int32, code int32) []int32 {
	for _, i := range sel {
		c := strings.Compare(a[i], b[i])
		ok := false
		switch code {
		case cmpEQ:
			ok = c == 0
		case cmpNE:
			ok = c != 0
		case cmpLT:
			ok = c < 0
		case cmpLE:
			ok = c <= 0
		case cmpGT:
			ok = c > 0
		default:
			ok = c >= 0
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// selDiff appends a \ b (both sorted ascending).
func selDiff(out, a, b []int32) []int32 {
	j := 0
	for _, i := range a {
		for j < len(b) && b[j] < i {
			j++
		}
		if j < len(b) && b[j] == i {
			continue
		}
		out = append(out, i)
	}
	return out
}

// selUnion merges two disjoint sorted selections.
func selUnion(out, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func selInter(out, a, b []int32) []int32 {
	j := 0
	for _, i := range a {
		for j < len(b) && b[j] < i {
			j++
		}
		if j < len(b) && b[j] == i {
			out = append(out, i)
		}
	}
	return out
}

// ExecuteContext binds the plan to the catalog's current table contents
// and runs it, stage by stage, over one scratch frame from the cache. A
// nil cache disables cross-execution reuse. Safe for concurrent use on a
// shared Prepared and a shared cache.
func (p *Prepared) ExecuteContext(ctx context.Context, cat Catalog, cache *ExecCache) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	tables := make([]*relation.Table, len(p.loads))
	for i, ld := range p.loads {
		t, err := cat.Table(ld.table)
		if err != nil {
			return nil, err
		}
		if !schemaEqual(t.Schema, ld.base) {
			return nil, fmt.Errorf("sqlmini: table %q schema changed since prepare", ld.table)
		}
		tables[i] = t
	}
	return p.execute(ctx, tables, cache)
}

// binds reports whether tables, one per load, have the schemas p was
// prepared against.
func (p *Prepared) binds(tables []*relation.Table) bool {
	for i, ld := range p.loads {
		if !schemaEqual(tables[i].Schema, ld.base) {
			return false
		}
	}
	return true
}

// sameLoads reports whether p and q were prepared against the same load
// schemas.
func (p *Prepared) sameLoads(q *Prepared) bool {
	for i, ld := range p.loads {
		if !schemaEqual(ld.base, q.loads[i].base) {
			return false
		}
	}
	return true
}

// execute runs the plan over tables, one per load, whose schemas are the
// ones it was prepared against.
func (p *Prepared) execute(ctx context.Context, tables []*relation.Table, cache *ExecCache) (*relation.Table, error) {
	f := cache.frame()
	defer cache.release(f)
	w := &working{f: f}
	if err := p.bind(ctx, tables, cache, w); err != nil {
		return nil, err
	}
	if p.agg.lay != nil {
		derived, err := p.derive(ctx, w)
		if err != nil {
			return nil, err
		}
		grouped, err := relation.ColAggregateContext(ctx, derived, p.agg.lay.groupBy, p.agg.lay.specs)
		if err != nil {
			return nil, err
		}
		w = scanOf(grouped, f)
	}
	return p.finish(ctx, w)
}

// bind is the plan's first stage: it loads the tables into w (the
// caller's, so it can stay off the heap, carrying the frame the stages
// draw from) and runs the WHERE and joins.
func (p *Prepared) bind(ctx context.Context, tables []*relation.Table, cache *ExecCache, w *working) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	*w = working{
		loads: make([]*relation.ColTable, len(p.loads)),
		rows:  make([][]int32, len(p.loads)),
		refs:  p.refs,
		f:     w.f,
	}
	for i, t := range tables {
		// The (possibly cached) base image is shared and never written;
		// plan-time refs address its columns by position, so it needs no
		// requalified wrapper.
		// A table whose rows violate its declared schema (type-confused wire
		// rows) fails the query here; it is never handed to the row-at-a-time
		// interpreter, which would compute over the confused cells.
		var err error
		if w.loads[i], err = cache.columnar(t); err != nil {
			return err
		}
	}
	w.n = w.loads[0].N

	if p.where != nil {
		if err := filterCol(ctx, w, p.where); err != nil {
			return err
		}
	}
	for _, st := range p.steps {
		right := w.loads[st.right]
		var lrows, rrows []int32
		var idx *relation.JoinIndex
		var err error
		switch {
		case st.cross:
			if int64(w.n)*int64(right.N) > maxCrossRows {
				return fmt.Errorf("sqlmini: cross product of %d rows and %s (%d rows) exceeds limit",
					w.n, p.loads[st.right].alias, right.N)
			}
			size := w.n * right.N
			lrows, rrows, err = relation.CrossPairs(ctx, w.n, right.N, w.f.int32s(size), w.f.int32s(size))
		case cache.buildsRight(tables[st.right], st.rsig, right.N, w.n):
			// A right build indexes a base table, so it is cacheable across
			// executions; probing it in working order is left-major.
			if idx, err = cache.joinIndex(ctx, tables[st.right], right.Refs(st.rk), right.N, st.rsig); err == nil {
				size := idx.PairCap(w.n)
				rrows, lrows, err = idx.Probe(ctx, w.keys(st.lk), w.n, w.f.int32s(size), w.f.int32s(size))
			}
		default:
			if idx, err = relation.BuildJoinIndex(ctx, w.keys(st.lk), w.n); err == nil {
				size := idx.PairCap(right.N)
				lrows, rrows, err = idx.ProbeBuildMajor(ctx, right.Refs(st.rk), right.N, w.f.int32s(size), w.f.int32s(size))
			}
		}
		if err != nil {
			return err
		}
		w.take(lrows, false)
		w.rows[st.right] = rrows
		for _, f := range st.filters {
			if err := filterCol(ctx, w, f); err != nil {
				return err
			}
		}
	}

	return nil
}

// derive is a grouping plan's second stage: its aggLayout's derived rows.
func (p *Prepared) derive(ctx context.Context, w *working) (*relation.ColTable, error) {
	return runValueStage(ctx, w, p.agg.derived, "derived", p.agg.lay.derived.Cols, p.agg.progTypes, w.f)
}

// finish is the plan's last stage, over the bound relation or the
// grouped one: HAVING, the projection, then DISTINCT, ORDER BY and LIMIT.
func (p *Prepared) finish(ctx context.Context, w *working) (*relation.Table, error) {
	if p.having != nil {
		if err := filterCol(ctx, w, p.having); err != nil {
			return nil, err
		}
	}
	stage, err := runValueStage(ctx, w, p.proj.prog, "result", p.proj.lay.all, p.proj.progTypes, nil)
	if err != nil {
		return nil, err
	}
	return p.proj.lay.finish(stage.ToTable())
}

// filterCol narrows w to the rows a predicate program keeps, batch by
// batch: only the row-id vectors are compacted. A frame lends the
// survivors room for every row; without one they grow as they come.
func filterCol(ctx context.Context, w *working, pr *prog) error {
	keep := []int32{}
	if w.f != nil {
		keep = w.f.int32s(w.n)[:0]
	}
	rf := newProgRegs(pr, w)
	for base := 0; base < w.n; base += relation.BatchRows {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		n := min(w.n-base, relation.BatchRows)
		rf.sels[0] = identitySel[:n]
		if err := pr.run(rf, w, base, n); err != nil {
			return err
		}
		for _, j := range rf.sels[pr.outSel] {
			keep = append(keep, int32(base)+j)
		}
	}
	w.take(keep, true)
	return nil
}

// runValueStage evaluates a value program over every row of w, producing
// a columnar table whose declared schema comes from the plan and whose
// vectors carry the program's computed types. This is where the plan
// materializes: only program outputs, pre-sized to the input cardinality.
// The output vectors come from outs: the execution's frame for a table
// that dies inside it, nil for one that escapes.
func runValueStage(ctx context.Context, w *working, pr *prog, name string, declared []relation.Column, progTypes []relation.Type, outs *frame) (*relation.ColTable, error) {
	out := &relation.ColTable{
		Name:   name,
		Schema: relation.Schema{Cols: declared},
		Cols:   make([]relation.Vector, len(progTypes)),
	}
	for i, ty := range progTypes {
		out.Cols[i] = outs.vector(ty, w.n)
	}
	rf := newProgRegs(pr, w)
	for base := 0; base < w.n; base += relation.BatchRows {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		n := min(w.n-base, relation.BatchRows)
		rf.sels[0] = identitySel[:n]
		if err := pr.run(rf, w, base, n); err != nil {
			return nil, err
		}
		for oi, reg := range pr.outs {
			v := &out.Cols[oi]
			switch progTypes[oi] {
			case relation.Float:
				v.Floats = append(v.Floats, rf.floats[reg][:n]...)
			case relation.Str:
				v.Strs = append(v.Strs, rf.strs[reg][:n]...)
			default:
				v.Ints = append(v.Ints, rf.ints[reg][:n]...)
			}
		}
	}
	out.N = w.n
	return out, nil
}
