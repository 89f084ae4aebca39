package relation

import (
	"context"
	"fmt"
	"math"
)

// colTicker amortizes context checks over columnar operator loops, at the
// same cadence as the row-major operators (see HashJoinContext).
type colTicker struct {
	ctx context.Context
	n   int
}

func (t *colTicker) tick() error {
	t.n++
	if t.n%4096 != 0 {
		return nil
	}
	if t.ctx.Err() != nil {
		return context.Cause(t.ctx)
	}
	return nil
}

// ColRef reads one column through an optional row-id vector: position i
// is V[Rows[i]], or V[i] when Rows is nil. It is how late-materializing
// callers (sqlmini's working relation) hand key columns to the operators
// below without first gathering them.
type ColRef struct {
	V    *Vector
	Rows []int32
}

// Refs returns identity ColRefs for the given column positions of t.
func (c *ColTable) Refs(cols []int) []ColRef {
	refs := make([]ColRef, len(cols))
	for i, ci := range cols {
		refs[i].V = &c.Cols[ci]
	}
	return refs
}

// appendColKey appends the composite key bytes for position i over the
// given columns — byte-identical to the row-major joinKey, so columnar and
// row-major operators group and join identically (numerically equal
// Int/Float cells share a key, Dates stay distinct from numbers).
func appendColKey(b []byte, keys []ColRef, i int) []byte {
	for _, k := range keys {
		v, r := k.V, i
		if k.Rows != nil {
			r = int(k.Rows[i])
		}
		switch v.T {
		case Int:
			bits := math.Float64bits(float64(v.Ints[r]))
			b = append(b, 'n')
			for shift := 56; shift >= 0; shift -= 8 {
				b = append(b, byte(bits>>shift))
			}
		case Float:
			bits := math.Float64bits(v.Floats[r])
			b = append(b, 'n')
			for shift := 56; shift >= 0; shift -= 8 {
				b = append(b, byte(bits>>shift))
			}
		case Date:
			b = append(b, 'd')
			u := uint64(v.Ints[r])
			for shift := 56; shift >= 0; shift -= 8 {
				b = append(b, byte(u>>shift))
			}
		case Str:
			s := v.Strs[r]
			b = append(b, 's')
			n := uint64(len(s))
			for shift := 56; shift >= 0; shift -= 8 {
				b = append(b, byte(n>>shift))
			}
			b = append(b, s...)
		default:
			b = append(b, '?')
		}
	}
	return b
}

// JoinIndex is a reusable hash-join build: key bytes to positions of the
// indexed (build-side) input. Because it depends only on the build
// input's vectors and key positions, a micro-batch workload that joins
// the same replica snapshot repeatedly can build it once and reuse it
// (sqlmini's ExecCache does exactly that).
type JoinIndex struct {
	N      int // rows indexed, for cache staleness checks
	groups map[string][]int32
}

// BuildJoinIndex indexes the n positions of the build input by its key
// columns.
func BuildJoinIndex(ctx context.Context, keys []ColRef, n int) (*JoinIndex, error) {
	idx := &JoinIndex{N: n, groups: make(map[string][]int32, n)}
	tk := colTicker{ctx: ctx}
	var buf []byte
	for i := 0; i < n; i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		buf = appendColKey(buf[:0], keys, i)
		idx.groups[string(buf)] = append(idx.groups[string(buf)], int32(i))
	}
	return idx, nil
}

// Probe looks the n positions of the probe input up by its key columns
// and returns the matching (build position, probe position) pairs with
// the semantics of the row-major HashJoinContext: probe in input order,
// matches emitted in build insertion order. Callers pick the build side by
// the same smaller-input rule (left on ties) to keep output order
// identical to the row-major operator, and gather only the columns they
// go on to read. The pair lists are never nil; they are sized for one
// match per probe position, the foreign-key join's shape, so they seldom
// regrow.
func (idx *JoinIndex) Probe(ctx context.Context, keys []ColRef, n int) (build, probe []int32, err error) {
	tk := colTicker{ctx: ctx}
	tk.n = idx.N // index build already advanced the cadence
	build, probe = make([]int32, 0, n), make([]int32, 0, n)
	var buf []byte
	for p := 0; p < n; p++ {
		if err := tk.tick(); err != nil {
			return nil, nil, err
		}
		buf = appendColKey(buf[:0], keys, p)
		for _, b := range idx.groups[string(buf)] {
			if err := tk.tick(); err != nil {
				return nil, nil, err
			}
			build = append(build, b)
			probe = append(probe, int32(p))
		}
	}
	return build, probe, nil
}

// CrossPairs enumerates the (left, right) position pairs of an ln × rn
// cross product in the same left-major order as the row-major crossJoin.
// The caller guards against blow-up before calling.
func CrossPairs(ctx context.Context, ln, rn int) (l, r []int32, err error) {
	tk := colTicker{ctx: ctx}
	l = make([]int32, 0, ln*rn)
	r = make([]int32, 0, ln*rn)
	for li := 0; li < ln; li++ {
		for ri := 0; ri < rn; ri++ {
			if err := tk.tick(); err != nil {
				return nil, nil, err
			}
			l = append(l, int32(li))
			r = append(r, int32(ri))
		}
	}
	return l, r, nil
}

// ColAggregateContext groups t by the groupBy columns and computes the
// aggregates, mirroring the row-major Aggregate exactly: first-seen group
// order, float accumulation in row order, Count/CountDistinct as Int,
// Sum/Avg as Float, Min/Max keeping the input column type, and a single
// zero-valued row for a global aggregate over an empty input.
func ColAggregateContext(ctx context.Context, t *ColTable, groupBy []int, aggs []AggSpec) (*ColTable, error) {
	for _, c := range groupBy {
		if c < 0 || c >= t.Schema.Arity() {
			return nil, fmt.Errorf("relation: group-by column %d out of range", c)
		}
	}
	for _, a := range aggs {
		if a.Fn != Count && (a.Col < 0 || a.Col >= t.Schema.Arity()) {
			return nil, fmt.Errorf("relation: aggregate column %d out of range", a.Col)
		}
	}

	outCols := make([]Column, 0, len(groupBy)+len(aggs))
	for _, c := range groupBy {
		outCols = append(outCols, t.Schema.Cols[c])
	}
	for _, a := range aggs {
		typ := Float
		if a.Fn == Count || a.Fn == CountDistinct {
			typ = Int
		}
		if (a.Fn == Min || a.Fn == Max) && a.Col >= 0 && a.Col < t.Schema.Arity() {
			typ = t.Schema.Cols[a.Col].Type
		}
		outCols = append(outCols, Column{Name: a.As, Type: typ})
	}

	// Pass 1: assign each row its group id in first-seen order.
	tk := colTicker{ctx: ctx}
	ids := make(map[string]int32, 64)
	gids := make([]int32, t.N)
	var firstRow []int32
	var buf []byte
	keys := t.Refs(groupBy)
	for i := 0; i < t.N; i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		buf = appendColKey(buf[:0], keys, i)
		id, ok := ids[string(buf)]
		if !ok {
			id = int32(len(firstRow))
			ids[string(buf)] = id
			firstRow = append(firstRow, int32(i))
		}
		gids[i] = id
	}
	ngroups := len(firstRow)

	out := NewColTable(t.Name, Schema{Cols: outCols}, ngroups)
	if ngroups == 0 && len(groupBy) == 0 {
		// Global aggregate over an empty input still yields one row.
		for i, a := range aggs {
			v := &out.Cols[len(groupBy)+i]
			switch a.Fn {
			case Count, CountDistinct:
				v.Append(IntVal(0))
			case Min, Max:
				v.Append(Value{T: v.T})
			default:
				v.Append(FloatVal(0))
			}
		}
		out.N = 1
		return out, nil
	}

	// Group-key output columns: the first-seen row's values.
	for gi, c := range groupBy {
		dst, src := &out.Cols[gi], &t.Cols[c]
		for _, fr := range firstRow {
			dst.AppendFrom(src, int(fr))
		}
	}

	// Pass 2: one accumulation sweep per aggregate, column-major.
	for ai, a := range aggs {
		dst := &out.Cols[len(groupBy)+ai]
		switch a.Fn {
		case Count:
			counts := make([]int64, ngroups)
			for i := 0; i < t.N; i++ {
				counts[gids[i]]++
			}
			for _, n := range counts {
				dst.Ints = append(dst.Ints, n)
			}
		case CountDistinct:
			distinct := make([]map[any]bool, ngroups)
			src := &t.Cols[a.Col]
			for i := 0; i < t.N; i++ {
				g := gids[i]
				if distinct[g] == nil {
					distinct[g] = make(map[any]bool)
				}
				distinct[g][src.Value(i).Key()] = true
			}
			for _, m := range distinct {
				dst.Ints = append(dst.Ints, int64(len(m)))
			}
		case Sum, Avg:
			src := &t.Cols[a.Col]
			if src.T != Int && src.T != Float {
				if t.N > 0 {
					return nil, fmt.Errorf("relation: %s over non-numeric column %s", a.Fn, t.Schema.Cols[a.Col].Name)
				}
			}
			sums := make([]float64, ngroups)
			counts := make([]int64, ngroups)
			if src.T == Int {
				for i := 0; i < t.N; i++ {
					sums[gids[i]] += float64(src.Ints[i])
					counts[gids[i]]++
				}
			} else {
				for i := 0; i < t.N; i++ {
					sums[gids[i]] += src.Floats[i]
					counts[gids[i]]++
				}
			}
			if a.Fn == Avg {
				for g := range sums {
					dst.Floats = append(dst.Floats, sums[g]/float64(counts[g]))
				}
			} else {
				dst.Floats = append(dst.Floats, sums...)
			}
		case Min, Max:
			src := &t.Cols[a.Col]
			best := make([]int32, ngroups)
			for g := range best {
				best[g] = -1
			}
			for i := 0; i < t.N; i++ {
				g := gids[i]
				if best[g] < 0 {
					best[g] = int32(i)
					continue
				}
				c, err := colCompare(src, i, int(best[g]))
				if err != nil {
					return nil, err
				}
				if (a.Fn == Min && c < 0) || (a.Fn == Max && c > 0) {
					best[g] = int32(i)
				}
			}
			for _, b := range best {
				dst.AppendFrom(src, int(b))
			}
		default:
			return nil, fmt.Errorf("relation: unknown aggregate %d", int(a.Fn))
		}
	}
	out.N = ngroups
	return out, nil
}

// colCompare orders two cells of one vector (same type, so the only
// Compare paths possible are numeric/string/date against themselves).
func colCompare(v *Vector, i, j int) (int, error) {
	switch v.T {
	case Int:
		return compareFloat(float64(v.Ints[i]), float64(v.Ints[j])), nil
	case Float:
		return compareFloat(v.Floats[i], v.Floats[j]), nil
	case Date:
		return compareInt(v.Ints[i], v.Ints[j]), nil
	case Str:
		switch {
		case v.Strs[i] < v.Strs[j]:
			return -1, nil
		case v.Strs[i] > v.Strs[j]:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, typeMismatch(v.Value(i), v.Value(j))
	}
}
