package relation

import (
	"context"
	"fmt"
	"hash/maphash"
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

// row maps position i to the vector index it reads.
func (c ColRef) row(i int) int {
	if c.Rows != nil {
		return int(c.Rows[i])
	}
	return i
}

// strSeed hashes Str key cells, one seed per process as Go maps do.
var strSeed = maphash.MakeSeed()

// keyWord is the word a key cell hashes and compares by: the float64 bits
// of an Int or Float (so 3 and 3.0 are one key), a Date's day number, or a
// hash of a Str's bytes.
func keyWord(c ColRef, i int) uint64 {
	v, r := c.V, c.row(i)
	switch v.T {
	case Int:
		return floatWord(float64(v.Ints[r]))
	case Float:
		return floatWord(v.Floats[r])
	case Date:
		return uint64(v.Ints[r])
	case Str:
		return maphash.String(strSeed, v.Strs[r])
	}
	return 0
}

// floatWord is f's bit pattern with −0 folded into +0, which = equates.
func floatWord(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// keyHash mixes each word with murmur3's fmix64 finalizer. Small integers'
// float bits have all-zero low bits; full avalanche keeps the masked slot
// index from colliding on them.
func keyHash(cols []ColRef, i int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h ^= keyWord(c, i)
		h = (h ^ h>>33) * 0xff51afd7ed558ccd
		h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return h
}

// keyTable numbers the distinct key tuples over its columns. Two tuples
// are one key exactly when each column pair is of one class (Int and
// Float are numbers; Date, Str) and their words agree, strings byte for
// byte. Slots are open-addressed and linearly probed; no output order
// depends on the hash.
type keyTable struct {
	cols   []ColRef
	exact  bool     // one non-Str column: fmix64 is a bijection, so equal hashes are equal keys
	slots  []int32  // id+1, or 0 when empty; a power of two long
	hashes []uint64 // per id
	first  []int32  // per id, a position that carries it
}

// newKeyTable sizes the table for n keys; it grows past that.
func newKeyTable(cols []ColRef, n int) keyTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return keyTable{cols: cols, exact: len(cols) == 0 || len(cols) == 1 && cols[0].V.T != Str,
		slots: make([]int32, size), hashes: make([]uint64, 0, size/2), first: make([]int32, 0, size/2)}
}

// lookup finds position i of cols, whose classes match the table's. It
// returns the key's id, or -1 and the empty slot the key would take.
func (t *keyTable) lookup(cols []ColRef, i int, h uint64) (id int32, slot int) {
	mask := len(t.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		if id = t.slots[s] - 1; id < 0 || t.hashes[id] == h && (t.exact || t.equal(id, cols, i)) {
			return id, s
		}
	}
}

func (t *keyTable) equal(id int32, cols []ColRef, i int) bool {
	j := int(t.first[id])
	for k, c := range cols {
		b := t.cols[k]
		if c.V.T == Str { // a Str word is only a hash: compare the bytes
			if b.V.Strs[b.row(j)] != c.V.Strs[c.row(i)] {
				return false
			}
		} else if keyWord(b, j) != keyWord(c, i) {
			return false
		}
	}
	return true
}

// insert returns the id of position i of the table's own columns, adding
// the key, in first-seen order, if it is new.
func (t *keyTable) insert(i int) int32 {
	h := keyHash(t.cols, i)
	id, s := t.lookup(t.cols, i, h)
	if id >= 0 {
		return id
	}
	t.slots[s] = int32(len(t.first)) + 1
	t.hashes, t.first = append(t.hashes, h), append(t.first, int32(i))
	if 2*len(t.first) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		mask := len(t.slots) - 1
		for id, h := range t.hashes {
			s := int(h) & mask
			for ; t.slots[s] != 0; s = (s + 1) & mask {
			}
			t.slots[s] = int32(id) + 1
		}
	}
	return int32(len(t.first)) - 1
}

// JoinIndex is a reusable hash-join build: a key table over the indexed
// (build-side) input, each key chaining its positions in ascending order.
// Because it depends only on the build input's vectors and key positions,
// a micro-batch workload that joins the same replica snapshot repeatedly
// can build it once and reuse it (sqlmini's ExecCache does exactly that).
type JoinIndex struct {
	N    int // rows indexed, for cache staleness checks
	keys keyTable
	next []int32 // the key's next position after this one, or -1
}

// BuildJoinIndex indexes the n positions of the build input by its key
// columns. It inserts from the last position back, so each key's first
// entry ends up its lowest position and its chain ascends.
func BuildJoinIndex(ctx context.Context, keys []ColRef, n int) (*JoinIndex, error) {
	idx := &JoinIndex{N: n, keys: newKeyTable(keys, n), next: make([]int32, n)}
	tk := colTicker{ctx: ctx}
	for i := n - 1; i >= 0; i-- {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		id := idx.keys.insert(i)
		if idx.next[i] = idx.keys.first[id]; idx.next[i] == int32(i) {
			idx.next[i] = -1
		}
		idx.keys.first[id] = int32(i)
	}
	return idx, nil
}

// PairCap is the pair-list capacity Probe reserves for n probe positions:
// the index's mean chain length (N ÷ distinct keys, rounded up) per
// position, capped at n + N so the reservation stays linear in the inputs
// when the probe keys miss or the build keys are skewed. A key or a
// many-per-key build seldom outgrows it.
func (idx *JoinIndex) PairCap(n int) int {
	d := max(len(idx.keys.first), 1)
	return min(n*((idx.N+d-1)/d), n+idx.N)
}

// reserve returns dst emptied, or a fresh slice when dst is nil or holds
// fewer than n: pair lists are never nil, since a nil row-id vector means
// the identity to their callers.
func reserve(dst []int32, n int) []int32 {
	if dst == nil || cap(dst) < n {
		return make([]int32, 0, n)
	}
	return dst[:0]
}

// Probe looks the n positions of the probe input up by its key columns
// and appends the matching (build position, probe position) pairs to
// build[:0] and probe[:0] in probe-major order: probe positions
// ascending, each one's matches in build order. Built over the right
// input and probed with the left, that is HashJoinContext's left-major
// order (ProbeBuildMajor serves a left build). Int and Float key columns
// match numerically; any other pair of differing types matches nothing.
// A destination with less room than PairCap(n), nil included, is
// replaced by a fresh one of that capacity, so callers that own their
// buffers pass them in and others pass nil.
func (idx *JoinIndex) Probe(ctx context.Context, keys []ColRef, n int, build, probe []int32) ([]int32, []int32, error) {
	tk := colTicker{ctx: ctx}
	tk.n = idx.N // index build already advanced the cadence
	size := idx.PairCap(n)
	build, probe = reserve(build, size), reserve(probe, size)
	for k, c := range keys {
		if a, b := c.V.T, idx.keys.cols[k].V.T; a != b && (a > Float || b > Float) {
			return build, probe, nil
		}
	}
	for p := 0; p < n; p++ {
		if err := tk.tick(); err != nil {
			return nil, nil, err
		}
		id, _ := idx.keys.lookup(keys, p, keyHash(keys, p))
		if id < 0 {
			continue
		}
		for b := idx.keys.first[id]; b >= 0; b = idx.next[b] {
			if err := tk.tick(); err != nil {
				return nil, nil, err
			}
			build = append(build, b)
			probe = append(probe, int32(p))
		}
	}
	return build, probe, nil
}

// ProbeBuildMajor is Probe with the pairs in build-major order: build
// positions ascending, each one's matches in probe order. Built over the
// left input and probed with the right, that is HashJoinContext's
// left-major order again. A stable counting sort over the N build
// positions restores it from Probe's pairs, into build and probe as
// Probe fills them; its own scratch is allocated.
func (idx *JoinIndex) ProbeBuildMajor(ctx context.Context, keys []ColRef, n int, build, probe []int32) ([]int32, []int32, error) {
	build, pairs, err := idx.Probe(ctx, keys, n, build, nil)
	if err != nil {
		return nil, nil, err
	}
	end := make([]int32, idx.N+1) // counts, then each position's run start, then its run end
	for _, b := range build {
		end[b+1]++
	}
	for b := 1; b <= idx.N; b++ {
		end[b] += end[b-1]
	}
	sorted := reserve(probe, len(pairs))[:len(pairs)]
	for i, b := range build {
		sorted[end[b]] = pairs[i]
		end[b]++
	}
	for b, j := 0, 0; b < idx.N; b++ {
		for ; j < int(end[b]); j++ {
			build[j] = int32(b)
		}
	}
	return build, sorted, nil
}

// CrossPairs appends the (left, right) position pairs of an ln × rn cross
// product to l[:0] and r[:0], in the same left-major order as the
// row-major crossJoin; a destination short of ln × rn, nil included, is
// replaced by a fresh one. The caller guards against blow-up before
// calling.
func CrossPairs(ctx context.Context, ln, rn int, l, r []int32) ([]int32, []int32, error) {
	tk := colTicker{ctx: ctx}
	l, r = reserve(l, ln*rn), reserve(r, ln*rn)
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
// aggregates, column at a time, with the row-major Aggregate as its
// oracle: the same AggSchema output, first-seen group order, float
// accumulation in row order, and a single zero-valued row for a global
// aggregate over an empty input.
func ColAggregateContext(ctx context.Context, t *ColTable, groupBy []int, aggs []AggSpec) (*ColTable, error) {
	outSchema, err := AggSchema(t.Schema, groupBy, aggs)
	if err != nil {
		return nil, err
	}

	// Pass 1: assign each row its group id in first-seen order.
	tk := colTicker{ctx: ctx}
	groups := newKeyTable(t.Refs(groupBy), 0)
	gids := make([]int32, t.N)
	for i := range gids {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		gids[i] = groups.insert(i)
	}
	firstRow := groups.first
	ngroups := len(firstRow)

	out := NewColTable(t.Name, outSchema, ngroups)
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
			dst.Ints = append(dst.Ints, counts...)
		case CountDistinct:
			// One key table over (group id, value): a key first seen at
			// row i is a new distinct value of row i's group.
			gv := Vector{T: Int, Ints: make([]int64, t.N)}
			for i, g := range gids {
				gv.Ints[i] = int64(g)
			}
			seen := newKeyTable([]ColRef{{V: &gv}, {V: &t.Cols[a.Col]}}, 0)
			counts := make([]int64, ngroups)
			for i, g := range gids {
				if int(seen.first[seen.insert(i)]) == i {
					counts[g]++
				}
			}
			dst.Ints = append(dst.Ints, counts...)
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
