package netproto

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"ivdss/internal/relation"
)

// Frame layout (DESIGN.md "Wire format"). Every message is one frame:
//
//	0      magic and format version
//	1      kind: the RequestKind, or frameResponse
//	2      flags: Forwarded | Degraded, Expired, MQOFallback, Resync
//	3      reserved, zero
//	4..11  relative deadline in milliseconds, little-endian (requests)
//	12..15 body length, little-endian
//	16..19 CRC-32C of bytes 0..15 and the body
//
// followed by the body: the remaining fields in declaration order, as
// varints, length-prefixed strings, raw IEEE-754 floats and column-major
// tables.
const (
	frameMagic    = 0xD4 // 0xD0 | format version 4
	frameHeader   = 20
	frameResponse = 0x80

	// maxFrameBody bounds the body length a reader accepts; maxColumns the
	// arity of a table. Every other length is checked against the bytes
	// actually left in the frame before anything is allocated for it.
	maxFrameBody = 1 << 30
	maxColumns   = 1 << 12
	// readChunk is the most a reader allocates for a declared body before
	// any of it has arrived; keepBuffer is the largest frame buffer a Conn
	// keeps between frames.
	readChunk  = 1 << 16
	keepBuffer = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSum is the checksum of a frame: its header up to the checksum
// field, then its body.
func frameSum(hdr, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:16], castagnoli), castagnoli, body)
}

// flagBits packs booleans into a flags byte, the first into bit 0;
// unflag unpacks them and reports whether only their bits were set.
func flagBits(flags ...bool) (b byte) {
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	return b
}

func unflag(b byte, flags ...*bool) bool {
	for i, f := range flags {
		*f = b&(1<<i) != 0
	}
	return b>>len(flags) == 0
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// wire walks a message body in one direction: with enc set it appends
// each field to b, otherwise it consumes b into the field. One description
// per struct serves both, so a field cannot be written and not read back.
// The first failure sets err; decoding, it also empties b, so every later
// read returns zero without looking further.
type wire struct {
	b   []byte
	enc bool
	err error
}

func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
	if !w.enc {
		w.b = nil
	}
}

func (w *wire) malformed(format string, args ...any) {
	w.fail("netproto: malformed frame: "+format, args...)
}

// done reports how decoding a frame's body ended: a field error, or bytes
// left over that no field claimed.
func (w *wire) done() error {
	if w.err == nil && len(w.b) > 0 {
		w.malformed("%d bytes after the last field", len(w.b))
	}
	return w.err
}

// take consumes the next n bytes of the frame being decoded.
func (w *wire) take(n uint64) []byte {
	if n > uint64(len(w.b)) {
		w.malformed("field of %d bytes with %d left", n, len(w.b))
		return nil
	}
	out := w.b[:n]
	w.b = w.b[n:]
	return out
}

func (w *wire) byte(x *byte) {
	if w.enc {
		w.b = append(w.b, *x)
	} else if b := w.take(1); b != nil {
		*x = b[0]
	}
}

func (w *wire) bool(x *bool) {
	b := flagBits(*x)
	if w.byte(&b); b > 1 {
		w.malformed("boolean %d", b)
	}
	*x = b == 1
}

func (w *wire) uvarint(x *uint64) {
	if w.enc {
		w.b = binary.AppendUvarint(w.b, *x)
	} else if v, n := binary.Uvarint(w.b); n > 0 {
		*x, w.b = v, w.b[n:]
	} else {
		w.malformed("truncated or overlong varint")
	}
}

func (w *wire) int(x *int) {
	if w.enc {
		w.b = binary.AppendVarint(w.b, int64(*x))
	} else if v, n := binary.Varint(w.b); n > 0 {
		*x, w.b = int(v), w.b[n:]
	} else {
		w.malformed("truncated or overlong varint")
	}
}

func (w *wire) f64(x *float64) {
	if w.enc {
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(*x))
	} else if b := w.take(8); b != nil {
		*x = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

func (w *wire) str(s *string) {
	n := uint64(len(*s))
	if w.uvarint(&n); w.enc {
		w.b = append(w.b, *s...)
	} else {
		*s = string(w.take(n))
	}
}

// count carries a collection's length. Decoding, it refuses one the rest
// of the frame cannot hold: every element takes at least min bytes.
func (w *wire) count(n, min int) int {
	u := uint64(n)
	if w.uvarint(&u); !w.enc && u > uint64(len(w.b)/min) {
		w.malformed("%d elements of at least %d bytes with %d left", u, min, len(w.b))
		return 0
	}
	return int(u)
}

// list carries a slice; a count of zero decodes as nil.
func list[T any](w *wire, xs *[]T, min int, elem func(*T)) {
	n := w.count(len(*xs), min)
	if !w.enc && n > 0 {
		*xs = make([]T, n)
	}
	for i := range *xs {
		elem(&(*xs)[i])
	}
}

// dict carries a map, keys in sorted order; a count of zero decodes as nil.
func dict[K cmp.Ordered, V any](w *wire, m *map[K]V, min int, key func(*K), val func(*V)) {
	n := w.count(len(*m), min)
	if w.enc {
		for _, k := range sortedKeys(*m) {
			v := (*m)[k]
			key(&k)
			val(&v)
		}
		return
	}
	if n > 0 {
		*m = make(map[K]V, n)
	}
	for i := 0; i < n; i++ {
		var k K
		var v V
		key(&k)
		val(&v)
		(*m)[k] = v
	}
}

// opt carries a pointer: a presence byte, then the fields.
func opt[T any](w *wire, p **T, fields func(*T)) {
	has := *p != nil
	if w.bool(&has); !has {
		return
	}
	if !w.enc {
		*p = new(T)
	}
	fields(*p)
}

func (w *wire) request(r *Request) {
	w.str(&r.Table)
	w.str(&r.SQL)
	list(w, &r.Attach, 1, w.table)
	w.rows(&r.Rows)
	w.f64(&r.BusinessValue)
	list(w, &r.Batch, 9, func(q *BatchQuery) {
		w.str(&q.SQL)
		w.f64(&q.BusinessValue)
	})
	w.uvarint(&r.Cursor)
	w.str(&r.Tenant)
	opt(w, &r.Gossip, w.gossip)
}

func (w *wire) response(r *Response) {
	w.str(&r.Err)
	list(w, &r.Tables, 1, w.str)
	list(w, &r.TableRows, 1, w.int)
	w.table(&r.Result)
	opt(w, &r.Meta, w.meta)
	list(w, &r.Replicas, 43, func(x *ReplicaStatus) {
		w.str(&x.Table)
		w.int(&x.Site)
		w.f64(&x.LastSyncMinutes)
		w.f64(&x.StalenessMinutes)
		w.f64(&x.LastSyncAgeMinutes)
		w.f64(&x.NextSyncMinutes)
		w.f64(&x.PeriodMinutes)
		w.uvarint(&x.Cursor)
	})
	list(w, &r.Views, 38, func(x *ViewStatus) {
		w.str(&x.View)
		w.str(&x.QueryID)
		w.str(&x.Table)
		w.int(&x.Site)
		w.f64(&x.LastSyncMinutes)
		w.f64(&x.StalenessMinutes)
		w.f64(&x.NextSyncMinutes)
		w.f64(&x.PeriodMinutes)
		w.uvarint(&x.Cursor)
		w.int(&x.Rows)
	})
	list(w, &r.Sites, 4, func(x *SiteStatus) {
		w.int(&x.Site)
		w.str(&x.Addr)
		w.str(&x.Breaker)
		w.int(&x.ConsecutiveFailures)
	})
	dict(w, &r.Metrics, 9, w.str, w.f64)
	list(w, &r.Batch, 4, func(x *BatchItem) {
		w.str(&x.Err)
		w.bool(&x.Degraded)
		w.table(&x.Result)
		opt(w, &x.Meta, w.meta)
	})
	w.uvarint(&r.Version)
	w.rows(&r.DeltaRows)
	opt(w, &r.Gossip, w.gossip)
}

func (w *wire) meta(m *ReportMeta) {
	w.str(&m.PlanSignature)
	w.f64(&m.CLMinutes)
	w.f64(&m.SLMinutes)
	w.f64(&m.Value)
	w.bool(&m.Degraded)
}

func (w *wire) gossip(g *GossipDigest) {
	w.int(&g.Node)
	w.uvarint(&g.Version)
	w.int(&g.QueueDepth)
	list(w, &g.Replicas, 1, w.str)
}

// table carries a table-bearing field column-major. Encoding, the
// vectors are the table's image when it has one; otherwise they are
// gathered from the rows (relation.Columnar), which is where a cell that
// violates the schema is caught. Decoding, rows are views of one slab
// (ColTable.ToTable) and the decoded vectors stay behind as the image.
func (w *wire) table(t **relation.Table) {
	has := *t != nil
	if w.bool(&has); !has {
		return
	}
	ct := &relation.ColTable{}
	if w.enc {
		img := (*t).Image()
		if img == nil {
			var err error
			if img, err = relation.Columnar(*t); err != nil {
				w.fail("%v", err)
				return
			}
		}
		*ct = relation.ColTable{Name: (*t).Name, Schema: (*t).Schema, N: img.N, Cols: img.Cols}
	}
	if w.columns(ct); !w.enc && w.err == nil {
		*t = ct.ToTable()
	}
}

// rows carries a bare row list as a table without names: the first row's
// cell types stand in for the schema every other row must then match.
func (w *wire) rows(rows *[]relation.Row) {
	var t *relation.Table
	if w.enc && len(*rows) > 0 {
		t = &relation.Table{Rows: *rows}
		t.Schema.Cols = make([]relation.Column, len(t.Rows[0]))
		for i, v := range t.Rows[0] {
			t.Schema.Cols[i].Type = v.T
		}
	}
	if w.table(&t); t != nil {
		*rows = t.Rows
	}
}

// columns carries name, schema, row count, then one typed vector per
// column, each prefixed with its length: varints for Int and Date, raw
// floats, and for Str a lengths vector followed by one blob. The checks
// run in both directions. Decoding costs one allocation per column (two
// for strings, which are substrings of one converted blob), made only
// after the bytes it will hold are known to be in the frame.
func (w *wire) columns(ct *relation.ColTable) {
	w.str(&ct.Name)
	width := w.count(len(ct.Cols), 2)
	if width > maxColumns {
		w.malformed("%d columns", width)
		return
	}
	if !w.enc {
		ct.Schema.Cols = make([]relation.Column, width)
		ct.Cols = make([]relation.Vector, width)
	}
	for i := range ct.Cols {
		c, v := &ct.Schema.Cols[i], &ct.Cols[i]
		ty := byte(v.T)
		w.str(&c.Name)
		if w.byte(&ty); w.err == nil && (ty < byte(relation.Int) || ty > byte(relation.Date)) {
			w.malformed("column %d has type %d", i, ty)
		}
		if !w.enc {
			c.Type, v.T = relation.Type(ty), relation.Type(ty)
		}
	}
	n := uint64(ct.N)
	if w.uvarint(&n); width == 0 && n > 0 {
		w.malformed("%d rows but no columns", n)
	}
	for i := range ct.Cols {
		v := &ct.Cols[i]
		// Every cell takes at least one byte, so a count the rest of the
		// frame cannot hold is refused here.
		if m := uint64(w.count(v.Len(), 1)); w.err == nil && m != n {
			w.malformed("column %d has %d values, table has %d rows", i, m, n)
		}
		if w.err != nil {
			return
		}
		if w.enc {
			w.putVector(v)
		} else {
			w.getVector(v, n)
		}
	}
	ct.N = int(n)
}

func (w *wire) putVector(v *relation.Vector) {
	switch v.T {
	case relation.Float:
		for _, x := range v.Floats {
			w.f64(&x)
		}
	case relation.Str:
		for _, s := range v.Strs {
			w.b = binary.AppendUvarint(w.b, uint64(len(s)))
		}
		for _, s := range v.Strs {
			w.b = append(w.b, s...)
		}
	default:
		for _, x := range v.Ints {
			w.b = binary.AppendVarint(w.b, x)
		}
	}
}

func (w *wire) getVector(v *relation.Vector, n uint64) {
	switch v.T {
	case relation.Float:
		raw := w.take(8 * n)
		if raw == nil {
			return
		}
		v.Floats = make([]float64, n)
		for j := range v.Floats {
			v.Floats[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
	case relation.Str:
		lens, b, total := w.b, w.b, uint64(0)
		for j := uint64(0); j < n; j++ {
			l, k := binary.Uvarint(b)
			if k <= 0 || l > uint64(len(b)) { // so the sum cannot wrap either
				w.malformed("string length %d with %d bytes left", l, len(b))
				return
			}
			total, b = total+l, b[k:]
		}
		w.b = b
		blob := string(w.take(total))
		if w.err != nil {
			return
		}
		v.Strs = make([]string, n)
		for j := range v.Strs {
			l, k := binary.Uvarint(lens)
			lens = lens[k:]
			v.Strs[j], blob = blob[:l], blob[l:]
		}
	default:
		v.Ints = make([]int64, n)
		b := w.b
		for j := range v.Ints {
			x, k := binary.Varint(b)
			if k <= 0 {
				w.malformed("truncated or overlong varint")
				return
			}
			v.Ints[j], b = x, b[k:]
		}
		w.b = b
	}
}
