package netproto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ivdss/internal/relation"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current encoder")

// edgeTable has all four column types and the cells a codec is most
// likely to mangle: NaN, ±Inf, −0, extreme ints, empty and non-UTF-8
// strings. Built through ToTable, it carries an image like a VM result.
func edgeTable() *relation.Table {
	schema := relation.MustSchema(
		relation.Column{Name: "id", Type: relation.Int},
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "s", Type: relation.Str},
		relation.Column{Name: "d", Type: relation.Date},
	)
	ct := relation.NewColTable("edge", schema, 6)
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 300}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 2.5, math.SmallestNonzeroFloat64}
	strs := []string{"", "plain", "\xff\xfe not utf-8", "naïve ✓", "\x00", strings.Repeat("long ", 40)}
	for i := range ints {
		ct.Cols[0].Append(relation.IntVal(ints[i]))
		ct.Cols[1].Append(relation.FloatVal(floats[i]))
		ct.Cols[2].Append(relation.StrVal(strs[i]))
		ct.Cols[3].Append(relation.DateVal(ints[i] % 40000))
	}
	ct.N = len(ints)
	return ct.ToTable()
}

// withoutImage is the same table as a remote's base table or a sorted
// result presents it: rows only.
func withoutImage(t *relation.Table) *relation.Table {
	return &relation.Table{Name: t.Name, Schema: t.Schema, Rows: t.Rows}
}

type message struct {
	name string
	req  *Request
	resp *Response
}

// goldenMessages is one request and one plausible response per kind. The
// golden files pin their bytes; the fuzzer starts from them.
func goldenMessages() []message {
	meta := &ReportMeta{PlanSignature: "accounts=replica", CLMinutes: 1.5, SLMinutes: 2.25, Value: .875, Degraded: true}
	gossip := &GossipDigest{Node: 2, Version: 9, QueueDepth: 3, Replicas: []string{"lineitem", "orders"}}
	idle := &GossipDigest{Node: 1, Version: 1} // a shard with an empty queue that replicates nothing
	edge := edgeTable()
	accounts := relation.NewTable("accounts", relation.MustSchema(relation.Column{Name: "a_id", Type: relation.Int}))
	accounts.MustInsert(relation.Row{relation.IntVal(1)})
	accounts.MustInsert(relation.Row{relation.IntVal(2)})
	return []message{
		{"ping", &Request{Kind: KindPing}, &Response{}},
		{"tables", &Request{Kind: KindTables}, &Response{Tables: []string{"accounts", "trades"}}},
		{"scan", &Request{Kind: KindScan, Table: "edge", TimeoutMillis: 1500}, &Response{Result: withoutImage(edge)}},
		{"exec", &Request{Kind: KindExec, SQL: "SELECT * FROM edge", BusinessValue: 2.5, Tenant: "gold", Forwarded: true},
			&Response{Result: edge, Meta: meta}},
		{"insert", &Request{Kind: KindInsert, Table: "edge", Rows: edge.Rows[:2]}, &Response{Err: "row 1: relation: table edge: column id wants int, got string"}},
		{"status", &Request{Kind: KindStatus}, &Response{
			Replicas: []ReplicaStatus{{Table: "accounts", Site: 1, LastSyncMinutes: 10, StalenessMinutes: 2, LastSyncAgeMinutes: 3, NextSyncMinutes: -1, PeriodMinutes: 5, Cursor: 42}},
			Views:    []ViewStatus{{View: "v1", QueryID: "sql-abc", Table: "trades", Site: 2, LastSyncMinutes: -1, StalenessMinutes: 4, NextSyncMinutes: 8, PeriodMinutes: 1, Cursor: 7, Rows: 3}},
			Sites:    []SiteStatus{{Site: 1, Addr: "127.0.0.1:7101", Breaker: "half-open", ConsecutiveFailures: 2}},
		}},
		{"metrics", &Request{Kind: KindMetrics}, &Response{Metrics: map[string]float64{"queries_total": 12, "breaker_open": 0, "report_value_sum": 9.5}}},
		{"batch", &Request{Kind: KindBatch, Batch: []BatchQuery{{SQL: "SELECT 1", BusinessValue: 3}, {SQL: "SELECT 2"}}},
			&Response{MQOFallback: true, Batch: []BatchItem{{Result: edge, Meta: meta}, {Err: "value expired", Degraded: true}}}},
		{"snapshot", &Request{Kind: KindSnapshot, Table: "edge", SQL: "SELECT id, x FROM edge WHERE x > 1"}, &Response{Result: withoutImage(edge), Version: 6}},
		{"delta", &Request{Kind: KindDelta, Table: "edge", Cursor: 4}, &Response{DeltaRows: edge.Rows[4:], Version: 6}},
		{"delta_resync", &Request{Kind: KindDelta, Table: "edge", Cursor: 99}, &Response{Version: 6, Resync: true}},
		{"gossip", &Request{Kind: KindGossip, Gossip: gossip}, &Response{Gossip: gossip}},
		{"gossip_idle", &Request{Kind: KindGossip, Gossip: idle}, &Response{Gossip: idle}},
		{"expired", &Request{Kind: KindExec, SQL: "SELECT 1"}, &Response{Err: "value expired", Expired: true, Degraded: true}},
		{"exec_attached", &Request{Kind: KindExec, SQL: "SELECT count(*) AS n FROM edge, accounts", Attach: []*relation.Table{edge, withoutImage(accounts)}},
			&Response{Result: edge}},
		{"tables_rows", &Request{Kind: KindTables}, &Response{Tables: []string{"accounts", "edge"}, TableRows: []int{2, 6}}},
	}
}

// frameOf returns the bytes Conn writes for one message.
func frameOf(tb testing.TB, m message, response bool) []byte {
	tb.Helper()
	buf := &memConn{}
	conn := NewConn(buf)
	var err error
	if response {
		err = conn.WriteResponse(m.resp)
	} else {
		err = conn.WriteRequest(m.req)
	}
	if err != nil {
		tb.Fatalf("%s: %v", m.name, err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

func readFrame(frame []byte, response bool) (any, error) {
	conn := NewConn(&memConn{Buffer: *bytes.NewBuffer(frame)})
	if response {
		return conn.ReadResponse()
	}
	return conn.ReadRequest()
}

// TestGoldenFrames pins the wire format: a change to any byte of any
// message kind must show up as a diff under testdata/ (and be a new
// format version).
func TestGoldenFrames(t *testing.T) {
	for _, m := range goldenMessages() {
		for _, response := range []bool{false, true} {
			name := "request_" + m.name
			if response {
				name = "response_" + m.name
			}
			frame := frameOf(t, m, response)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(hex.Dump(frame)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test -update ./internal/netproto to create it)", err)
			}
			if got := hex.Dump(frame); got != string(want) {
				t.Errorf("%s: frame differs from %s:\n%s", name, path, got)
			}
			decoded, err := readFrame(frame, response)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var sent any = m.req
			if response {
				sent = m.resp
			}
			if err := sameWire(reflect.ValueOf(sent), reflect.ValueOf(decoded), name); err != nil {
				t.Error(err)
			}
		}
	}
}

// sameWire is reflect.DeepEqual for what the wire promises: floats equal
// bit for bit (NaN payloads, −0), nil and empty collections alike, and
// unexported fields (a table's image) not compared.
func sameWire(a, b reflect.Value, path string) error {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return fmt.Errorf("%s: %v vs %v", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil %v vs nil %v", path, a.IsNil(), b.IsNil())
			}
			return nil
		}
		return sameWire(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				if err := sameWire(a.Field(i), b.Field(i), path+"."+f.Name); err != nil {
					return err
				}
			}
		}
		return nil
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d vs %d elements", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameWire(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Errorf("%s: key %v lost", path, k)
			}
			if err := sameWire(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %v vs %v", path, a.Float(), b.Float())
		}
		return nil
	default:
		if !a.Equal(b) {
			return fmt.Errorf("%s: %v vs %v", path, a, b)
		}
		return nil
	}
}

// fill sets every exported field reachable from v to a distinct non-zero
// value, so a field the hand-written codec forgets cannot hide behind its
// zero value. A field of a kind it does not know fails the test: whoever
// adds one extends the codec and this function together.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Interface().(type) {
	case RequestKind:
		v.SetInt(int64(KindExec))
		return
	case *relation.Table:
		v.Set(reflect.ValueOf(edgeTable()))
		return
	case []relation.Row:
		v.Set(reflect.ValueOf(edgeTable().Rows))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(2*int64(*n) - 129) // odd: negative or positive, never zero
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 33)
	case reflect.Float64:
		v.SetFloat(float64(*n) + .25)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("fill: no rule for a %v field; teach the codec and this test about it", v.Type())
	}
}

func TestEveryFieldSurvivesARoundTrip(t *testing.T) {
	n := 0
	req, resp := &Request{}, &Response{}
	fill(t, reflect.ValueOf(req).Elem(), &n)
	fill(t, reflect.ValueOf(resp).Elem(), &n)
	for _, tc := range []struct {
		name string
		sent any
		m    message
	}{
		{"Request", req, message{name: "filled", req: req}},
		{"Response", resp, message{name: "filled", resp: resp}},
	} {
		response := tc.m.resp != nil
		got, err := readFrame(frameOf(t, tc.m, response), response)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := sameWire(reflect.ValueOf(tc.sent), reflect.ValueOf(got), tc.name); err != nil {
			t.Error(err)
		}
	}
	// The two degenerate shapes: columns without rows, and neither.
	got, err := readFrame(frameOf(t, message{resp: &Response{Result: withoutImage(relation.NewTable("plain", edgeTable().Schema))}}, true), true)
	if err != nil {
		t.Fatal(err)
	}
	if tb := got.(*Response).Result; tb == nil || tb.Name != "plain" || len(tb.Schema.Cols) != 4 || len(tb.Rows) != 0 {
		t.Errorf("zero-row table decoded as %+v", tb)
	}
	got, err = readFrame(frameOf(t, message{resp: &Response{Result: &relation.Table{Name: "void"}}}, true), true)
	if err != nil {
		t.Fatal(err)
	}
	if tb := got.(*Response).Result; tb == nil || tb.Name != "void" || len(tb.Schema.Cols) != 0 || len(tb.Rows) != 0 {
		t.Errorf("zero-column table decoded as %+v", tb)
	}
}

// A decoded table carries the vectors it was decoded into, whether the
// sender encoded from an image or from rows.
func TestDecodedTablesCarryTheirImage(t *testing.T) {
	for _, sent := range []*relation.Table{edgeTable(), withoutImage(edgeTable())} {
		got, err := readFrame(frameOf(t, message{resp: &Response{Result: sent}}, true), true)
		if err != nil {
			t.Fatal(err)
		}
		img := got.(*Response).Result.Image()
		if img == nil || img.N != 6 || img.Cols[2].Strs[3] != "naïve ✓" {
			t.Errorf("decoded image %+v", img)
		}
	}
}

// Decoding allocates per column, not per row or per cell.
func TestDecodeAllocationsDoNotGrowWithRows(t *testing.T) {
	allocs := func(scale float64) (rows int, n float64) {
		fragment := lineitemFragment(t, scale)
		frame := frameOf(t, message{resp: &Response{Result: fragment}}, true)
		buf := &memConn{}
		conn := NewConn(buf)
		n = testing.AllocsPerRun(10, func() {
			buf.Reset()
			buf.Write(frame)
			if _, err := conn.ReadResponse(); err != nil {
				t.Fatal(err)
			}
		})
		return fragment.NumRows(), n
	}
	smallRows, small := allocs(.5)
	largeRows, large := allocs(2)
	t.Logf("%v allocations for %d rows, %v for %d", small, smallRows, large, largeRows)
	if largeRows < 3*smallRows {
		t.Fatalf("fragments of %d and %d rows do not separate a per-row term", smallRows, largeRows)
	}
	if large-small > 4 {
		t.Errorf("decoding allocates %v objects for %d rows and %v for %d: a per-row term is back", small, smallRows, large, largeRows)
	}
}

// A response that cannot be encoded reaches the peer as an error
// response, with relation.Columnar's wording, and the connection carries
// the next message; a request that cannot be encoded writes nothing.
func TestEncodeErrorsLeaveTheConnectionInStep(t *testing.T) {
	confused := withoutImage(edgeTable())
	confused.Rows = append(confused.Rows, relation.Row{relation.StrVal("7"), relation.FloatVal(1), relation.StrVal("x"), relation.DateVal(1)})
	ragged := withoutImage(edgeTable())
	ragged.Rows = append(ragged.Rows, relation.Row{relation.IntVal(7)})
	for _, tc := range []struct {
		table *relation.Table
		want  string
	}{
		{confused, "relation: columnar edge: row 6 column id wants int, got string"},
		{ragged, "relation: columnar edge: row 6 has 1 cells, schema has 4"},
	} {
		want, err := relation.Columnar(tc.table)
		if want != nil || err == nil || err.Error() != tc.want {
			t.Fatalf("relation.Columnar says %v, the test expects %q", err, tc.want)
		}
		buf := &memConn{}
		conn := NewConn(buf)
		if err := conn.WriteResponse(&Response{Result: tc.table, Version: 3}); err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteResponse(&Response{Version: 4}); err != nil {
			t.Fatal(err)
		}
		first, err := conn.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if first.Err != tc.want || first.Result != nil || first.Version != 0 || first.Degraded {
			t.Errorf("peer read %+v, want a plain error response %q", first, tc.want)
		}
		if second, err := conn.ReadResponse(); err != nil || second.Version != 4 {
			t.Errorf("next response on the same connection: %+v %v", second, err)
		}
	}

	buf := &memConn{}
	conn := NewConn(buf)
	mixed := []relation.Row{{relation.IntVal(1)}, {relation.StrVal("x")}}
	err := conn.WriteRequest(&Request{Kind: KindInsert, Table: "t", Rows: mixed})
	if err == nil || !strings.Contains(err.Error(), "row 1 column  wants int, got string") || buf.Len() != 0 {
		t.Errorf("mixed-type rows: err %v with %d bytes written", err, buf.Len())
	}
	if err := conn.WriteRequest(&Request{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	if req, err := conn.ReadRequest(); err != nil || req.Kind != KindPing {
		t.Errorf("next request on the same connection: %+v %v", req, err)
	}
}

// A reader takes exactly its frame from the stream: the next frame, or a
// pool's liveness probe, finds the byte after it.
func TestReadStopsAtTheFrameBoundary(t *testing.T) {
	msgs := goldenMessages()
	buf := &memConn{}
	for _, m := range msgs {
		buf.Write(frameOf(t, m, true))
	}
	buf.WriteString("tail")
	conn := NewConn(buf)
	for _, m := range msgs {
		got, err := conn.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if err := sameWire(reflect.ValueOf(m.resp), reflect.ValueOf(got), m.name); err != nil {
			t.Error(err)
		}
	}
	if buf.String() != "tail" {
		t.Errorf("%q left after the last frame, want %q", buf.String(), "tail")
	}
}

// reseal makes a tampered frame internally consistent again — length and
// checksum rewritten — so the field decoders, not the checksum, have to
// catch what was done to the body.
func reseal(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	if len(out) < frameHeader {
		return out
	}
	binary.LittleEndian.PutUint32(out[12:], uint32(len(out)-frameHeader))
	binary.LittleEndian.PutUint32(out[16:], frameSum(out, out[frameHeader:]))
	return out
}

// raw writes wire primitives by value, for frames no encoder would build.
type raw struct{ wire }

func (r *raw) str(s string)     { r.wire.str(&s) }
func (r *raw) uvarint(x uint64) { r.wire.uvarint(&x) }
func (r *raw) int(x int)        { r.wire.int(&x) }
func (r *raw) f64(x float64)    { r.wire.f64(&x) }
func (r *raw) bool(x bool)      { r.wire.bool(&x) }

type hostileFrame struct {
	name     string
	frame    []byte
	response bool
}

// hostileFrames are well-formed enough to pass the header checks (where
// the name does not say otherwise) and wrong in exactly one way.
func hostileFrames(tb testing.TB) []hostileFrame {
	// tableFrame builds a response whose Result is the given raw table
	// encoding.
	tableFrame := func(table func(e *raw)) []byte {
		e := &raw{wire{enc: true, b: make([]byte, frameHeader)}}
		e.str("")     // Err
		e.uvarint(0)  // Tables
		e.uvarint(0)  // TableRows
		e.bool(true)  // Result present
		e.str("t")    // name
		table(e)      // columns, N, vectors
		e.bool(false) // Meta
		for i := 0; i < 5; i++ {
			e.uvarint(0) // Replicas, Views, Sites, Metrics, Batch
		}
		e.uvarint(0)  // Version
		e.bool(false) // DeltaRows
		e.bool(false) // Gossip
		e.b[0], e.b[1] = frameMagic, frameResponse
		return reseal(e.b)
	}
	oneColumn := func(e *raw, ty relation.Type, n uint64) {
		e.uvarint(1)
		e.str("c")
		e.b = append(e.b, byte(ty))
		e.uvarint(n)
	}
	ping := frameOf(tb, message{req: &Request{Kind: KindPing}}, false)
	exec := frameOf(tb, message{resp: &Response{Result: edgeTable()}}, true)
	var out []hostileFrame
	add := func(name string, frame []byte, response bool) {
		out = append(out, hostileFrame{name, frame, response})
	}

	flipped := append([]byte(nil), exec...)
	flipped[bytes.Index(flipped, binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.5)))+6] ^= 1 // 2.5 becomes 2.75
	add("one bit flipped in a float vector", flipped, true)
	badMagic := append([]byte(nil), ping...)
	badMagic[0] = frameMagic - 1
	add("the previous format version", badMagic, false)
	reserved := append([]byte(nil), ping...)
	reserved[3] = 1
	add("reserved header byte set", reserved, false)
	huge := append([]byte(nil), ping[:frameHeader]...)
	binary.LittleEndian.PutUint32(huge[12:], maxFrameBody+1)
	add("body length over the limit", huge, false)
	claimed := append([]byte(nil), ping...)
	binary.LittleEndian.PutUint32(claimed[12:], maxFrameBody)
	add("body length far beyond the bytes sent", claimed, false)
	for _, kind := range []byte{0, byte(KindGossip) + 1, frameResponse} {
		k := append([]byte(nil), ping...)
		k[1] = kind
		add(fmt.Sprintf("request kind %d", kind), reseal(k), false)
	}
	for _, f := range []struct {
		frame    []byte
		response bool
	}{{ping, false}, {exec, true}} {
		flagged := append([]byte(nil), f.frame...)
		flagged[2] |= 0x40
		add("flag bit no field owns", reseal(flagged), f.response)
	}
	asRequest := append([]byte(nil), exec...)
	add("a response read as a request", asRequest, false)
	add("a request read as a response", ping, true)
	add("bytes after the last field", reseal(append(append([]byte(nil), ping...), 0)), false)

	add("unknown column type", tableFrame(func(e *raw) { oneColumn(e, 9, 0); e.uvarint(0) }), true)
	add("column type zero", tableFrame(func(e *raw) { oneColumn(e, 0, 0); e.uvarint(0) }), true)
	add("more columns than the limit", tableFrame(func(e *raw) { e.uvarint(maxColumns + 1) }), true)
	add("more columns than bytes", tableFrame(func(e *raw) { e.uvarint(1 << 40) }), true)
	add("rows without columns", tableFrame(func(e *raw) { e.uvarint(0); e.uvarint(5) }), true)
	add("row count beyond the bytes left", tableFrame(func(e *raw) {
		oneColumn(e, relation.Int, 1<<40)
		e.uvarint(1 << 40)
	}), true)
	add("float vector beyond the bytes left", tableFrame(func(e *raw) {
		oneColumn(e, relation.Float, 4)
		e.uvarint(4)
		e.f64(1)
	}), true)
	add("column length disagreeing with N", tableFrame(func(e *raw) {
		oneColumn(e, relation.Int, 3)
		e.uvarint(2)
		e.int(1)
		e.int(2)
	}), true)
	add("string lengths summing past the blob", tableFrame(func(e *raw) {
		oneColumn(e, relation.Str, 2)
		e.uvarint(2)
		e.uvarint(3)
		e.uvarint(200)
		e.b = append(e.b, "abc"...)
	}), true)
	add("string lengths wrapping uint64", tableFrame(func(e *raw) {
		oneColumn(e, relation.Str, 2)
		e.uvarint(2)
		e.uvarint(math.MaxUint64)
		e.uvarint(2)
		e.b = append(e.b, "a"...)
	}), true)
	add("overlong varint in an int vector", tableFrame(func(e *raw) {
		oneColumn(e, relation.Int, 1)
		e.uvarint(1)
		e.b = append(e.b, bytes.Repeat([]byte{0xff}, 11)...)
	}), true)
	add("boolean that is neither 0 nor 1", reseal(append(append([]byte(nil), ping[:len(ping)-1]...), 2)), false)
	return out
}

func TestHostileFramesAreRejectedBeforeAllocating(t *testing.T) {
	for _, h := range hostileFrames(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readFrame(h.frame, h.response)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded cleanly as %+v", h.name, got)
			continue
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			t.Errorf("%s: %v is a remote error; a bad frame is a transport failure", h.name, err)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > decodeAllocBound(len(h.frame)) {
			t.Errorf("%s: %d bytes allocated rejecting a %d-byte frame", h.name, spent, len(h.frame))
		}
	}
}

// Every truncation of every golden frame is an error, never a shorter
// message: cut in the stream (the read comes up short) and cut with the
// header resealed around what is left (the field decoders run dry).
func TestTruncatedFramesAreRejected(t *testing.T) {
	for _, m := range goldenMessages() {
		for _, response := range []bool{false, true} {
			frame := frameOf(t, m, response)
			for cut := 0; cut < len(frame); cut++ {
				if _, err := readFrame(frame[:cut], response); err == nil {
					t.Fatalf("%s (response %v) cut at %d of %d decoded cleanly", m.name, response, cut, len(frame))
				}
				if cut < frameHeader {
					continue
				}
				if _, err := readFrame(reseal(frame[:cut]), response); err == nil {
					t.Fatalf("%s (response %v) resealed at %d of %d decoded cleanly", m.name, response, cut, len(frame))
				}
			}
		}
	}
}

// decodeAllocBound is the most reading one frame of n bytes may allocate.
// A cell costs at least one byte on the wire and 40 (its Value in the row
// slab) + 16 (a string header in the image) + 8 (amortised row header and
// vector growth) in memory; the frame buffer is at most doubled while it
// grows; readChunk is allocated before the first body byte arrives.
func decodeAllocBound(n int) uint64 {
	return 72*uint64(n) + readChunk + 16<<10
}

// FuzzDecode feeds arbitrary bytes to both readers. Whatever the input:
// no panic, bounded allocation, and a frame that does decode re-encodes
// to a frame that decodes to the same message.
func FuzzDecode(f *testing.F) {
	for _, m := range goldenMessages() {
		for _, response := range []bool{false, true} {
			frame := frameOf(f, m, response)
			f.Add(frame, response, false)
			for cut := frameHeader; cut < len(frame); cut += 1 + len(frame)/24 {
				f.Add(frame[:cut], response, false)
				f.Add(frame[:cut], response, true)
			}
		}
	}
	for _, h := range hostileFrames(f) {
		f.Add(h.frame, h.response, false)
		f.Add(h.frame, h.response, true)
	}
	f.Fuzz(func(t *testing.T, frame []byte, response, fix bool) {
		if fix {
			frame = reseal(frame)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readFrame(frame, response)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > decodeAllocBound(len(frame)) {
			t.Fatalf("%d bytes allocated reading a %d-byte frame (err %v)", spent, len(frame), err)
		}
		if err != nil {
			return
		}
		m := message{name: "fuzzed"}
		if response {
			m.resp = got.(*Response)
		} else {
			m.req = got.(*Request)
		}
		again, err := readFrame(frameOf(t, m, response), response)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if err := sameWire(reflect.ValueOf(got), reflect.ValueOf(again), "fuzzed"); err != nil {
			t.Fatal(err)
		}
	})
}
