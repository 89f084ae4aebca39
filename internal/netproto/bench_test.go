package netproto

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// memConn is an in-memory net.Conn: what is written is read back, so the
// codec can be driven without a socket, encode apart from decode.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// lineitemFragment is the pushdown the wall-clock benchmark ships for Q3,
// run over `rows`-scaled TPC-H data: a 16-column table with all four
// column types, carrying the VM's columnar image like any remote result.
func lineitemFragment(tb testing.TB, scale float64) *relation.Table {
	tb.Helper()
	tables, err := tpch.Generate(tpch.Config{Scale: scale, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	out, err := sqlmini.RunWith(context.Background(),
		"SELECT * FROM lineitem WHERE l_shipdate > DATE '1995-03-15'",
		sqlmini.MapCatalog{tpch.LineItem: tables[tpch.LineItem]}, sqlmini.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if out.NumRows() == 0 || out.Image() == nil {
		tb.Fatalf("fragment has %d rows, image %v", out.NumRows(), out.Image())
	}
	return out
}

// BenchmarkFrameEncode times both sources the encoder gathers vectors
// from: the VM's image (a pushdown result) and bare rows (a base-table
// scan or snapshot).
func BenchmarkFrameEncode(b *testing.B) {
	fragment := lineitemFragment(b, 4)
	for _, tc := range []struct {
		name  string
		table *relation.Table
	}{
		{"image", fragment},
		{"rows", &relation.Table{Name: fragment.Name, Schema: fragment.Schema, Rows: fragment.Rows}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			resp := &Response{Result: tc.table}
			buf := &memConn{}
			conn := NewConn(buf)
			if err := conn.WriteResponse(resp); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := conn.WriteResponse(resp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len())/float64(tc.table.NumRows()), "B/row")
		})
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	resp := &Response{Result: lineitemFragment(b, 4)}
	buf := &memConn{}
	conn := NewConn(buf)
	if err := conn.WriteResponse(resp); err != nil {
		b.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		buf.Write(frame)
		if _, err := conn.ReadResponse(); err != nil {
			b.Fatal(err)
		}
	}
}
