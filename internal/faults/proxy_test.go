package faults

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// echoTable is what startEcho answers KindScan and KindExec with: floats
// and ints whose flipped low bits would read as plausible other numbers.
func echoTable() *relation.Table {
	tb := relation.NewTable("balances", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.Int},
		relation.Column{Name: "balance", Type: relation.Float},
		relation.Column{Name: "owner", Type: relation.Str},
	))
	for i := 0; i < 64; i++ {
		tb.MustInsert(relation.Row{relation.IntVal(int64(i)), relation.FloatVal(float64(i) * 1.5), relation.StrVal("holder")})
	}
	return tb
}

// startEcho runs a minimal netproto server that answers KindPing, and
// KindScan/KindExec with echoTable.
func startEcho(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := netproto.NewConn(raw)
				defer conn.Close()
				for {
					req, err := conn.ReadRequest()
					if err != nil {
						return
					}
					resp := &netproto.Response{}
					if req.Kind == netproto.KindScan || req.Kind == netproto.KindExec {
						resp.Result = echoTable()
					}
					if err := conn.WriteResponse(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func startProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p := NewProxy(target, 42)
	if _, err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestProxyPassThrough(t *testing.T) {
	p := startProxy(t, startEcho(t))
	resp, err := netproto.Call(p.Addr(), &netproto.Request{Kind: netproto.KindPing}, time.Second)
	if err != nil || resp.Err != "" {
		t.Fatalf("pass-through ping: %v %v", err, resp)
	}
}

func TestProxyDelay(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetMode(ModeDelay, 80*time.Millisecond)
	start := time.Now()
	if _, err := netproto.Call(p.Addr(), &netproto.Request{Kind: netproto.KindPing}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Errorf("delayed call returned in %v", elapsed)
	}
}

func TestProxyDrop(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetMode(ModeDrop, 0)
	if _, err := netproto.Call(p.Addr(), &netproto.Request{Kind: netproto.KindPing}, time.Second); err == nil {
		t.Fatal("call through dropping proxy succeeded")
	}
}

func TestProxyBlackholeTimesOut(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetMode(ModeBlackhole, 0)
	start := time.Now()
	_, err := netproto.Call(p.Addr(), &netproto.Request{Kind: netproto.KindPing}, 150*time.Millisecond)
	if err == nil {
		t.Fatal("call through black-holed proxy succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("black-holed call took %v", elapsed)
	}
}

// A corrupted reply must fail closed: raw float and varint vectors would
// decode a flipped bit into a different number, so the frame's header
// checks and checksum have to turn every corrupted message — a bare ping
// or a table — into an error, and never into a table.
func TestProxyCorruptBreaksDecoding(t *testing.T) {
	p := startProxy(t, startEcho(t))
	for _, req := range []*netproto.Request{
		{Kind: netproto.KindScan, Table: "balances"},
		{Kind: netproto.KindExec, SQL: "SELECT * FROM balances"},
	} {
		if resp, err := netproto.Call(p.Addr(), req, time.Second); err != nil || resp.Result.NumRows() != 64 {
			t.Fatalf("clean pass-through of kind %d: %v", req.Kind, err)
		}
	}
	p.SetMode(ModeCorrupt, 0)
	for _, kind := range []netproto.RequestKind{netproto.KindPing, netproto.KindScan, netproto.KindExec} {
		for attempt := 0; attempt < 5; attempt++ {
			resp, err := netproto.Call(p.Addr(), &netproto.Request{Kind: kind, Table: "balances", SQL: "SELECT * FROM balances"}, time.Second)
			if err == nil {
				t.Fatalf("kind %d attempt %d: corrupted response decoded cleanly: %+v", kind, attempt, resp)
			}
			var remote *netproto.RemoteError
			if errors.As(err, &remote) {
				t.Fatalf("kind %d: corruption surfaced as a server-reported error: %v", kind, err)
			}
		}
	}
}

// corruptAfter flips one bit of the byte at offset skip of everything read
// through it: past the header, so only the checksum can notice.
type corruptAfter struct {
	net.Conn
	skip int
}

func (c *corruptAfter) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.skip >= 0 && c.skip < n {
		b[c.skip] ^= 1
	}
	c.skip -= n
	return n, err
}

// A checksum failure is a transport failure: the pool discards the
// connection and the Retrier retries the call. (The breaker's side is
// server.TestDSSCorruptedSiteFailsClosed.)
func TestChecksumFailureIsATransportError(t *testing.T) {
	addr := startEcho(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Offset 60 of the reply is inside the table's vectors.
	conn := netproto.NewConn(&corruptAfter{Conn: raw, skip: 60})
	defer conn.Close()
	conn.SetTimeout(time.Second)
	if resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindScan}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flipped in a vector: resp %+v err %v, want a checksum error", resp, err)
	}

	p := startProxy(t, addr)
	p.SetMode(ModeCorrupt, 0)
	pool := netproto.NewPool(time.Second, time.Second)
	defer pool.Close()
	attempts := 0
	err = netproto.Retrier{MaxAttempts: 3, Sleep: func(time.Duration) {}}.DoContext(context.Background(), func(int) error {
		attempts++
		_, err := pool.Call(p.Addr(), &netproto.Request{Kind: netproto.KindScan})
		return err
	})
	if err == nil || attempts != 3 {
		t.Fatalf("corrupt replies: err %v after %d attempts, want a failure after 3", err, attempts)
	}
	if n := pool.IdleLen(p.Addr()); n != 0 {
		t.Errorf("%d connections that delivered a corrupt reply went back to the pool", n)
	}
}

func TestProxySeverCutsEstablishedConns(t *testing.T) {
	p := startProxy(t, startEcho(t))
	conn, err := netproto.Dial(p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetTimeout(time.Second)
	if _, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindPing}); err != nil {
		t.Fatal(err)
	}
	p.Sever()
	if _, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindPing}); err == nil {
		t.Fatal("round trip over severed connection succeeded")
	}
	// New connections still pass.
	if _, err := netproto.Call(p.Addr(), &netproto.Request{Kind: netproto.KindPing}, time.Second); err != nil {
		t.Fatalf("fresh connection after sever: %v", err)
	}
}

func TestProxyProbabilisticFaultsDeterministicUnderSeed(t *testing.T) {
	run := func() []bool {
		echo := startEcho(t)
		p := NewProxy(echo, 7)
		if _, err := p.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.SetMode(ModeDrop, 0)
		p.SetProb(.5)
		var outcomes []bool
		for i := 0; i < 12; i++ {
			_, err := netproto.Call(p.Addr(), &netproto.Request{Kind: netproto.KindPing}, time.Second)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs between seeded runs: %v vs %v", i, a, b)
		}
	}
	// The 50% drop mode must actually produce both outcomes.
	saw := map[bool]bool{}
	for _, ok := range a {
		saw[ok] = true
	}
	if !saw[true] || !saw[false] {
		t.Errorf("outcomes not mixed: %v", a)
	}
}
