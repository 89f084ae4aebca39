package netproto

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer answers every request with its Table echoed back in Tables.
// It returns the listening address and a close func.
func echoServer(t *testing.T) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, raw)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := NewConn(raw)
				defer conn.Close()
				for {
					req, err := conn.ReadRequest()
					if err != nil {
						return
					}
					if err := conn.WriteResponse(&Response{Tables: []string{req.Table}}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

func TestPoolReusesConnections(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p := NewPool(time.Second, time.Second)
	defer p.Close()
	for i := 0; i < 5; i++ {
		resp, err := p.Call(addr, &Request{Kind: KindTables, Table: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Tables) != 1 || resp.Tables[0] != "t" {
			t.Fatalf("round %d: %v", i, resp.Tables)
		}
	}
	if got := p.IdleLen(addr); got != 1 {
		t.Errorf("idle connections = %d, want 1 (sequential calls reuse one conn)", got)
	}
}

func TestPoolSurvivesServerDroppingIdleConns(t *testing.T) {
	addr, stop := echoServer(t)
	p := NewPool(time.Second, time.Second)
	defer p.Close()
	if _, err := p.Call(addr, &Request{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	// Kill the server: the pooled idle connection is now dead. A new
	// server on the same port would be ideal but the port is ephemeral, so
	// assert the dead connection is detected rather than handed out.
	stop()
	if _, err := p.Call(addr, &Request{Kind: KindPing}); err == nil {
		t.Fatal("call against a dead server succeeded")
	}
	if got := p.IdleLen(addr); got != 0 {
		t.Errorf("idle connections = %d after server death, want 0", got)
	}
}

func TestPoolConcurrentCallers(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p := NewPool(time.Second, time.Second)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := p.Call(addr, &Request{Kind: KindTables, Table: "x"})
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Tables) != 1 || resp.Tables[0] != "x" {
					errs <- errors.New("bad echo")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.IdleLen(addr); got > maxIdlePerKey {
		t.Errorf("idle connections = %d, want ≤ %d", got, maxIdlePerKey)
	}
}

func TestPoolCloseDiscardsIdle(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p := NewPool(time.Second, time.Second)
	if _, err := p.Call(addr, &Request{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.IdleLen(addr); got != 0 {
		t.Errorf("idle connections = %d after close", got)
	}
	// Calls after Close still work as one-shot connections.
	if _, err := p.Call(addr, &Request{Kind: KindPing}); err != nil {
		t.Fatalf("call after close: %v", err)
	}
	if got := p.IdleLen(addr); got != 0 {
		t.Errorf("closed pool retained a connection")
	}
}
