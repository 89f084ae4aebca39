package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ivdss/internal/wall"
)

// Pool is a keyed connection pool for the wire protocol: connections are
// reused per address, health-checked before reuse, and bounded per key.
// The protocol allows one outstanding request per connection, so a pooled
// connection is either idle or owned by exactly one in-flight call.
type Pool struct {
	// DialTimeout bounds establishing a new connection. Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds each round trip made through the pool; zero means
	// no per-call deadline (not recommended — a hung peer then stalls the
	// caller).
	CallTimeout time.Duration

	mu     sync.Mutex
	idle   map[string][]pooledConn
	closed bool
}

const (
	// maxIdlePerKey caps idle connections kept per address.
	maxIdlePerKey = 4
	// idleExpiry discards idle connections older than this.
	idleExpiry = 30 * time.Second
)

type pooledConn struct {
	conn  *Conn
	since time.Time
}

// NewPool returns an empty pool with the given per-call timeout.
func NewPool(dialTimeout, callTimeout time.Duration) *Pool {
	return &Pool{
		DialTimeout: dialTimeout,
		CallTimeout: callTimeout,
		idle:        make(map[string][]pooledConn),
	}
}

// get returns a healthy idle connection for addr, or reused=false when the
// caller must dial.
func (p *Pool) get(addr string) (c *Conn, reused bool) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, false
		}
		conns := p.idle[addr]
		if len(conns) == 0 {
			p.mu.Unlock()
			return nil, false
		}
		pc := conns[len(conns)-1]
		p.idle[addr] = conns[:len(conns)-1]
		p.mu.Unlock()
		if wall.Since(pc.since) > idleExpiry || !healthy(pc.conn) {
			_ = pc.conn.Close() // discarding a stale conn; nothing to salvage
			continue
		}
		return pc.conn, true
	}
}

// healthy probes an idle connection for silent peer closure: with a
// deadline in the past, a read must time out (no data, still open). An EOF
// means the peer hung up; any buffered byte means the one-request-at-a-time
// protocol was violated, so the connection is unusable either way.
func healthy(c *Conn) bool {
	if err := c.raw.SetReadDeadline(time.Unix(1, 0)); err != nil {
		return false
	}
	var b [1]byte
	n, err := c.raw.Read(b[:])
	if resetErr := c.raw.SetReadDeadline(time.Time{}); resetErr != nil {
		return false
	}
	if n > 0 {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// put returns a connection to the idle set, closing it when the pool is
// full or closed.
func (p *Pool) put(addr string, c *Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= maxIdlePerKey {
		p.mu.Unlock()
		_ = c.Close() // surplus conn; the call it served already succeeded
		return
	}
	p.idle[addr] = append(p.idle[addr], pooledConn{conn: c, since: wall.Now()})
	p.mu.Unlock()
}

func (p *Pool) dial(ctx context.Context, addr string) (*Conn, error) {
	d := p.DialTimeout
	if d <= 0 {
		d = 5 * time.Second
	}
	c, err := DialContext(ctx, addr, d)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(p.CallTimeout)
	return c, nil
}

// Call round-trips one request against addr over a pooled connection. A
// failure on a reused connection (the peer may have silently closed it
// since the health probe) is transparently retried once on a fresh dial;
// a failure on a fresh connection is the caller's to handle. A
// server-reported error leaves the connection healthy, so it is returned
// to the pool and the error surfaces via the response's Err field.
func (p *Pool) Call(addr string, req *Request) (*Response, error) {
	return p.CallContext(context.Background(), addr, req)
}

// CallContext is Call bounded by a context: the dial and the round trip
// respect the earlier of the pool's timeouts and the context deadline, the
// remaining budget travels on the wire (Conn.RoundTripContext), and the
// redial-once repair path is skipped when the context has already ended —
// a deadline failure is the caller's answer, not a broken idle connection.
func (p *Pool) CallContext(ctx context.Context, addr string, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	conn, reused := p.get(addr)
	if conn == nil {
		var err error
		conn, err = p.dial(ctx, addr)
		if err != nil {
			return nil, err
		}
	}
	resp, err := conn.RoundTripContext(ctx, req)
	if err != nil {
		_ = conn.Close() // the round-trip error is the one to surface
		if !reused || ctx.Err() != nil {
			return nil, err
		}
		conn, err = p.dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		resp, err = conn.RoundTripContext(ctx, req)
		if err != nil {
			_ = conn.Close() // ditto: report the round-trip failure
			return nil, err
		}
	}
	p.put(addr, conn)
	return resp, nil
}

// IdleLen reports the idle connections held for addr (for tests and
// introspection).
func (p *Pool) IdleLen(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// Close discards every idle connection and makes further calls dial
// one-shot connections that are closed after use.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	// Close in sorted address order so firstErr picks the same failure
	// on every run.
	addrs := make([]string, 0, len(p.idle))
	for addr := range p.idle {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	var firstErr error
	for _, addr := range addrs {
		for _, pc := range p.idle[addr] {
			if err := pc.conn.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("netproto: pool close: %w", err)
			}
		}
	}
	p.idle = make(map[string][]pooledConn)
	return firstErr
}
