package faults

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"ivdss/internal/wall"
)

// Mode selects the fault a Proxy injects on new connections.
type Mode int

const (
	// ModePass forwards traffic untouched.
	ModePass Mode = iota
	// ModeDelay forwards traffic after pausing each new connection.
	ModeDelay
	// ModeDrop closes each new connection immediately — a crashed remote
	// whose host still resets the port.
	ModeDrop
	// ModeBlackhole accepts and then never forwards a byte — a hung
	// remote, the worst case for callers without deadlines.
	ModeBlackhole
	// ModeCorrupt forwards traffic but flips bytes on the upstream→client
	// path, so responses fail to decode.
	ModeCorrupt
)

// String names the mode for logs.
func (m Mode) String() string {
	switch m {
	case ModePass:
		return "pass"
	case ModeDelay:
		return "delay"
	case ModeDrop:
		return "drop"
	case ModeBlackhole:
		return "blackhole"
	case ModeCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Proxy is an in-process fault-injecting TCP proxy: it listens locally and
// forwards to a target address, applying the configured fault to each new
// connection with probability Prob, decided by a seeded RNG so a test run
// is reproducible. Mode changes apply to connections accepted afterwards;
// Sever cuts the connections already established (a crash, not a drain).
type Proxy struct {
	target string

	mu    sync.Mutex
	mode  Mode
	delay time.Duration
	prob  float64
	rng   *rand.Rand
	conns map[net.Conn]struct{} // live client-side conns, for Sever

	listener  net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewProxy returns a pass-through proxy toward target whose fault
// decisions replay deterministically for a given seed.
func NewProxy(target string, seed int64) *Proxy {
	return &Proxy{
		target: target,
		prob:   1,
		rng:    rand.New(rand.NewSource(seed)),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
}

// SetMode switches the fault applied to subsequently accepted
// connections. delay is used by ModeDelay only.
func (p *Proxy) SetMode(m Mode, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode = m
	p.delay = delay
}

// SetProb sets the probability (0..1) that a new connection is faulted;
// unfaulted connections pass through. Default 1.
func (p *Proxy) SetProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prob = prob
}

// Mode returns the currently configured fault mode.
func (p *Proxy) Mode() Mode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode
}

// Listen binds the proxy (use "127.0.0.1:0" for an ephemeral port) and
// starts accepting in the background. It returns the bound address.
func (p *Proxy) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("faults: proxy listen %s: %w", addr, err)
	}
	p.listener = l
	p.wg.Add(1)
	go p.acceptLoop()
	return l.Addr().String(), nil
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		raw, err := p.listener.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("faults: proxy accept: %v", err)
			continue
		}
		p.mu.Lock()
		mode, delay := p.mode, p.delay
		if p.prob < 1 && p.rng.Float64() >= p.prob {
			mode = ModePass
		}
		p.conns[raw] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.forget(raw)
			p.serve(raw, mode, delay)
		}()
	}
}

func (p *Proxy) forget(c net.Conn) {
	_ = c.Close() // teardown of a tracked conn; reset-on-close is the point
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) serve(client net.Conn, mode Mode, delay time.Duration) {
	switch mode {
	case ModeDrop:
		return // forget closes the client side
	case ModeBlackhole:
		<-p.closed // hold the connection open, forward nothing
		return
	case ModeDelay:
		select {
		case <-wall.After(delay):
		case <-p.closed:
			return
		}
	}

	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return // client sees a reset, like a dead remote
	}
	p.mu.Lock()
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer p.forget(upstream)

	done := make(chan struct{}, 2)
	go func() {
		_, _ = io.Copy(upstream, client)
		// Half-close toward the remote so its read loop sees EOF.
		if tc, ok := upstream.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		if mode == ModeCorrupt {
			_, _ = io.Copy(client, &corruptReader{r: upstream})
		} else {
			_, _ = io.Copy(client, upstream)
		}
		if tc, ok := client.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// Either direction finishing (or proxy shutdown) tears the pair down;
	// the deferred forget and the caller's forget close both conns, which
	// unblocks the remaining copier.
	select {
	case <-done:
	case <-p.closed:
	}
}

// corruptReader flips the low bit of every 7th byte without stalling the
// stream: the first flip lands on the frame's version byte, and any flip
// the header checks miss fails the frame checksum, so a corrupted reply
// is a transport error at the reader, never a different table.
type corruptReader struct {
	r io.Reader
	n int
}

func (c *corruptReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	for i := 0; i < n; i++ {
		if (c.n+i)%7 == 0 {
			b[i] ^= 1
		}
	}
	c.n += n
	return n, err
}

// Sever closes every established connection through the proxy, simulating
// a crash of the link. New connections still follow the current mode.
func (p *Proxy) Sever() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		//lint:allow detordercheck(closing every tracked conn commutes; net.Conn has no sort key)
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close() // severing the link: reset-on-close is the point
	}
}

// Addr returns the proxy's bound address (after Listen).
func (p *Proxy) Addr() string {
	if p.listener == nil {
		return ""
	}
	return p.listener.Addr().String()
}

// Close stops the listener and severs all connections. It is idempotent.
func (p *Proxy) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.closed)
		if p.listener != nil {
			err = p.listener.Close()
		}
		p.Sever()
		p.wg.Wait()
	})
	return err
}
