package server

import (
	"errors"
	"log"
	"net"
	"sync"

	"ivdss/internal/netproto"
)

// serveConns accepts connections on l until closed is closed and answers
// each connection's requests with handle, one at a time, in order. The
// caller has counted it in wg; each connection's goroutine is counted
// there too, and tracked in live so Close can cut pooled idle ones.
func serveConns(l net.Listener, closed <-chan struct{}, wg *sync.WaitGroup, live *connSet, handle func(*netproto.Request) *netproto.Response) {
	defer wg.Done()
	for {
		raw, err := l.Accept()
		if err != nil {
			select {
			case <-closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("server: accept: %v", err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := netproto.NewConn(raw)
			live.add(conn)
			defer live.remove(conn)
			defer conn.Close()
			for {
				req, err := conn.ReadRequest()
				if err != nil {
					return // EOF or broken pipe: the client is done
				}
				if err := conn.WriteResponse(handle(req)); err != nil {
					return
				}
			}
		}()
	}
}

// connSet tracks a server's live client connections so Close can unblock
// handler goroutines parked in ReadRequest: pooled clients (netproto.Pool)
// keep idle connections open indefinitely, so waiting for them to hang up
// would deadlock shutdown.
type connSet struct {
	mu    sync.Mutex
	conns map[*netproto.Conn]bool
}

func (cs *connSet) add(c *netproto.Conn) {
	cs.mu.Lock()
	if cs.conns == nil {
		cs.conns = make(map[*netproto.Conn]bool)
	}
	cs.conns[c] = true
	cs.mu.Unlock()
}

func (cs *connSet) remove(c *netproto.Conn) {
	cs.mu.Lock()
	delete(cs.conns, c)
	cs.mu.Unlock()
}

// closeAll force-closes every tracked connection.
func (cs *connSet) closeAll() {
	cs.mu.Lock()
	for c := range cs.conns {
		//lint:allow detordercheck(force-closing every tracked conn commutes; conns have no sort key)
		_ = c.Close() // teardown: reset-on-close is the point
	}
	cs.mu.Unlock()
}
