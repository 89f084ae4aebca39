package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/server"
)

// deployment is one live federation on loopback TCP: two RemoteServers,
// optionally a byte-counting relay in front of each, and the DSS.
type deployment struct {
	remotes [2]*server.RemoteServer
	// siteAddrs are the remotes' own listeners; the DSS dials dssRemotes,
	// which are the relays when relayed.
	siteAddrs  [2]string
	dssRemotes [2]string
	relays     [2]*relay
	// tables are the table objects the remotes serve — the very pointers,
	// so after a writer ran they hold the sites' final contents.
	tables [2]map[string]*relation.Table

	dss  *server.DSSServer
	addr string
}

// cloneTables deep-copies the generated catalog, so a run that inserts
// into its remotes leaves the generated tables (and the oracle built on
// them) untouched.
func cloneTables(tables map[string]*relation.Table) map[string]*relation.Table {
	out := make(map[string]*relation.Table, len(tables))
	for name, t := range tables {
		out[name] = t.Clone()
	}
	return out
}

// startDeployment brings the deployment up and returns it with the
// set-up time: tables in hand → remotes listening → NewDSSServer (initial
// snapshots, view materialisation) → Listen → first KindPing answered.
func startDeployment(w workload, tables map[string]*relation.Table, relayed bool) (*deployment, time.Duration, error) {
	f := &deployment{}
	start := time.Now()
	for i, names := range siteTables {
		rs := server.NewRemoteServer()
		f.remotes[i] = rs
		f.tables[i] = make(map[string]*relation.Table, len(names))
		for _, name := range names {
			t, ok := tables[name]
			if !ok {
				f.Close()
				return nil, 0, fmt.Errorf("generated catalog has no table %s", name)
			}
			f.tables[i][name] = t
			if err := rs.AddTable(t); err != nil {
				f.Close()
				return nil, 0, err
			}
		}
		addr, err := rs.Listen("127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		f.siteAddrs[i], f.dssRemotes[i] = addr, addr
		if relayed {
			r, err := startRelay(addr)
			if err != nil {
				f.Close()
				return nil, 0, err
			}
			f.relays[i], f.dssRemotes[i] = r, r.addr
		}
	}
	cfg, err := w.dssConfig(f.dssRemotes)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	dss, err := server.NewDSSServer(cfg)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	f.dss = dss
	if f.addr, err = dss.Listen("127.0.0.1:0"); err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := netproto.Call(f.addr, &netproto.Request{Kind: netproto.KindPing}, 5*time.Second); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("first ping: %w", err)
	}
	return f, time.Since(start), nil
}

// Close tears the deployment down, DSS first so no sync cycle is cut off
// by a vanished remote. Safe on a partly built federation.
func (f *deployment) Close() {
	if f.dss != nil {
		_ = f.dss.Close() // teardown: the listener is going away regardless
	}
	for _, r := range f.relays {
		if r != nil {
			r.Close()
		}
	}
	for _, rs := range f.remotes {
		if rs != nil {
			_ = rs.Close() // ditto
		}
	}
}

// metrics scrapes the DSS registry over the wire (KindMetrics), the same
// way an operator would.
func (f *deployment) metrics() (map[string]float64, error) {
	resp, err := netproto.Call(f.addr, &netproto.Request{Kind: netproto.KindMetrics}, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return resp.Metrics, nil
}

// relay is a TCP pass-through that counts the bytes it carries each way.
// It stands between the DSS and one remote during the traced boundary
// pass, so wire volume is measured on the wire and not inferred.
type relay struct {
	addr   string
	target string
	l      net.Listener
	toSite atomic.Int64 // bytes DSS → remote
	toDSS  atomic.Int64 // bytes remote → DSS

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
	done  chan struct{}
}

func startRelay(target string) (*relay, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{addr: l.Addr().String(), target: target, l: l,
		conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) bytes() int64 { return r.toSite.Load() + r.toDSS.Load() }

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		in, err := r.l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-r.done:
				return
			default:
				continue
			}
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		if !r.track(in, out) {
			in.Close()
			out.Close()
			return
		}
		r.wg.Add(2)
		go r.pipe(out, in, &r.toSite)
		go r.pipe(in, out, &r.toDSS)
	}
}

// track registers a connection pair for Close; false once closing began.
func (r *relay) track(conns ...net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.done:
		return false
	default:
	}
	for _, c := range conns {
		r.conns[c] = struct{}{}
	}
	return true
}

// pipe copies src to dst until either side ends, then closes both so the
// opposite pipe ends too.
func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	_, _ = io.Copy(countingWriter{dst, n}, src) // a broken pipe just ends the relay leg
	dst.Close()
	src.Close()
}

func (r *relay) Close() {
	r.mu.Lock()
	close(r.done)
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.l.Close()
	r.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingConn counts the bytes a client connection reads and writes.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
