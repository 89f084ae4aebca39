// Package server implements the live deployment: RemoteServer is a branch
// database server holding base tables; DSSServer is the local federation
// server that maintains replicas on synchronization cycles, plans queries
// by information value, and answers clients over TCP.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// RemoteServer serves base tables: scans for replication pulls, local SQL
// execution (query pushdown), and row inserts that stand in for branch
// OLTP traffic.
type RemoteServer struct {
	mu     sync.RWMutex
	tables map[string]*relation.Table
	// execCache keeps the base tables' columnar images and join builds
	// between pushdowns, and each SQL text's parse and plans. Entries are
	// validated by row count and execution holds mu.RLock, so an insert
	// costs the next pushdown one rebuild.
	execCache *sqlmini.ExecCache
	// scanDelay simulates WAN latency on every scan and exec; loopback
	// demos use it so remote reads genuinely cost more than replicas.
	scanDelay time.Duration
	// requestTimeout is a server-side cap on each request's work,
	// composed with (never extending) the caller's wire deadline.
	requestTimeout time.Duration

	listener  net.Listener
	live      connSet
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewRemoteServer returns a server with no tables.
func NewRemoteServer() *RemoteServer {
	return &RemoteServer{
		tables:    make(map[string]*relation.Table),
		execCache: sqlmini.NewExecCache(),
		closed:    make(chan struct{}),
	}
}

// SetScanDelay makes every scan and query execution pause for d first,
// simulating WAN distance. Call before Listen.
func (s *RemoteServer) SetScanDelay(d time.Duration) { s.scanDelay = d }

// SetRequestTimeout caps the work spent on any single request at d,
// regardless of the deadline the caller stamped on the wire — protection
// against clients that ask for unbounded scans. The caller's own budget
// still applies when it is shorter. Zero means no cap. Call before Listen.
func (s *RemoteServer) SetRequestTimeout(d time.Duration) { s.requestTimeout = d }

// AddTable installs a base table (before or after Serve).
func (s *RemoteServer) AddTable(t *relation.Table) error {
	name := strings.ToLower(t.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("server: table %s already installed", name)
	}
	s.tables[name] = t
	return nil
}

// Tables lists the installed table names, sorted.
func (s *RemoteServer) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.tables)
}

// Listen binds the server to addr (use "127.0.0.1:0" for an ephemeral
// port) and starts serving in the background. It returns the bound
// address.
func (s *RemoteServer) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return l.Addr().String(), nil
}

func (s *RemoteServer) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("server: accept: %v", err)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			conn := netproto.NewConn(raw)
			s.live.add(conn)
			defer s.live.remove(conn)
			s.handleConn(conn)
		}()
	}
}

func (s *RemoteServer) handleConn(conn *netproto.Conn) {
	defer conn.Close()
	for {
		req, err := conn.ReadRequest()
		if err != nil {
			return // EOF or broken pipe: the client is done
		}
		resp := s.handle(req)
		if err := conn.WriteResponse(resp); err != nil {
			return
		}
	}
}

func (s *RemoteServer) handle(req *netproto.Request) *netproto.Response {
	// The wire deadline the caller stamped on the request bounds this
	// server's work too: a coordinator that has stopped waiting must not
	// keep a branch server scanning on its behalf. The server's own
	// request cap layers underneath, so context.WithTimeout keeps
	// whichever deadline is sooner.
	base := context.Background() //lint:allow ctxcheck(TCP request root: remote callers ship their budget on the wire, decoded below)
	if s.requestTimeout > 0 {
		var capCancel context.CancelFunc
		base, capCancel = context.WithTimeout(base, s.requestTimeout)
		defer capCancel()
	}
	ctx, cancel := req.BudgetContext(base)
	defer cancel()

	if req.Attach != nil && req.Kind != netproto.KindExec {
		return &netproto.Response{Err: fmt.Sprintf("request kind %d carries attached tables; only KindExec binds them", int(req.Kind))}
	}
	switch req.Kind {
	case netproto.KindScan, netproto.KindSnapshot, netproto.KindDelta, netproto.KindExec, netproto.KindBatch:
		// Every read pays the simulated WAN distance first.
		if err := s.waitScanDelay(ctx); err != nil {
			return &netproto.Response{Err: err.Error(), Expired: true}
		}
	}
	switch req.Kind {
	case netproto.KindPing:
		return &netproto.Response{}

	case netproto.KindTables:
		s.mu.RLock()
		defer s.mu.RUnlock()
		resp := &netproto.Response{Tables: sortedKeys(s.tables)}
		for _, name := range resp.Tables {
			resp.TableRows = append(resp.TableRows, len(s.tables[name].Rows))
		}
		return resp

	case netproto.KindScan, netproto.KindSnapshot:
		// A versioned full copy (a scan is a snapshot whose version goes
		// unread): the version is the row count, which is a complete change
		// cursor because base tables are append-only (Insert is the only
		// mutation). A view pull carries a delta projection
		// (Filter/Columns); the version still counts base rows so filtered
		// and unfiltered pulls share one cursor space.
		snapshot, version, ok := s.snapshot(req.Table, 0)
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		if req.Filter != "" || req.Columns != nil {
			var err error
			if snapshot, err = projectForWire(ctx, snapshot, req.Filter, req.Columns); err != nil {
				return &netproto.Response{Err: err.Error(), Expired: ctx.Err() != nil}
			}
		}
		return &netproto.Response{Result: snapshot, Version: version}

	case netproto.KindDelta:
		// The change set since the caller's cursor: the appended row
		// suffix. A cursor ahead of the table means the caller's history is
		// no longer valid here (e.g. this site restarted with fewer rows) —
		// answer Resync so it falls back to a full snapshot.
		tail, version, ok := s.snapshot(req.Table, req.Cursor)
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		resync := req.Cursor > version
		if !resync && (req.Filter != "" || req.Columns != nil) {
			var err error
			if tail, err = projectForWire(ctx, tail, req.Filter, req.Columns); err != nil {
				return &netproto.Response{Err: err.Error(), Expired: ctx.Err() != nil}
			}
		}
		return &netproto.Response{DeltaRows: tail.Rows, Version: version, Resync: resync}

	case netproto.KindExec, netproto.KindBatch:
		// A KindBatch is the DSS's one request for several of this site's
		// tables: each SELECT answers in its own item, under one read lock.
		// A KindExec's attachments are the other sites' pushdowns for a
		// statement the DSS shipped here: bound beside this site's tables
		// for the one run, then forgotten, like the DSS forgets a fetch.
		batch := req.Batch
		if req.Kind == netproto.KindExec {
			batch = []netproto.BatchQuery{{SQL: req.SQL}}
		}
		items := make([]netproto.BatchItem, len(batch))
		s.mu.RLock()
		defer s.mu.RUnlock()
		cat := sqlmini.NewMapCatalog(s.tables)
		defer func() {
			for _, t := range req.Attach {
				s.execCache.Forget(t)
			}
		}()
		for i, t := range req.Attach {
			if t == nil || cat[strings.ToLower(t.Name)] != nil {
				return &netproto.Response{Err: fmt.Sprintf("attached table %d is missing or shadows a table already bound here", i)}
			}
			cat.Add(t.Name, t)
		}
		for i, q := range batch {
			out, err := sqlmini.RunWith(ctx, q.SQL, cat, sqlmini.Options{Cache: s.execCache})
			if err != nil && ctx.Err() != nil {
				return &netproto.Response{Err: err.Error(), Expired: true}
			}
			if items[i].Result = out; err != nil {
				items[i].Err = err.Error()
			}
		}
		if req.Kind == netproto.KindExec {
			return &netproto.Response{Err: items[0].Err, Result: items[0].Result}
		}
		return &netproto.Response{Batch: items}

	case netproto.KindInsert:
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tables[strings.ToLower(req.Table)]
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		for i, row := range req.Rows {
			if err := t.Insert(row); err != nil {
				return &netproto.Response{Err: fmt.Sprintf("row %d: %v", i, err)}
			}
		}
		return &netproto.Response{}

	default:
		return &netproto.Response{Err: fmt.Sprintf("unsupported request kind %d", int(req.Kind))}
	}
}

// snapshot returns the named table's rows from position from on (none,
// when from is beyond the table) and the table's version, its row count.
// Base tables are append-only and a row is never written once inserted,
// so the capped slice taken under the read lock stays a stable copy while
// later inserts append past it.
func (s *RemoteServer) snapshot(table string, from uint64) (rows *relation.Table, version uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(table)]
	if !ok {
		return nil, 0, false
	}
	n := uint64(len(t.Rows))
	from = min(from, n)
	return &relation.Table{Name: t.Name, Schema: t.Schema, Rows: t.Rows[from:n:n]}, n, true
}

// projectForWire applies a view's delta projection — the ViewWire filter
// and column subset — to candidate rows before they cross the wire, by
// running the shipping SELECT over them. rows carries the base table's
// name (the query's FROM name) and schema.
func projectForWire(ctx context.Context, rows *relation.Table, filter string, columns []string) (*relation.Table, error) {
	name := strings.ToLower(rows.Name)
	out, err := sqlmini.RunContext(ctx, sqlmini.WireSQL(name, filter, columns), sqlmini.MapCatalog{name: rows})
	if err != nil {
		return nil, fmt.Errorf("server: delta projection on %s: %w", name, err)
	}
	return out, nil
}

// waitScanDelay pauses for the simulated WAN latency, giving up early if
// the request's wire deadline passes first.
func (s *RemoteServer) waitScanDelay(ctx context.Context) error {
	if s.scanDelay <= 0 {
		return nil
	}
	t := wall.NewTimer(s.scanDelay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Close stops the listener and waits for in-flight connections. It is
// idempotent.
func (s *RemoteServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.listener != nil {
			err = s.listener.Close()
		}
		s.live.closeAll()
		s.wg.Wait()
	})
	return err
}
