// Package server implements the live deployment: RemoteServer is a branch
// database server holding base tables; DSSServer is the local federation
// server that maintains replicas on synchronization cycles, plans queries
// by information value, and answers clients over TCP.
package server

import (
	"context"
	"fmt"
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
	// between reads, and each SQL text's parse and plans. Entries are
	// keyed by the rows' storage, which every read's snapshot header
	// shares, and re-checked against its row count, so an insert costs
	// the next read one rebuild. Reads run over their snapshot with no
	// lock held, so the cache is the only state they share.
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
	go serveConns(l, s.closed, &s.wg, &s.live, s.handle)
	return l.Addr().String(), nil
}

func (s *RemoteServer) handle(req *netproto.Request) *netproto.Response {
	if err := req.Check(netproto.RemoteContract); err != nil {
		return &netproto.Response{Err: err.Error()}
	}
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

	case netproto.KindInsert:
		// The write lock waits only for other requests taking snapshot
		// headers, never for a read's execution. An insert lands whole or
		// not at all.
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tables[strings.ToLower(req.Table)]
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		if err := t.Insert(req.Rows...); err != nil {
			return &netproto.Response{Err: err.Error()}
		}
		return &netproto.Response{}

	default: // the read kinds
		// Every read pays the simulated WAN distance first.
		if err := s.waitScanDelay(ctx); err != nil {
			return &netproto.Response{Err: err.Error(), Expired: true}
		}
		if req.Kind == netproto.KindExec || req.Kind == netproto.KindBatch {
			return s.exec(ctx, req)
		}
		return s.pull(ctx, req)
	}
}

// snapshot returns a catalog of the tables named in reads that this site
// serves, each a header over the rows it holds now, capped at their
// count, with attach bound beside them. The read lock is held only to
// take the headers: base tables only append and a row is never written
// once inserted, so a capped header stays a stable copy while later
// inserts append past it, and reads execute with no lock held. An
// attachment that is missing, or named like a table this site serves
// (read or not) or like an earlier attachment, is refused.
func (s *RemoteServer) snapshot(attach []*relation.Table, reads ...[]string) (sqlmini.MapCatalog, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cat := make(sqlmini.MapCatalog, len(attach)+1)
	for _, names := range reads {
		for _, name := range names {
			if t := s.tables[name]; t != nil && cat[name] == nil {
				n := len(t.Rows)
				cat[name] = &relation.Table{Name: t.Name, Schema: t.Schema, Rows: t.Rows[:n:n]}
			}
		}
	}
	for i, t := range attach {
		if t != nil {
			if name := strings.ToLower(t.Name); s.tables[name] == nil && cat[name] == nil {
				cat[name] = t
				continue
			}
		}
		return nil, fmt.Errorf("attached table %d is missing or shadows a table already bound here", i)
	}
	return cat, nil
}

// pull answers a replication read: the whole table, or for a delta the
// rows past the caller's cursor, with the table's version, its row count
// (a complete change cursor, since Insert is the only mutation). A cursor
// ahead of the table means the caller's history is no longer valid here
// (e.g. this site restarted with fewer rows): Resync. A view pull's SQL
// must read Table alone and runs over those rows; the version still
// counts base rows, so view and replica pulls share one cursor space.
func (s *RemoteServer) pull(ctx context.Context, req *netproto.Request) *netproto.Response {
	name := strings.ToLower(req.Table)
	var st *sqlmini.Statement
	if req.SQL != "" {
		var err error
		if st, err = s.execCache.Statement(req.SQL); err != nil {
			return &netproto.Response{Err: err.Error()}
		}
		if len(st.Tables) != 1 || st.Tables[0] != name {
			return &netproto.Response{Err: fmt.Sprintf("pull SQL reads %v; a pull of %q reads only that table", st.Tables, req.Table)}
		}
	}
	cat, _ := s.snapshot(nil, []string{name})
	t, ok := cat[name]
	if !ok {
		return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
	}
	version, from := uint64(len(t.Rows)), uint64(0)
	if req.Kind == netproto.KindDelta {
		from = req.Cursor
	}
	if from > version {
		return &netproto.Response{Version: version, Resync: true}
	}
	t.Rows = t.Rows[from:] // cat binds only the candidate rows
	if st != nil {
		out, err := st.Execute(ctx, cat, s.execCache)
		if from > 0 {
			s.execCache.Forget(t) // a delta tail is one-shot
		}
		if err != nil {
			return &netproto.Response{Err: fmt.Sprintf("server: delta projection on %s: %v", name, err), Expired: ctx.Err() != nil}
		}
		t = out
	}
	if req.Kind == netproto.KindDelta {
		return &netproto.Response{DeltaRows: t.Rows, Version: version}
	}
	return &netproto.Response{Result: t, Version: version}
}

// exec answers a KindExec, or each SELECT of a KindBatch (the DSS's one
// request for several of this site's tables) in its own item, over one
// snapshot of the tables they read. A KindExec's attachments are the
// other sites' pushdowns for a statement the DSS shipped here: bound
// beside this site's tables for the one run, then forgotten, like the
// DSS forgets a fetch.
func (s *RemoteServer) exec(ctx context.Context, req *netproto.Request) *netproto.Response {
	batch := req.Batch
	if req.Kind == netproto.KindExec {
		batch = []netproto.BatchQuery{{SQL: req.SQL}}
	}
	// The statements compile first, so the snapshot takes only the tables
	// they read; one that does not parse answers its own item below.
	reads := make([][]string, 0, 1) // a KindExec's stays on the stack
	for _, q := range batch {
		if st, err := s.execCache.Statement(q.SQL); err == nil {
			reads = append(reads, st.Tables)
		}
	}
	defer func() {
		for _, t := range req.Attach {
			s.execCache.Forget(t)
		}
	}()
	cat, err := s.snapshot(req.Attach, reads...)
	if err != nil {
		return &netproto.Response{Err: err.Error()}
	}
	items := make([]netproto.BatchItem, len(batch))
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
