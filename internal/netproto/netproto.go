// Package netproto is the wire protocol between the DSS (federation)
// server, the remote site servers, and clients: request / response pairs
// over a TCP connection, one outstanding request per connection at a
// time. Each message is one length-prefixed, checksummed frame written by
// the codec in wire.go; tables cross the wire column-major and arrive
// with their columnar image attached (relation.Table.Image), so neither
// side transposes twice.
package netproto

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
	"time"

	"ivdss/internal/relation"

	"ivdss/internal/wall"
)

// RequestKind selects the operation.
type RequestKind int

const (
	// KindPing checks liveness.
	KindPing RequestKind = iota + 1
	// KindTables lists the table names a remote site serves.
	KindTables
	// KindScan fetches a whole table from a remote site.
	KindScan
	// KindExec runs a SQL query: on a remote site against its own base
	// tables, or on the DSS through information-value-driven planning.
	KindExec
	// KindInsert appends rows to a base table on a remote site (the
	// stand-in for OLTP write traffic at the branches).
	KindInsert
	// KindStatus reports DSS catalog state: placements, replicas, and
	// staleness.
	KindStatus
	// KindMetrics dumps the DSS server's instrumentation as a flat
	// name → value map.
	KindMetrics
	// KindBatch submits a workload of queries together; the DSS orders it
	// with the multi-query optimizer (Section 3.2) before executing. A
	// remote site answers a batch of SELECTs item by item.
	KindBatch
	// KindSnapshot fetches a full, versioned copy of a base table — the
	// sync agent's first pull for a newly registered replica, and its
	// fallback when a delta cursor has been invalidated.
	KindSnapshot
	// KindDelta fetches the rows appended to a base table since the
	// caller's replication cursor (Request.Cursor), so steady-state sync
	// cycles ship only the change set instead of the whole table.
	KindDelta
	// KindGossip exchanges anti-entropy digests between DSS front-end
	// shards: the caller's digest rides Request.Gossip, the callee merges
	// it and answers with its own on Response.Gossip.
	KindGossip
)

// GossipDigest is the wire form of one shard's anti-entropy state
// summary (internal/cluster.Digest): its queue depth and the tables it
// holds a replica of, versioned per node so merges are order-free.
type GossipDigest struct {
	Node       int
	Version    uint64
	QueueDepth int      // the shard's admission queue length
	Replicas   []string // the replicated tables, sorted
}

// SiteStatus describes one remote site's health as the DSS sees it, for
// KindStatus responses.
type SiteStatus struct {
	Site int
	Addr string
	// Breaker is the circuit-breaker state name: "closed", "open", or
	// "half-open".
	Breaker string
	// ConsecutiveFailures counts transport failures since the last success
	// (meaningful while closed).
	ConsecutiveFailures int
}

// Request is the client-to-server message. Which body fields each kind
// reads is stated once, per server, in RemoteContract and DSSContract; a
// server refuses a request that sets any other (Check).
type Request struct {
	Kind  RequestKind
	Table string // the base table a pull reads or an insert appends to
	// SQL is the statement to run. On a pull it is empty, or a view's
	// shipping SELECT, which must read Table alone and runs over the rows
	// pulled; versions and cursors still count Table's base rows.
	SQL string
	// Attach binds these tables beside a remote site's own under their
	// names for the one statement: the other sites' pushdown results, when
	// the DSS ships a cross-site statement to the site holding most of its
	// rows.
	Attach        []*relation.Table
	Rows          []relation.Row // the rows an insert appends
	BusinessValue float64        // the report's business value; zero means 1
	Batch         []BatchQuery   // a workload of SELECTs, answered item by item
	// Cursor is the replication cursor of a delta pull: the table version
	// the caller's replica already reflects. Base tables are append-only,
	// so the version is the count of rows ever inserted and the delta is
	// the suffix beyond it.
	Cursor uint64
	// TimeoutMillis is the caller's remaining deadline budget, carried on
	// the wire so the server can bound its own work (and its downstream
	// calls) by what the client will still wait for. Zero means no
	// deadline. Relative milliseconds rather than an absolute instant, so
	// clock skew between peers cannot corrupt the budget.
	TimeoutMillis int64
	// Tenant names the budget account under per-tenant weighted fair
	// shedding; empty is the default tenant.
	Tenant string
	// Forwarded marks a request a peer shard handed over via
	// work-stealing: the receiver must serve it locally, never re-steal
	// it, so a hand-off cannot loop.
	Forwarded bool
	Gossip    *GossipDigest // the caller's anti-entropy digest
}

// BudgetContext derives a context bounded by the request's wire deadline,
// if any. The server's request handlers run under it so a client that has
// stopped waiting also stops consuming server resources.
func (r *Request) BudgetContext(parent context.Context) (context.Context, context.CancelFunc) {
	if r.TimeoutMillis > 0 {
		return context.WithTimeout(parent, time.Duration(r.TimeoutMillis)*time.Millisecond)
	}
	return context.WithCancel(parent)
}

// Fields is a set of Request body fields, one bit each in declaration
// order. Kind and TimeoutMillis ride in the frame header; any kind may
// set them.
type Fields uint16

// The body fields of a Request.
const (
	FieldTable Fields = 1 << iota
	FieldSQL
	FieldAttach
	FieldRows
	FieldBusinessValue
	FieldBatch
	FieldCursor
	FieldTenant
	FieldForwarded
	FieldGossip
)

var fieldNames = [...]string{"Table", "SQL", "Attach", "Rows", "BusinessValue", "Batch", "Cursor", "Tenant", "Forwarded", "Gossip"}

var kindNames = [...]string{"", "KindPing", "KindTables", "KindScan", "KindExec", "KindInsert", "KindStatus",
	"KindMetrics", "KindBatch", "KindSnapshot", "KindDelta", "KindGossip"}

// String returns the kind's constant name.
func (k RequestKind) String() string {
	if k < KindPing || k > KindGossip {
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
	return kindNames[k]
}

// A Contract is what one kind of server reads of a request: the kinds it
// serves, each with the body fields it reads. A field a kind does not
// read is refused, never dropped: an answer computed without it is not
// the one the caller asked for.
type Contract struct {
	Server string // names the server in refusals
	Reads  map[RequestKind]Fields
	// MemberValues: the server reads a batch member's BusinessValue.
	MemberValues bool
}

// RemoteContract is a remote site's contract; DSSContract is the DSS's.
// Only the DSS attaches tables, to the statements it ships to its sites,
// and only the DSS prices a batch's members.
var (
	RemoteContract = Contract{Server: "a remote site", Reads: map[RequestKind]Fields{
		KindPing:     0,
		KindTables:   0,
		KindScan:     FieldTable | FieldSQL,
		KindSnapshot: FieldTable | FieldSQL,
		KindDelta:    FieldTable | FieldSQL | FieldCursor,
		KindExec:     FieldSQL | FieldAttach,
		KindBatch:    FieldBatch,
		KindInsert:   FieldTable | FieldRows,
	}}
	DSSContract = Contract{Server: "the DSS", MemberValues: true, Reads: map[RequestKind]Fields{
		KindPing:    0,
		KindStatus:  0,
		KindMetrics: 0,
		KindExec:    FieldSQL | FieldBusinessValue | FieldTenant | FieldForwarded,
		KindBatch:   FieldBatch | FieldTenant | FieldForwarded,
		KindGossip:  FieldGossip,
	}}
)

// fields returns the body fields r sets: a non-empty string or slice, a
// non-zero number, a true flag, a non-nil pointer.
func (r *Request) fields() (f Fields) {
	for bit, set := range [...]bool{r.Table != "", r.SQL != "", len(r.Attach) > 0, len(r.Rows) > 0,
		r.BusinessValue != 0, len(r.Batch) > 0, r.Cursor != 0, r.Tenant != "", r.Forwarded, r.Gossip != nil} {
		if set {
			f |= 1 << bit
		}
	}
	return f
}

// Check refuses a request c does not admit: a kind the server does not
// serve, or a body field its kind does not read, named with the kind; a
// batch member's BusinessValue is named Batch.BusinessValue.
func (r *Request) Check(c Contract) error {
	reads, ok := c.Reads[r.Kind]
	if !ok {
		return fmt.Errorf("netproto: %s does not serve %v", c.Server, r.Kind)
	}
	if stray := r.fields() &^ reads; stray != 0 {
		return fmt.Errorf("netproto: %v to %s does not read %s", r.Kind, c.Server, fieldNames[bits.TrailingZeros16(uint16(stray))])
	}
	if !c.MemberValues && slices.ContainsFunc(r.Batch, func(q BatchQuery) bool { return q.BusinessValue != 0 }) {
		return fmt.Errorf("netproto: %v to %s does not read Batch.BusinessValue", r.Kind, c.Server)
	}
	return nil
}

// BatchQuery is one member of a KindBatch workload.
type BatchQuery struct {
	SQL           string
	BusinessValue float64 // zero means 1
}

// ReportMeta carries the information-value accounting of a DSS report.
type ReportMeta struct {
	PlanSignature string
	CLMinutes     float64
	SLMinutes     float64
	Value         float64
	// Degraded marks a report produced under the failure-degradation
	// policy: at least one table was answered from a local replica because
	// its base site was unreachable, so SL reflects the replica's true
	// staleness rather than the planner's preferred choice.
	Degraded bool
}

// ReplicaStatus describes one replica in a KindStatus response.
type ReplicaStatus struct {
	Table            string
	Site             int
	LastSyncMinutes  float64 // experiment-time of the last completed sync
	StalenessMinutes float64
	// LastSyncAgeMinutes is now minus the last completed sync — how old the
	// replica's contents are, the quantity a QoS window bounds.
	LastSyncAgeMinutes float64
	// NextSyncMinutes is the experiment-time of the next scheduled sync;
	// negative when none is scheduled.
	NextSyncMinutes float64
	// PeriodMinutes is the sync period currently in force — under adaptive
	// cadence it drifts from the configured one as the controller
	// re-divides the budget.
	PeriodMinutes float64
	// Cursor is the replication cursor: rows of the base table the replica
	// reflects.
	Cursor uint64
}

// ViewStatus describes one materialized view in a KindStatus response.
type ViewStatus struct {
	View    string // view ID
	QueryID string // the query whose answer the view materializes
	Table   string // base table the view is maintained over
	Site    int    // site holding that base table
	// LastSyncMinutes is the experiment-time of the last completed refresh;
	// negative when the view has never materialized.
	LastSyncMinutes  float64
	StalenessMinutes float64
	// NextSyncMinutes is the experiment-time of the next scheduled refresh;
	// negative when none is scheduled.
	NextSyncMinutes float64
	// PeriodMinutes is the refresh period currently in force.
	PeriodMinutes float64
	// Cursor counts the base-table rows the view's state reflects.
	Cursor uint64
	// Rows is the current size of the materialized answer.
	Rows int
}

// BatchItem is one KindBatch member's outcome, aligned with the request's
// Batch slice.
type BatchItem struct {
	Err      string
	Degraded bool // see Response.Degraded
	Result   *relation.Table
	Meta     *ReportMeta
}

// Response is the server-to-client message.
type Response struct {
	Err string // empty on success
	// Degraded marks an error produced by the DSS degraded-mode policy: a
	// remote site is unavailable and no local replica exists to answer
	// from. Clients distinguish it from plain query errors via RemoteError.
	Degraded bool
	// Expired marks an error produced by the DSS admission controller: the
	// query was shed (or cancelled mid-flight) because its information
	// value expired before a report could be produced.
	Expired bool
	// MQOFallback marks a degraded scheduling decision: multi-query
	// workload formation or GA ordering failed, so the queries ran in plain
	// submission order instead. The reports themselves are still correct.
	MQOFallback bool
	Tables      []string
	// TableRows, on a KindTables answer, is each table's row count,
	// aligned with Tables: the DSS's discovery-time size hint for
	// choosing where a cross-site statement runs.
	TableRows []int
	Result    *relation.Table
	Meta      *ReportMeta
	Replicas  []ReplicaStatus
	Views     []ViewStatus
	Sites     []SiteStatus
	Metrics   map[string]float64
	Batch     []BatchItem
	// Version is the table version accompanying KindSnapshot and KindDelta
	// responses: the count of rows ever inserted into the base table.
	Version uint64
	// DeltaRows carries the appended rows for KindDelta.
	DeltaRows []relation.Row
	// Resync is set on a KindDelta response whose cursor the server cannot
	// serve (it is ahead of the table, e.g. after a site restart); the
	// caller must fall back to a full snapshot.
	Resync bool
	// Gossip carries the callee's digest answering KindGossip.
	Gossip *GossipDigest
}

// RemoteError is the typed client-side form of a server-reported error.
type RemoteError struct {
	Msg string
	// Degraded is set when the DSS refused the query because a remote site
	// is down and no replica could stand in (degraded mode), as opposed to
	// the query itself being invalid.
	Degraded bool
	// Expired is set when the DSS shed or cancelled the query because its
	// information value expired (core.ValueExpiredError on the server).
	Expired bool
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	switch {
	case e.Expired:
		return "netproto: remote error (value expired): " + e.Msg
	case e.Degraded:
		return "netproto: remote error (degraded): " + e.Msg
	default:
		return "netproto: remote error: " + e.Msg
	}
}

// ErrOrNil converts the wire error back to a Go error.
func (r *Response) ErrOrNil() error {
	if r.Err == "" {
		return nil
	}
	return &RemoteError{Msg: r.Err, Degraded: r.Degraded, Expired: r.Expired}
}

// Conn frames messages over a network connection. It owns one encode and
// one decode buffer, reused from frame to frame, and is for one goroutine
// at a time, like the protocol itself.
type Conn struct {
	raw        net.Conn
	hdr        [frameHeader]byte // of the frame last received
	wbuf, rbuf []byte
	// timeout bounds each round trip; zero means no deadline.
	timeout time.Duration
}

// NewConn wraps an established connection.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw}
}

// SetTimeout bounds every subsequent round trip on this connection: the
// deadline is re-armed per RoundTrip, so a hung peer surfaces as a timeout
// error instead of stalling the caller forever. Zero disables deadlines.
func (c *Conn) SetTimeout(d time.Duration) { c.timeout = d }

// Dial connects to a server.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return DialContext(context.Background(), addr, timeout)
}

// DialContext connects to a server, bounded by both the timeout and the
// context: whichever expires first aborts the dial.
func DialContext(ctx context.Context, addr string, timeout time.Duration) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil {
			return nil, fmt.Errorf("netproto: dial %s: %w", addr, cause)
		}
		return nil, fmt.Errorf("netproto: dial %s: %w", addr, err)
	}
	return NewConn(raw), nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// kept is what a Conn keeps of a frame buffer for the next frame: the
// buffer, emptied, unless the frame made it outgrow keepBuffer.
func kept(buf []byte) []byte {
	if cap(buf) > keepBuffer {
		return nil
	}
	return buf[:0]
}

// begin starts a frame in the connection's encode buffer, leaving room
// for the header.
func (c *Conn) begin() wire {
	return wire{enc: true, b: append(c.wbuf[:0], make([]byte, frameHeader)...)}
}

// send completes the frame around the encoded body and hands it to the
// connection in one Write.
func (c *Conn) send(e *wire, kind, flags byte, deadlineMillis int64) error {
	frame := e.b
	c.wbuf = kept(frame)
	if e.err == nil && len(frame)-frameHeader > maxFrameBody {
		e.fail("netproto: message of %d bytes exceeds the %d-byte frame limit", len(frame)-frameHeader, maxFrameBody)
	}
	if e.err != nil {
		return e.err
	}
	frame[0], frame[1], frame[2], frame[3] = frameMagic, kind, flags, 0
	binary.LittleEndian.PutUint64(frame[4:], uint64(deadlineMillis))
	binary.LittleEndian.PutUint32(frame[12:], uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[16:], frameSum(frame, frame[frameHeader:]))
	_, err := c.raw.Write(frame)
	return err
}

// recv reads one frame, leaving its header in c.hdr, and returns a
// decoder over its body. Nothing past the frame's last byte is read. The
// body buffer is reused by the next recv; decoded messages never alias it.
func (c *Conn) recv() (d wire, err error) {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.raw, hdr); err != nil {
		return d, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[12:]))
	if hdr[0] != frameMagic || hdr[3] != 0 || n > maxFrameBody {
		return d, fmt.Errorf("netproto: not a version-%d frame (header % x)", frameMagic&0x0f, hdr)
	}
	// A declared length is only a claim: the buffer grows as the bytes
	// actually arrive, by doubling from readChunk, never past n.
	body := c.rbuf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = append(make([]byte, 0, min(n, max(2*cap(body), readChunk))), body...)
		}
		next := body[len(body):min(n, cap(body))]
		m, err := io.ReadFull(c.raw, next)
		body = body[:len(body)+m]
		if err != nil {
			return d, fmt.Errorf("netproto: frame body cut short at %d of %d bytes: %w", len(body), n, err)
		}
	}
	c.rbuf = kept(body)
	sum := frameSum(hdr, body)
	if want := binary.LittleEndian.Uint32(hdr[16:]); sum != want {
		return d, fmt.Errorf("netproto: frame checksum %08x, header says %08x", sum, want)
	}
	return wire{b: body}, nil
}

// WriteRequest sends a request. A request that cannot be encoded (rows
// of mixed types) is an error with nothing written: the connection stays
// in step.
func (c *Conn) WriteRequest(req *Request) error {
	e := c.begin()
	e.request(req)
	if err := c.send(&e, byte(req.Kind), flagBits(req.Forwarded), req.TimeoutMillis); err != nil {
		return fmt.Errorf("netproto: encode request: %w", err)
	}
	return nil
}

// ReadRequest receives a request (server side).
func (c *Conn) ReadRequest() (*Request, error) {
	d, err := c.recv()
	if err != nil {
		return nil, err
	}
	req := &Request{Kind: RequestKind(c.hdr[1]), TimeoutMillis: int64(binary.LittleEndian.Uint64(c.hdr[4:]))}
	if req.Kind < KindPing || req.Kind > KindGossip || !unflag(c.hdr[2], &req.Forwarded) {
		return nil, fmt.Errorf("netproto: malformed frame: request kind %d, flags %#x", c.hdr[1], c.hdr[2])
	}
	d.request(req)
	if err := d.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// WriteResponse sends a response (server side). A response that cannot
// be encoded — a result whose cells violate its schema — reaches the peer
// as an error response naming the cell, on a connection still in step.
func (c *Conn) WriteResponse(resp *Response) error {
	e := c.begin()
	e.response(resp)
	if e.err != nil {
		resp = &Response{Err: e.err.Error()}
		e = c.begin()
		e.response(resp)
	}
	flags := flagBits(resp.Degraded, resp.Expired, resp.MQOFallback, resp.Resync)
	if err := c.send(&e, frameResponse, flags, 0); err != nil {
		return fmt.Errorf("netproto: encode response: %w", err)
	}
	return nil
}

// ReadResponse receives a response. Every failure here — a short read, a
// checksum mismatch, a malformed body — is a transport error: the
// connection cannot be trusted again.
func (c *Conn) ReadResponse() (*Response, error) {
	d, err := c.recv()
	if err != nil {
		return nil, fmt.Errorf("netproto: decode response: %w", err)
	}
	resp := &Response{}
	if c.hdr[1] != frameResponse || !unflag(c.hdr[2], &resp.Degraded, &resp.Expired, &resp.MQOFallback, &resp.Resync) {
		return nil, fmt.Errorf("netproto: decode response: malformed frame: kind %d, flags %#x", c.hdr[1], c.hdr[2])
	}
	d.response(resp)
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("netproto: decode response: %w", err)
	}
	return resp, nil
}

// RoundTrip sends one request and reads its response. With a timeout set,
// the whole exchange runs under one connection deadline, cleared on return
// so a pooled connection can idle without tripping it.
func (c *Conn) RoundTrip(req *Request) (*Response, error) {
	return c.RoundTripContext(context.Background(), req)
}

// RoundTripContext sends one request and reads its response under the
// tighter of the connection timeout and the context deadline. The
// context's remaining budget is stamped onto the request (TimeoutMillis)
// so the server can honour the caller's deadline too; a cancelled context
// interrupts an in-flight exchange by expiring the connection deadline.
// When the exchange fails after the context ended, the context's cause is
// returned so callers see the deadline, not a generic I/O timeout.
func (c *Conn) RoundTripContext(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	var deadline time.Time
	if c.timeout > 0 {
		deadline = wall.Now().Add(c.timeout)
	}
	if d, ok := ctx.Deadline(); ok {
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
		ms := wall.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMillis = ms
	}
	if !deadline.IsZero() {
		if err := c.raw.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("netproto: set deadline: %w", err)
		}
		defer c.raw.SetDeadline(time.Time{})
	}
	// Explicit cancellation (not just deadline expiry) unblocks the
	// exchange by forcing the connection deadline into the past.
	stop := context.AfterFunc(ctx, func() {
		// Best-effort unblock; a conn too broken to set a deadline on is
		// already failing the exchange.
		_ = c.raw.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	resp, err := c.exchange(req)
	if err != nil {
		// The connection deadline and the context deadline are the same
		// instant, so the I/O error can beat the context's own timer by
		// microseconds. When the context is due, wait for it to fire so the
		// failure is attributed to its cause (a value expiry, a wire
		// budget) rather than surfacing as a generic network timeout.
		if ctx.Err() == nil {
			if d, ok := ctx.Deadline(); ok && !wall.Now().Before(d) {
				<-ctx.Done()
			}
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("netproto: round trip: %w", context.Cause(ctx))
		}
	}
	return resp, err
}

func (c *Conn) exchange(req *Request) (*Response, error) {
	if err := c.WriteRequest(req); err != nil {
		return nil, err
	}
	return c.ReadResponse()
}

// Call dials, round-trips one request, and closes — the convenience used
// by short-lived clients and the sync puller. The timeout bounds the dial
// and the round trip separately, so a server that accepts but never
// answers cannot hang the caller. On a server-reported error the response
// is still returned alongside the RemoteError.
func Call(addr string, req *Request, timeout time.Duration) (*Response, error) {
	return CallContext(context.Background(), addr, req, timeout)
}

// CallContext is Call bounded additionally by a context: the dial and the
// round trip each stop at the earlier of the timeout and the context
// deadline, and the remaining budget travels on the wire.
func CallContext(ctx context.Context, addr string, req *Request, timeout time.Duration) (*Response, error) {
	conn, err := DialContext(ctx, addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetTimeout(timeout)
	resp, err := conn.RoundTripContext(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := resp.ErrOrNil(); err != nil {
		return resp, err
	}
	return resp, nil
}
