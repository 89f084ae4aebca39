package server

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/faults"
	"ivdss/internal/federation"
	"ivdss/internal/metrics"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/replsync"
	"ivdss/internal/scheduler"
	"ivdss/internal/sqlmini"
)

// DSSConfig wires a DSS server to its remote sites.
type DSSConfig struct {
	// Remotes maps each remote site to its TCP address.
	Remotes map[core.SiteID]string
	// Replicate lists the tables to replicate locally with their
	// synchronization periods (wall-clock).
	Replicate map[core.TableID]time.Duration
	// Views lists the materialized views to maintain locally. Each covers
	// one query's full answer and refreshes on base-table deltas filtered
	// through the view's predicate at the base site.
	Views []ViewSpec
	// Rates are the information-value discount rates (per experiment
	// minute).
	Rates core.DiscountRates
	// TimeScale converts wall-clock seconds to experiment minutes. The
	// default 1/60 makes an experiment minute a real minute; tests and
	// demos speed it up (e.g. 10 makes every wall second worth ten
	// experiment minutes).
	TimeScale float64
	// PlannerHorizon bounds how far ahead the planner may delay execution,
	// in experiment minutes. Default 30.
	PlannerHorizon core.Duration
	// MaxDelay caps how long the executor honours a delayed plan,
	// wall-clock. Default 30s.
	MaxDelay time.Duration
	// DialTimeout bounds remote calls: both establishing a connection and
	// each round trip run under this deadline. Default 5s.
	DialTimeout time.Duration
	// SyncBudget caps replication traffic, in bytes per wall-clock second
	// shared across all tables. Zero means unlimited. Cycles that would
	// overdraw the budget defer until it refills.
	SyncBudget float64
	// AdaptiveSync enables the IV-adaptive cadence controller: sync rate is
	// periodically re-divided across tables in proportion to the
	// information value each is losing to staleness, and the replica set
	// itself is reviewed online against the recent workload.
	AdaptiveSync bool
	// SyncAdjustEvery is the cadence controller's interval (wall-clock).
	// Default 10s.
	SyncAdjustEvery time.Duration

	// RetryAttempts is the total tries per remote call, including the
	// first. Default 3.
	RetryAttempts int
	// RetryBaseDelay seeds the exponential backoff between retries.
	// Default 25ms.
	RetryBaseDelay time.Duration
	// RetryBudget caps the cumulative backoff sleep per logical call.
	// Default 1s.
	RetryBudget time.Duration
	// BreakerFailures is how many consecutive failed calls (after retries)
	// open a site's circuit breaker. Default 3.
	BreakerFailures int
	// BreakerOpenTimeout is how long an open breaker rejects before
	// half-open probes are admitted. Default 3s.
	BreakerOpenTimeout time.Duration
	// BreakerProbes caps concurrent half-open probes per site. Default 1.
	BreakerProbes int
	// RetrySeed seeds the backoff jitter of remote-call retries, so a run
	// replays the same retry timing. Default 1.
	RetrySeed int64

	// Workers sizes the scheduling engine's execution slots serving KindExec
	// and KindBatch requests; connection handlers only submit. Default 8.
	Workers int
	// QueueDepth bounds how many queries may wait in the scheduling engine;
	// arrivals beyond it are shed immediately. Default 64.
	QueueDepth int
	// Epsilon is the admission controller's value-expiry threshold: a query
	// whose projected information value at completion falls below it is shed
	// instead of executed, and a running query is cancelled once its value
	// horizon passes. Default 0.01; negative disables value-based shedding
	// (the queue stays bounded regardless).
	Epsilon float64

	// Aging is the anti-starvation policy (Section 3.3) applied at every
	// dispatch decision: queries are ranked by information value plus a
	// boost that grows superlinearly with queue time. The zero value
	// disables it — pure value-maximizing dispatch, which can starve cheap
	// queries under sustained high-value load.
	Aging core.Aging
	// ShardID identifies this front-end in a shard cluster; meaningful only
	// when Peers is set. Shard IDs are the cluster.ShardMap indices clients
	// route against, 0-based.
	ShardID int
	// Peers maps the other shards' IDs to their TCP addresses. A non-empty
	// map turns on the anti-entropy gossip layer (breaker state, replica
	// freshness, queue depth over KindGossip) and, with StealHighWater,
	// work-stealing between front-ends. Entries for ShardID itself are
	// ignored.
	Peers map[int]string
	// GossipInterval is the mean gap between gossip rounds (wall-clock).
	// Default 2s.
	GossipInterval time.Duration
	// GossipSeed seeds the gossip peer choice and round jitter. Default 1.
	GossipSeed int64
	// StealHighWater hands whole Exec/Batch requests to the least-loaded
	// covering peer once the local admission queue reaches this depth; 0
	// disables work-stealing.
	StealHighWater int
	// Tenants maps tenant names to positive weights. A non-empty map turns
	// queue-full refusal into weighted fair shedding: the engine evicts the
	// queued query with the lowest business value × weight / (1 + spent)
	// priority when a higher-priority query arrives at a full queue.
	Tenants map[string]float64
	// MQOWindow is the continuous micro-batch window (wall-clock). Ad hoc
	// queries arriving while a window is open are held until it closes,
	// then formed into range-overlapping workloads and GA-ordered together
	// — Section 3.2's multi-query optimization applied continuously to the
	// live stream instead of only to explicit KindBatch requests. Zero
	// disables micro-batching; explicit batches are MQO-ordered regardless.
	MQOWindow time.Duration
	// GA parameterizes the genetic workload ordering used for explicit
	// batches and micro-batch windows. Zero fields take the scheduler
	// defaults; a zero Seed becomes 1 so runs are reproducible.
	GA scheduler.GAConfig
}

func (c DSSConfig) withDefaults() DSSConfig {
	if c.TimeScale == 0 {
		c.TimeScale = 1.0 / 60
	}
	if c.PlannerHorizon == 0 {
		c.PlannerHorizon = 30
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 30 * time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.SyncAdjustEvery == 0 {
		c.SyncAdjustEvery = 10 * time.Second
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = 25 * time.Millisecond
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = time.Second
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerOpenTimeout == 0 {
		c.BreakerOpenTimeout = 3 * time.Second
	}
	if c.BreakerProbes == 0 {
		c.BreakerProbes = 1
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 2 * time.Second
	}
	if c.GossipSeed == 0 {
		c.GossipSeed = 1
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Epsilon == 0 {
		c.Epsilon = .01
	}
	if c.GA.Seed == 0 {
		c.GA.Seed = 1
	}
	return c
}

// replicaSnapshot is one synchronized table copy plus its freshness.
type replicaSnapshot struct {
	table    *relation.Table
	syncedAt core.Time
}

// DSSServer is the live federation/DSS server.
type DSSServer struct {
	cfg     DSSConfig
	clock   *scheduler.WallClock
	catalog *federation.Catalog
	costs   *costmodel.CalibratedModel
	stats   *metrics.Registry
	// tableRows is each remote table's row count as discovery found it:
	// a size hint that picks the site a cross-site statement runs at
	// (exec.go), never an answer. Immutable after construction.
	tableRows map[core.TableID]int

	// Remote I/O fault tolerance: pooled connections with per-round-trip
	// deadlines, budget-capped retries, and a circuit breaker per site.
	pool     *netproto.Pool
	retrier  netproto.Retrier
	breakers siteBreakers

	// Cluster front-end state: the gossip ring (nil when not clustered),
	// the digest version counter, and the tenant budget accounts (nil when
	// no tenants are configured). See gossip.go.
	gossiper     *cluster.Gossiper
	shardVersion atomic.Uint64
	budgets      *cluster.Budgets

	mu       sync.RWMutex
	replicas map[core.TableID]replicaSnapshot
	// views holds the runtime state of every registered materialized view,
	// keyed by ViewID. The map itself is immutable after construction;
	// each entry's mutable fields are guarded by mu.
	views map[core.ViewID]*viewState

	// execCache is the server-wide execution cache (columnar images,
	// hash-join builds, compiled statements): micro-batched workloads over
	// the same replica snapshots skip re-conversion and re-building, and a
	// repeated text is parsed and prepared once.
	execCache *sqlmini.ExecCache

	// sync is the live replication engine; it owns every replica write.
	sync *replsync.Agent
	// recent is the sliding window of executed queries the adaptive
	// placement review scores against.
	recentMu  sync.Mutex
	recent    []core.Query
	recentIdx int

	// Scheduling: connection handlers submit Exec/Batch work into the
	// shared engine (bounded queue, micro-batch MQO, value-ranked dispatch
	// over Workers slots); baseCtx roots every request context and is
	// cancelled on Close.
	engine     *scheduler.Engine
	baseCtx    context.Context
	baseCancel context.CancelFunc
	svcMu      sync.Mutex
	svcEWMA    time.Duration // smoothed per-query service time

	listener  net.Listener
	live      connSet
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewDSSServer validates the config, discovers remote placements, builds
// the catalog and planner, and pulls the initial replica snapshots. The
// synchronization loop starts with Listen.
func NewDSSServer(cfg DSSConfig) (*DSSServer, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Remotes) == 0 {
		return nil, fmt.Errorf("server: DSS needs at least one remote site")
	}
	if err := cfg.Rates.Validate(); err != nil {
		return nil, err
	}
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("server: TimeScale must be positive")
	}

	root := context.Background() //lint:allow ctxcheck(the server's root: discovery runs under it, and every request and the sync agent under baseCtx, which Close cancels)
	// Discover which tables each remote serves, in site order so the
	// first configuration error surfaced is the same on every run.
	siteOf := make(map[core.TableID]core.SiteID)
	tableRows := make(map[core.TableID]int)
	for _, site := range sortedKeys(cfg.Remotes) {
		addr := cfg.Remotes[site]
		if site < 1 {
			return nil, fmt.Errorf("server: remote site IDs start at 1, got %d", site)
		}
		discoverCtx, cancel := context.WithTimeout(root, cfg.DialTimeout)
		resp, err := netproto.CallContext(discoverCtx, addr, &netproto.Request{Kind: netproto.KindTables}, cfg.DialTimeout)
		cancel()
		if err == nil && len(resp.TableRows) != len(resp.Tables) {
			err = fmt.Errorf("%d row counts for %d tables", len(resp.TableRows), len(resp.Tables))
		}
		if err != nil {
			return nil, fmt.Errorf("server: discover site %d at %s: %w", site, addr, err)
		}
		for i, name := range resp.Tables {
			id := core.TableID(strings.ToLower(name))
			if prev, ok := siteOf[id]; ok {
				return nil, fmt.Errorf("server: table %s served by both site %d and site %d", id, prev, site)
			}
			siteOf[id], tableRows[id] = site, resp.TableRows[i]
		}
	}
	placement, err := federation.NewPlacement(siteOf)
	if err != nil {
		return nil, err
	}

	for _, id := range sortedKeys(cfg.Replicate) {
		if _, ok := siteOf[id]; !ok {
			return nil, fmt.Errorf("server: replicated table %s not served by any remote", id)
		}
		if cfg.Replicate[id] <= 0 {
			return nil, fmt.Errorf("server: replication period for %s must be positive", id)
		}
	}

	costs, err := costmodel.NewCalibratedModel(&costmodel.CountModel{
		LocalProcess: .02,
		PerBaseTable: .05,
		TransmitFlat: .02,
	})
	if err != nil {
		return nil, err
	}
	planner, err := core.NewPlanner(costs, core.PlannerConfig{
		Rates:   cfg.Rates,
		Horizon: cfg.PlannerHorizon,
	})
	if err != nil {
		return nil, err
	}

	s := &DSSServer{
		cfg:       cfg,
		tableRows: tableRows,
		clock:     scheduler.NewWallClock(cfg.TimeScale),
		costs:     costs,
		stats:     metrics.NewRegistry(),
		pool:      netproto.NewPool(cfg.DialTimeout, cfg.DialTimeout),
		replicas:  make(map[core.TableID]replicaSnapshot),
		views:     make(map[core.ViewID]*viewState),
		execCache: sqlmini.NewExecCache(),
		closed:    make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(root)
	s.breakers = make(siteBreakers, len(cfg.Remotes))
	for _, site := range sortedKeys(cfg.Remotes) {
		site := site
		s.breakers[site] = faults.NewBreaker(faults.BreakerConfig{
			FailureThreshold: cfg.BreakerFailures,
			// Wall-clock config to experiment minutes, on the same scaled
			// clock the engine runs on — which is what lets the identical
			// breaker logic run under the DES.
			OpenTimeout:    cfg.BreakerOpenTimeout.Seconds() * cfg.TimeScale,
			HalfOpenProbes: cfg.BreakerProbes,
			Clock:          s.clock,
			OnTransition: func(from, to faults.BreakerState) {
				s.stats.Counter("breaker_transitions_total").Inc()
				//lint:allow metriccheck(per-site gauge family, bounded by cfg.Remotes)
				s.stats.Gauge(breakerGaugeName(site)).Set(float64(to))
				log.Printf("server: site %d breaker %v -> %v", site, from, to)
			},
		})
		s.stats.Gauge(breakerGaugeName(site)).Set(float64(faults.Closed)) //lint:allow metriccheck(per-site gauge family, bounded by cfg.Remotes)
	}
	// The sync agent keeps the replicas' freshness, so the catalog the
	// planner reads is built over it: what a plan is priced with is what
	// the replica store holds, not a schedule it may drift from.
	views, err := s.compileViews()
	if err != nil {
		return nil, err
	}
	if s.sync, err = s.newSyncAgent(); err != nil {
		return nil, err
	}
	if s.catalog, err = federation.NewCatalog(placement, s.sync); err != nil {
		return nil, err
	}
	s.catalog.WatchSites(s.breakers)
	for _, def := range views {
		if err := s.catalog.RegisterView(def); err != nil {
			return nil, err
		}
	}
	// Pre-create the admission, fetch and calibration metrics so a -metrics
	// dump shows them at zero before the first query is shed, cancelled or
	// fetched, or a cost refused.
	s.stats.Counter("queries_shed_total")
	s.stats.Counter("queries_cancelled_total")
	s.stats.Counter("queries_deadline_exceeded_total")
	s.stats.Gauge("admission_queue_depth").Set(0)
	s.stats.Counter("pushdowns_total")
	s.stats.Counter("whole_pushdowns_total")
	s.stats.Counter("attached_tables_total")
	s.stats.Counter("calibration_refused_total")
	if len(cfg.Tenants) > 0 {
		budgets, err := cluster.NewBudgets(cluster.BudgetConfig{Weights: cfg.Tenants, Now: s.clock.Now})
		if err != nil {
			return nil, err
		}
		s.budgets = budgets
	}
	eng, err := s.newEngine(&scheduler.IVQPStrategy{Planner: planner, Catalog: s.catalog, Horizon: cfg.PlannerHorizon})
	if err != nil {
		return nil, err
	}
	s.engine = eng
	gossiper, err := s.newGossiper()
	if err != nil {
		return nil, err
	}
	s.gossiper = gossiper
	if s.gossiper != nil {
		// Pre-create the steal counters so a dump shows the cluster layer
		// at zero before the first hand-off.
		s.stats.Counter("steals_out_total")
		s.stats.Counter("steals_in_total")
		s.stats.Counter("steal_forward_failures_total")
	}
	s.retrier = netproto.Retrier{
		MaxAttempts: cfg.RetryAttempts,
		BaseDelay:   cfg.RetryBaseDelay,
		Budget:      cfg.RetryBudget,
		Rand:        netproto.NewJitter(cfg.RetrySeed),
	}
	// Initial snapshot pulls so replicas are usable immediately; periodic
	// cycles (deltas from here on) start with Listen.
	for _, id := range s.sync.Tables() {
		if err := s.sync.SyncNow(id); err != nil {
			return nil, fmt.Errorf("server: initial sync of %s: %w", id, err)
		}
	}
	return s, nil
}

// breakerGaugeName is the per-site breaker state metric: 0 closed,
// 1 half-open, 2 open (faults.BreakerState values).
func breakerGaugeName(site core.SiteID) string {
	return fmt.Sprintf("breaker_state_site_%d", site)
}

// callSite runs one logical request against a remote site through the
// full fault-tolerance stack: circuit breaker admission, pooled
// connections with per-round-trip deadlines, and budget-capped retries on
// transport failures. Transport outcomes feed the breaker; a remote that
// answers with an application-level error is alive, so that surfaces as a
// RemoteError without penalizing the site.
func (s *DSSServer) callSite(ctx context.Context, site core.SiteID, req *netproto.Request) (*netproto.Response, error) {
	addr, ok := s.cfg.Remotes[site]
	if !ok {
		return nil, fmt.Errorf("server: no address for site %d", site)
	}
	br := s.breakers[site]
	if !br.Allow() {
		s.stats.Counter("breaker_rejects_total").Inc()
		return nil, &faults.OpenError{Key: fmt.Sprintf("site %d", site)}
	}
	var resp *netproto.Response
	err := s.retrier.DoContext(ctx, func(attempt int) error {
		if attempt > 0 {
			s.stats.Counter("remote_retries_total").Inc()
		}
		s.stats.Counter("remote_calls_total").Inc()
		r, err := s.pool.CallContext(ctx, addr, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		br.Failure()
		s.stats.Counter("remote_call_errors_total").Inc()
		return nil, fmt.Errorf("server: site %d: %w", site, err)
	}
	br.Success()
	if err := resp.ErrOrNil(); err != nil {
		return resp, err
	}
	return resp, nil
}

// siteBreakers is the DSS's site-health source for the catalog: a site
// is down while its breaker rejects calls. Reading it allocates nothing;
// the catalog asks once per table of every snapshot the planner takes,
// GA evaluations included.
type siteBreakers map[core.SiteID]*faults.Breaker

// SiteDown implements federation.SiteHealth. The breaker keeps its own
// clock, so now is not read.
func (b siteBreakers) SiteDown(site core.SiteID, _ core.Time) bool {
	br, ok := b[site]
	return ok && br.State() == faults.Open
}

// LoadCalibration merges a previously saved calibration snapshot into the
// cost model, so a restarted DSS keeps its learned plan costs.
func (s *DSSServer) LoadCalibration(r io.Reader) error { return s.costs.ReadJSON(r) }

// SaveCalibration writes the current calibration snapshot.
func (s *DSSServer) SaveCalibration(w io.Writer) error { return s.costs.WriteJSON(w) }

// CalibrationLen reports how many plan configurations have measured costs.
func (s *DSSServer) CalibrationLen() int { return s.costs.Len() }

// now returns the current experiment time.
func (s *DSSServer) now() core.Time { return s.clock.Now() }

// wallDelay converts an experiment-minute delay to wall-clock.
func (s *DSSServer) wallDelay(minutes core.Duration) time.Duration {
	return s.clock.WallDelay(minutes)
}

// Listen binds the DSS to addr, starts the replication engine's periodic
// cycles, and serves clients in the background. It returns the bound
// address.
func (s *DSSServer) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.listener = l
	s.sync.Start()
	if s.gossiper != nil {
		s.gossiper.Start()
	}
	s.wg.Add(1)
	go serveConns(l, s.closed, &s.wg, &s.live, s.handle)
	return l.Addr().String(), nil
}

func (s *DSSServer) handle(req *netproto.Request) *netproto.Response {
	// The contract is checked before a request can be stolen, admitted
	// or planned, so a malformed one never reaches a peer.
	if err := req.Check(netproto.DSSContract); err != nil {
		return &netproto.Response{Err: err.Error()}
	}
	switch req.Kind {
	case netproto.KindPing:
		return &netproto.Response{}
	case netproto.KindStatus:
		return s.handleStatus()
	case netproto.KindMetrics:
		s.sync.RefreshStaleness()
		return &netproto.Response{Metrics: s.stats.Flatten()}
	case netproto.KindGossip:
		return s.handleGossip(req)
	default:
		// KindExec or KindBatch. Execution goes through admission control
		// and the scheduling engine: bounded queue, micro-batch MQO,
		// value-ranked dispatch, value-horizon shedding.
		return s.submit(req)
	}
}

func (s *DSSServer) handleStatus() *netproto.Response {
	now := s.now()
	// One pass over the agent's rows (sorted by unit): a replica's row is
	// completed with the store's stamp here, a view unit's row is handed
	// to viewStatuses.
	var out []netproto.ReplicaStatus
	viewRows := make(map[core.ViewID]replsync.TableStatus)
	for _, row := range s.sync.Status() {
		if vid, ok := core.ViewOfUnit(row.Table); ok {
			viewRows[vid] = row
			continue
		}
		site, err := s.catalog.Placement().SiteOf(row.Table)
		if err != nil {
			continue
		}
		st := netproto.ReplicaStatus{Table: string(row.Table), Site: int(site),
			PeriodMinutes: row.Period, Cursor: row.Cursor,
			LastSyncAgeMinutes: -1, NextSyncMinutes: -1}
		if row.LastSync >= 0 {
			st.LastSyncAgeMinutes = now - row.LastSync
		}
		if row.NextAt >= 0 {
			st.NextSyncMinutes = row.NextAt - now
		}
		s.mu.RLock()
		snap, ok := s.replicas[row.Table]
		s.mu.RUnlock()
		if ok {
			st.LastSyncMinutes = snap.syncedAt
			st.StalenessMinutes = now - snap.syncedAt
		}
		out = append(out, st)
	}
	var sites []netproto.SiteStatus
	for _, site := range sortedKeys(s.cfg.Remotes) {
		addr := s.cfg.Remotes[site]
		br := s.breakers[site]
		sites = append(sites, netproto.SiteStatus{
			Site:                int(site),
			Addr:                addr,
			Breaker:             br.State().String(),
			ConsecutiveFailures: br.Failures(),
		})
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Site < sites[j].Site })
	return &netproto.Response{Replicas: out, Views: s.viewStatuses(now, viewRows), Sites: sites, Metrics: s.schedulerStatusMetrics()}
}

// Close stops the listener and the synchronization loop. It is idempotent.
func (s *DSSServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		s.sync.Stop()
		if s.gossiper != nil {
			s.gossiper.Stop()
		}
		s.engine.Stop()
		s.baseCancel() // cancel every in-flight request context
		if s.listener != nil {
			err = s.listener.Close()
		}
		s.live.closeAll()
		s.wg.Wait()
		if cerr := s.pool.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// sortedKeys returns m's keys in ascending order, so configuration
// walks, status tables, and teardown visit sites and tables
// deterministically.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
