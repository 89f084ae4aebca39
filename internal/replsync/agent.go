package replsync

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ivdss/internal/core"
	"ivdss/internal/metrics"
	"ivdss/internal/scheduler"
)

// TableConfig is one replicated table's starting cadence.
type TableConfig struct {
	ID core.TableID
	// Period is the sync period in experiment minutes; must be positive.
	Period core.Duration
}

// Config wires an Agent.
type Config struct {
	// Clock is the time source; the agent never sleeps or reads wall time,
	// so a SimClock drives the identical code path as the live server's
	// scaled wall clock.
	Clock scheduler.Clock
	// Fetch obtains sync payloads; Apply installs them.
	Fetch Fetcher
	Apply Applier
	// Context roots fetches; cancelling it aborts in-flight pulls on
	// shutdown. Defaults to context.Background().
	Context context.Context
	// Tables is the initial replica set with starting periods.
	Tables []TableConfig

	// Budget is the global bandwidth budget in bytes per experiment
	// minute, shared by all tables; 0 means unlimited. The budget is a
	// token bucket: a sync whose payload overdraws it puts the bucket into
	// debt, and cycles defer until the debt refills rather than retrying.
	Budget float64
	// Burst caps accumulated budget. Default 5 minutes' worth.
	Burst float64

	// Adaptive enables the cadence controller: every AdjustEvery minutes
	// the total sync rate (Σ 1/period, fixed at construction) is
	// re-divided across tables in proportion to the square root of each
	// table's decayed IV-loss-to-staleness, clamped to
	// [MinPeriod, MaxPeriod].
	Adaptive bool
	// AdjustEvery is the controller interval in experiment minutes.
	// Default 10.
	AdjustEvery core.Duration
	// MinPeriod / MaxPeriod clamp adaptive periods. Defaults: a quarter of
	// the fastest configured period, and four times the slowest.
	MinPeriod core.Duration
	MaxPeriod core.Duration
	// Placer, when set (and Adaptive), is consulted every PlaceEvery
	// adjustments: tables it recommends that are not replicated are
	// promoted (snapshot first), replicated tables it omits are demoted.
	Placer Placer
	// PlaceEvery is how many adjustments pass between placement reviews.
	// Default 3.
	PlaceEvery int

	// Stats receives the agent's metrics; nil allocates a private registry.
	Stats *metrics.Registry
	// OnSync observes every sync event (completions, deferrals, failures),
	// invoked outside the agent lock.
	OnSync func(Event)
}

// tableState is one replicated table's live sync state.
type tableState struct {
	id           core.TableID
	cursor       uint64
	haveSnapshot bool
	gen          uint64 // invalidates armed timers on reschedule/demote
	syncing      bool   // a cycle is in flight (live mode)

	// The freshness ledger StateFor answers from. Written with Agent.mu
	// and Agent.fmu both held, so holding either is enough to read.
	period   core.Duration
	lastSync core.Time // -1 before the first completed sync
	nextAt   core.Time // -1 when no cycle is armed
}

// lookahead is how many upcoming syncs StateFor reports per table: the
// planner's delayed-execution plan space grows with every one.
const lookahead = 4

// TableStatus is one table's sync state as reported by Status.
type TableStatus struct {
	Table        core.TableID
	Period       core.Duration
	Cursor       uint64
	LastSync     core.Time // -1: never synced
	NextAt       core.Time // -1: no cycle armed
	HaveSnapshot bool
}

// Agent runs the synchronization cycles. Construct with New; call SyncNow
// for synchronous initial pulls, Start to begin the periodic cycles, Stop
// to cease.
type Agent struct {
	cfg Config
	ctx context.Context
	// self is what armed clock callbacks hold in place of the agent. Stop
	// clears it, so a callback still waiting out its period (an hour at the
	// slowest cadences) keeps nothing reachable: not the agent, not its
	// applier, not the owner's replica store behind that.
	self *atomic.Pointer[Agent]

	mu sync.Mutex
	// fmu is the planner's way in: mu is held across Apply (on the live
	// server, a replica's row-slice copy and append, or a view's fold of
	// the delta and render of its rows) while StateFor runs once per plan,
	// so the ledger fields and the tables map are also covered by fmu,
	// which is only ever held for a few loads or stores. Lock order: mu,
	// then fmu.
	fmu     sync.RWMutex
	tables  map[core.TableID]*tableState
	genSeq  uint64
	started bool
	stopped bool

	// bucket is the bandwidth budget; nil means unlimited.
	bucket *Bucket

	// rateBudget is Σ 1/period at construction — the total sync rate the
	// adaptive controller re-divides but never exceeds.
	rateBudget float64
	adjustGen  uint64
	losses     map[core.TableID]float64
	lossAt     core.Time
	placeLeft  int

	stats *metrics.Registry
}

// New validates the config and returns an Agent. No cycles run until
// SyncNow or Start.
func New(cfg Config) (*Agent, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("replsync: config needs a Clock")
	}
	if cfg.Fetch == nil {
		return nil, fmt.Errorf("replsync: config needs a Fetcher")
	}
	if cfg.Apply == nil {
		return nil, fmt.Errorf("replsync: config needs an Applier")
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("replsync: negative bandwidth budget %g", cfg.Budget)
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	if cfg.AdjustEvery == 0 {
		cfg.AdjustEvery = 10
	}
	if cfg.AdjustEvery < 0 {
		return nil, fmt.Errorf("replsync: negative adjust interval %v", cfg.AdjustEvery)
	}
	if cfg.PlaceEvery == 0 {
		cfg.PlaceEvery = 3
	}
	if cfg.Stats == nil {
		cfg.Stats = metrics.NewRegistry()
	}

	a := &Agent{
		cfg:    cfg,
		ctx:    cfg.Context,
		tables: make(map[core.TableID]*tableState, len(cfg.Tables)),
		losses: make(map[core.TableID]float64),
		stats:  cfg.Stats,
		self:   new(atomic.Pointer[Agent]),
	}
	a.self.Store(a)
	minP, maxP := core.Duration(math.Inf(1)), core.Duration(0)
	for _, tc := range cfg.Tables {
		if tc.ID == "" {
			return nil, fmt.Errorf("replsync: empty table ID")
		}
		if tc.Period <= 0 {
			return nil, fmt.Errorf("replsync: table %s: period %v must be positive", tc.ID, tc.Period)
		}
		if _, ok := a.tables[tc.ID]; ok {
			return nil, fmt.Errorf("replsync: table %s configured twice", tc.ID)
		}
		a.tables[tc.ID] = &tableState{id: tc.ID, period: tc.Period, lastSync: -1, nextAt: -1}
		a.rateBudget += 1 / float64(tc.Period)
		minP = math.Min(minP, tc.Period)
		maxP = math.Max(maxP, tc.Period)
	}
	if a.cfg.MinPeriod == 0 && len(cfg.Tables) > 0 {
		a.cfg.MinPeriod = minP / 4
	}
	if a.cfg.MaxPeriod == 0 && len(cfg.Tables) > 0 {
		a.cfg.MaxPeriod = maxP * 4
	}
	if a.cfg.Adaptive {
		if len(cfg.Tables) == 0 {
			return nil, fmt.Errorf("replsync: adaptive cadence needs at least one table")
		}
		if a.cfg.MinPeriod <= 0 || a.cfg.MaxPeriod < a.cfg.MinPeriod {
			return nil, fmt.Errorf("replsync: invalid period clamp [%v, %v]", a.cfg.MinPeriod, a.cfg.MaxPeriod)
		}
	}
	if cfg.Budget > 0 {
		b, err := NewBucket(cfg.Clock, cfg.Budget, cfg.Burst)
		if err != nil {
			return nil, err
		}
		a.bucket = b
	}
	a.lossAt = cfg.Clock.Now()
	a.placeLeft = a.cfg.PlaceEvery

	// Pre-create the counters so a metrics dump shows zeros before the
	// first cycle.
	for _, name := range []string{
		"syncs_total", "snapshot_syncs_total", "delta_syncs_total",
		"sync_bytes_total", "sync_deferred_total", "sync_errors_total",
		"cadence_adjustments_total", "replicas_promoted_total", "replicas_demoted_total",
		"views_materialized_total", "view_delta_rows_total",
		"view_delta_bytes_total", "view_refresh_deferred_total",
	} {
		a.stats.Counter(name) //lint:allow metriccheck(pre-creation loop over the literal names listed just above)
	}
	return a, nil
}

// Tables returns the currently replicated table IDs, sorted.
func (a *Agent) Tables() []core.TableID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tablesLocked()
}

func (a *Agent) tablesLocked() []core.TableID {
	ids := make([]core.TableID, 0, len(a.tables))
	for id := range a.tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// StateFor is the planner's view of one replicated table at time now, the
// agent being the only keeper of live freshness: LastSync is the instant
// of the table's last applied payload — the stamp the Applier was handed,
// whatever cycles have been deferred or are in flight since — and
// NextSyncs are the armed cycle and the period steps after it that fall
// after now, at most lookahead of them and within the horizon (0 =
// unbounded). A table not replicated, or with no payload applied yet, has
// no state.
func (a *Agent) StateFor(id core.TableID, now core.Time, horizon core.Duration) (core.ReplicaState, bool) {
	a.fmu.RLock()
	ts, ok := a.tables[id]
	if !ok || ts.lastSync < 0 {
		a.fmu.RUnlock()
		return core.ReplicaState{}, false
	}
	period, lastSync, next := ts.period, ts.lastSync, ts.nextAt
	a.fmu.RUnlock()
	rs := core.ReplicaState{LastSync: lastSync}
	if next < 0 {
		return rs, true
	}
	// A cycle still in flight (or its timer late) leaves nextAt behind now:
	// step over the periods already missed.
	if next <= now {
		next += (math.Floor((now-next)/period) + 1) * period
	}
	for i := 0; i < lookahead; i++ {
		t := next + core.Time(i)*period
		if horizon != 0 && t > now+horizon {
			break
		}
		if t <= now { // only when rounding left next a hair short
			continue
		}
		if rs.NextSyncs == nil {
			// Allocated once, and not at all for the common slow cadence
			// whose next cycle lies beyond the horizon.
			rs.NextSyncs = make([]core.Time, 0, lookahead-i)
		}
		rs.NextSyncs = append(rs.NextSyncs, t)
	}
	return rs, true
}

// Status reports every table's sync state, sorted by table ID.
func (a *Agent) Status() []TableStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TableStatus, 0, len(a.tables))
	for _, id := range a.tablesLocked() {
		ts := a.tables[id]
		out = append(out, TableStatus{
			Table:        ts.id,
			Period:       ts.period,
			Cursor:       ts.cursor,
			LastSync:     ts.lastSync,
			NextAt:       ts.nextAt,
			HaveSnapshot: ts.haveSnapshot,
		})
	}
	return out
}

// RefreshStaleness updates the per-table replica_staleness_seconds gauges
// to the current instant (staleness in experiment seconds). Called before
// metric dumps; sync completions also reset their table's gauge.
func (a *Agent) RefreshStaleness() {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.cfg.Clock.Now()
	for _, id := range a.tablesLocked() {
		if ts := a.tables[id]; ts.lastSync >= 0 {
			//lint:allow metriccheck(per-table gauge family, bounded by the replication plan)
			a.stats.Gauge(stalenessGauge(id)).Set(float64(now-ts.lastSync) * 60)
		}
	}
}

// stalenessGauge is the per-unit staleness metric name: replicas report
// under replica_staleness_seconds_<table>, materialized views under
// view_staleness_seconds_<view>.
func stalenessGauge(id core.TableID) string {
	if vid, ok := core.ViewOfUnit(id); ok {
		return "view_staleness_seconds_" + string(vid)
	}
	return "replica_staleness_seconds_" + string(id)
}

// countViewDeferral bumps the view deferral counter when the deferred unit
// is a materialized view.
func (a *Agent) countViewDeferral(id core.TableID) {
	if _, ok := core.ViewOfUnit(id); ok {
		a.stats.Counter("view_refresh_deferred_total").Inc()
	}
}

// SyncNow runs one synchronous cycle for the table — the initial snapshot
// pull at registration. It does not arm a timer; Start does.
func (a *Agent) SyncNow(id core.TableID) error {
	a.mu.Lock()
	ts, ok := a.tables[id]
	if !ok {
		a.mu.Unlock()
		return fmt.Errorf("replsync: table %s not replicated", id)
	}
	if a.stopped {
		a.mu.Unlock()
		return fmt.Errorf("replsync: agent stopped")
	}
	if ts.syncing {
		a.mu.Unlock()
		return fmt.Errorf("replsync: table %s already syncing", id)
	}
	ts.syncing = true
	gen, cursor, have := ts.gen, ts.cursor, ts.haveSnapshot
	a.mu.Unlock()
	ev := a.perform(id, gen, cursor, have, false)
	a.emit(ev)
	return ev.Err
}

// Start arms the periodic cycles (and, when Adaptive, the cadence
// controller). Tables never synced are pulled immediately; tables with a
// completed SyncNow resume one period after it.
func (a *Agent) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.started || a.stopped {
		return
	}
	a.started = true
	now := a.cfg.Clock.Now()
	for _, id := range a.tablesLocked() {
		ts := a.tables[id]
		delay := core.Duration(0)
		if ts.lastSync >= 0 {
			delay = math.Max(0, float64(ts.lastSync)+ts.period-float64(now))
		}
		a.armLocked(ts, now, delay)
	}
	if a.cfg.Adaptive {
		a.armAdjustLocked()
	}
}

// Stop ceases all cycles. Armed timers become no-ops that no longer
// reference the agent; an in-flight fetch completes but its result is
// discarded.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.self.Store(nil)
}

// after arms fn on the clock through a.self (see there): fn must reach the
// agent only through its argument.
func (a *Agent) after(d core.Duration, fn func(*Agent)) {
	self := a.self
	a.cfg.Clock.AfterFunc(d, func() {
		if a := self.Load(); a != nil {
			fn(a)
		}
	})
}

// armLocked schedules the table's next cycle `delay` minutes from `now`.
func (a *Agent) armLocked(ts *tableState, now core.Time, delay core.Duration) {
	if !a.started || a.stopped {
		return
	}
	a.fmu.Lock()
	ts.nextAt = now + math.Max(delay, 0)
	a.fmu.Unlock()
	id, gen := ts.id, ts.gen
	a.after(delay, func(a *Agent) { a.tick(id, gen) })
}

// tick runs one scheduled cycle: budget check, then fetch/apply.
func (a *Agent) tick(id core.TableID, gen uint64) {
	a.mu.Lock()
	ts, ok := a.tables[id]
	if !ok || a.stopped || ts.gen != gen || ts.syncing {
		a.mu.Unlock()
		return
	}
	now := a.cfg.Clock.Now()
	if debt := a.bucket.Debt(); debt > 0 {
		// The bucket is in debt from an earlier payload: defer until it
		// refills instead of overdrawing further. The deferral is a cycle
		// outcome, not a retry loop.
		wait := debt / a.bucket.Rate()
		a.stats.Counter("sync_deferred_total").Inc()
		a.countViewDeferral(id)
		ev := Event{Table: id, At: now, Kind: DeferredSync,
			Err: fmt.Errorf("replsync: bandwidth budget exhausted (debt %.0f bytes)", debt)}
		a.armLocked(ts, now, wait*1.0001+1e-9)
		a.mu.Unlock()
		a.emit(ev)
		return
	}
	ts.syncing = true
	cursor, have := ts.cursor, ts.haveSnapshot
	a.mu.Unlock()
	ev := a.perform(id, gen, cursor, have, true)
	a.emit(ev)
}

// perform fetches and applies one cycle's payload, updates cursors,
// budget, metrics and the freshness ledger, and (when rearm) schedules the
// next cycle. It returns the cycle's Event.
func (a *Agent) perform(id core.TableID, gen uint64, cursor uint64, have, rearm bool) Event {
	var (
		snap    Snapshot
		delta   Delta
		asSnap  bool
		bytes   int64
		version uint64
		err     error
	)
	if !have {
		asSnap = true
		snap, err = a.cfg.Fetch.Snapshot(a.ctx, id)
	} else {
		delta, err = a.cfg.Fetch.Delta(a.ctx, id, cursor)
		if err == nil && delta.Resync {
			// The site cannot serve our cursor (history lost): fall back to
			// a full snapshot within the same cycle.
			asSnap = true
			snap, err = a.cfg.Fetch.Snapshot(a.ctx, id)
		}
	}
	if err == nil {
		if asSnap {
			bytes, version = snap.Bytes, snap.Version
		} else {
			bytes, version = delta.Bytes, delta.Version
		}
	}

	a.mu.Lock()
	ts, ok := a.tables[id]
	if !ok || a.stopped || ts.gen != gen {
		// Demoted or stopped while the fetch was in flight: discard.
		if ok {
			ts.syncing = false
		}
		a.mu.Unlock()
		return Event{Table: id, At: a.cfg.Clock.Now(), Kind: FailedSync,
			Err: fmt.Errorf("replsync: table %s cycle superseded", id)}
	}
	ts.syncing = false
	now := a.cfg.Clock.Now()

	if err == nil {
		// Apply atomically (the applier owns the replica store's lock)
		// and, below, enter the same instant in the ledger, so the
		// planner's freshness view and the store agree exactly.
		if asSnap {
			err = a.cfg.Apply.ApplySnapshot(id, snap, now)
		} else {
			err = a.cfg.Apply.ApplyDelta(id, delta, now)
		}
	}
	if err != nil {
		kind := FailedSync
		if deferrable(err) {
			// The site's circuit breaker is open: no bytes moved and no
			// retries burned. Push the cycle back one period; once the
			// breaker half-opens, the next cycle doubles as its probe.
			kind = DeferredSync
			a.stats.Counter("sync_deferred_total").Inc()
			a.countViewDeferral(id)
		} else {
			a.stats.Counter("sync_errors_total").Inc()
		}
		if rearm {
			a.armLocked(ts, now, ts.period)
		}
		a.mu.Unlock()
		return Event{Table: id, At: now, Kind: kind, Err: err}
	}

	ts.cursor = version
	ts.haveSnapshot = true
	a.fmu.Lock()
	ts.lastSync = now
	a.fmu.Unlock()
	a.bucket.Charge(bytes)
	a.stats.Counter("syncs_total").Inc()
	a.stats.Counter("sync_bytes_total").Add(bytes)
	if asSnap {
		a.stats.Counter("snapshot_syncs_total").Inc()
	} else {
		a.stats.Counter("delta_syncs_total").Inc()
	}
	if _, isView := core.ViewOfUnit(id); isView {
		if asSnap {
			a.stats.Counter("views_materialized_total").Inc()
		} else {
			a.stats.Counter("view_delta_rows_total").Add(int64(len(delta.Rows)))
			a.stats.Counter("view_delta_bytes_total").Add(bytes)
		}
	}
	a.stats.Gauge(stalenessGauge(id)).Set(0) //lint:allow metriccheck(per-table gauge family, bounded by the replication plan)
	if rearm {
		a.armLocked(ts, now, ts.period)
	}
	a.mu.Unlock()

	kind := DeltaSync
	if asSnap {
		kind = SnapshotSync
	}
	return Event{Table: id, At: now, Kind: kind, Bytes: bytes, Version: version}
}

// emit hands the event to the observer, outside the agent lock.
func (a *Agent) emit(ev Event) {
	if a.cfg.OnSync != nil {
		a.cfg.OnSync(ev)
	}
}
