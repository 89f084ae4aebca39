package replsync

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/metrics"
	"ivdss/internal/scheduler"
)

// modelFetcher is a byte-accurate model of a remote site: the table grows
// rowsPerMin rows per experiment minute, each rowBytes wide, from baseRows
// at t=0. It answers snapshots and deltas from the model, and can be
// forced to fail or answer Resync.
type modelFetcher struct {
	clock      scheduler.Clock
	baseRows   uint64
	rowsPerMin float64
	rowBytes   int64

	// fixedBytes, when positive, overrides the modeled payload size — for
	// budget tests that need constant-size transfers.
	fixedBytes int64
	// inFlight, when set, runs inside every Delta before it answers: the
	// time a fetch spends on the wire.
	inFlight func()

	mu        sync.Mutex
	fail      error
	forceSync bool
	calls     []string
}

func (f *modelFetcher) version() uint64 {
	return f.baseRows + uint64(f.rowsPerMin*float64(f.clock.Now()))
}

func (f *modelFetcher) Snapshot(_ context.Context, table core.TableID) (Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("snapshot %s", table))
	if f.fail != nil {
		return Snapshot{}, f.fail
	}
	v := f.version()
	b := int64(v) * f.rowBytes
	if f.fixedBytes > 0 {
		b = f.fixedBytes
	}
	return Snapshot{Version: v, Bytes: b}, nil
}

func (f *modelFetcher) Delta(_ context.Context, table core.TableID, cursor uint64) (Delta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("delta %s @%d", table, cursor))
	if f.inFlight != nil {
		f.inFlight()
	}
	if f.fail != nil {
		return Delta{}, f.fail
	}
	if f.forceSync {
		return Delta{Resync: true}, nil
	}
	v := f.version()
	if cursor > v {
		return Delta{Resync: true}, nil
	}
	b := int64(v-cursor) * f.rowBytes
	if f.fixedBytes > 0 {
		b = f.fixedBytes
	}
	return Delta{Version: v, Bytes: b}, nil
}

// countApplier counts applications; it tolerates nil payload tables.
type countApplier struct {
	mu        sync.Mutex
	snapshots int
	deltas    int
	drops     []core.TableID
	lastAt    core.Time
}

func (ap *countApplier) ApplySnapshot(_ core.TableID, _ Snapshot, at core.Time) error {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	ap.snapshots++
	ap.lastAt = at
	return nil
}

func (ap *countApplier) ApplyDelta(_ core.TableID, _ Delta, at core.Time) error {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	ap.deltas++
	ap.lastAt = at
	return nil
}

func (ap *countApplier) Drop(t core.TableID) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	ap.drops = append(ap.drops, t)
}

// eventLog collects sync events.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) observe(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) all() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event{}, l.events...)
}

// The basic engine cycle: snapshot on the first sync, deltas after, the
// planner's view tracking every completion and the upcoming cadence.
func TestAgentSnapshotThenDeltas(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk, baseRows: 100, rowsPerMin: 10, rowBytes: 8}
	apply := &countApplier{}
	log := &eventLog{}
	reg := metrics.NewRegistry()
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  apply,
		Tables: []TableConfig{{ID: "accounts", Period: 5}},
		Stats:  reg,
		OnSync: log.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(21) // cycles at 0, 5, 10, 15, 20

	evs := log.all()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(evs), evs)
	}
	if evs[0].Kind != SnapshotSync || evs[0].Version != 100 {
		t.Fatalf("first event = %+v, want snapshot at version 100", evs[0])
	}
	for i, ev := range evs[1:] {
		if ev.Kind != DeltaSync {
			t.Fatalf("event %d = %+v, want delta", i+1, ev)
		}
		if ev.Bytes != 50*8 {
			t.Fatalf("delta bytes = %d, want %d (50 rows)", ev.Bytes, 50*8)
		}
	}
	if apply.snapshots != 1 || apply.deltas != 4 {
		t.Fatalf("applier saw %d snapshots, %d deltas; want 1, 4", apply.snapshots, apply.deltas)
	}

	// The planner's view: last sync at 20, upcoming syncs at 25, 30, ...
	st, ok := a.StateFor("accounts", 21, 0)
	if !ok || st.LastSync != 20 {
		t.Fatalf("StateFor last sync = %+v, want 20", st)
	}
	if len(st.NextSyncs) == 0 || st.NextSyncs[0] != 25 {
		t.Fatalf("StateFor next syncs = %v, want [25 ...]", st.NextSyncs)
	}
	if got := reg.Counter("syncs_total").Value(); got != 5 {
		t.Fatalf("syncs_total = %d, want 5", got)
	}
	if got := reg.Counter("delta_syncs_total").Value(); got != 4 {
		t.Fatalf("delta_syncs_total = %d, want 4", got)
	}
}

// The planner is only as right as the LastSync it is handed: through
// breaker-open deferrals, bucket-debt deferrals and a fetch still on the
// wire past its armed instant, StateFor's LastSync is the stamp the applier
// last got — never a scheduled instant that merely went by — and NextSyncs
// ascend from strictly after now.
func TestStateForIsTheAppliersStamp(t *testing.T) {
	type world struct {
		clk   *scheduler.ManualClock
		fetch *modelFetcher
		a     *Agent
		probe func()
	}
	build := func(t *testing.T, cfg Config) *world {
		w := &world{clk: &scheduler.ManualClock{}}
		w.fetch = &modelFetcher{clock: w.clk, baseRows: 10, rowsPerMin: 1, rowBytes: 8, fixedBytes: 80}
		apply := &countApplier{}
		cfg.Clock, cfg.Fetch, cfg.Apply = w.clk, w.fetch, apply
		cfg.Tables = []TableConfig{{ID: "t", Period: 5}}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.a = a
		w.probe = func() {
			t.Helper()
			now := w.clk.Now()
			st, ok := a.StateFor("t", now, 0)
			if !ok || st.LastSync != apply.lastAt {
				t.Fatalf("t=%v: planner sees %+v, the applier's last stamp is %v", now, st, apply.lastAt)
			}
			if len(st.NextSyncs) != lookahead {
				t.Fatalf("t=%v: %d upcoming syncs, want %d", now, len(st.NextSyncs), lookahead)
			}
			prev := now
			for _, n := range st.NextSyncs {
				if n <= prev {
					t.Fatalf("t=%v: upcoming syncs %v not ascending from after now", now, st.NextSyncs)
				}
				prev = n
			}
		}
		a.Start()
		return w
	}
	stepTo := func(w *world, until core.Time) {
		t.Helper()
		for w.clk.Now() < until {
			w.clk.RunUntil(w.clk.Now() + 1)
			w.probe()
		}
	}

	t.Run("breaker open", func(t *testing.T) {
		reg := metrics.NewRegistry()
		w := build(t, Config{Stats: reg})
		stepTo(w, 11) // syncs at 0, 5, 10
		w.fetch.fail = fmt.Errorf("site 1: %w", &faults.OpenError{Key: "site-1"})
		stepTo(w, 32) // cycles at 15, 20, 25, 30 all deferred
		if st, ok := w.a.StateFor("t", 32, 0); !ok || st.LastSync != 10 {
			t.Fatalf("last sync during the outage = %v, want 10", st.LastSync)
		}
		if got := reg.Counter("sync_deferred_total").Value(); got != 4 {
			t.Fatalf("sync_deferred_total = %d, want 4", got)
		}
		w.fetch.fail = nil
		stepTo(w, 36)
		if st, ok := w.a.StateFor("t", 36, 0); !ok || st.LastSync != 35 {
			t.Fatalf("last sync after healing = %v, want 35", st.LastSync)
		}
	})

	t.Run("bucket debt", func(t *testing.T) {
		reg := metrics.NewRegistry()
		// 80-byte payloads every 5 minutes against 4 bytes/min: every sync
		// leaves 15+ minutes of debt, which the armed cycles defer through.
		w := build(t, Config{Budget: 4, Burst: 40, Stats: reg})
		stepTo(w, 60)
		if got := reg.Counter("sync_deferred_total").Value(); got == 0 {
			t.Fatal("the budget deferred no cycle")
		}
		if got := reg.Counter("syncs_total").Value(); got < 2 {
			t.Fatalf("syncs_total = %d: the agent stalled", got)
		}
	})

	t.Run("fetch in flight", func(t *testing.T) {
		w := build(t, Config{})
		stepTo(w, 6) // syncs at 0, 5
		// The cycle armed for 10 spends 7 minutes on the wire: the planner is
		// asked at 11 … 17 with the fetch still out, then the payload lands.
		w.fetch.inFlight = func() {
			w.fetch.inFlight = nil
			w.fetch.mu.Unlock()
			stepTo(w, 17)
			w.fetch.mu.Lock()
		}
		stepTo(w, 20)
		if st, ok := w.a.StateFor("t", 20, 0); !ok || st.LastSync != 17 {
			t.Fatalf("last sync after the slow fetch = %v, want 17 (when its payload was applied)", st.LastSync)
		}
	})
}

// SyncNow runs the initial pull synchronously (for server construction)
// and Start resumes one period later, not immediately.
func TestAgentSyncNowThenStart(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 0, rowBytes: 8}
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "t", Period: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SyncNow("t"); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if len(st) != 1 || st[0].LastSync != 0 || !st[0].HaveSnapshot {
		t.Fatalf("status after SyncNow = %+v", st)
	}
	if clk.Pending() != 0 {
		t.Fatal("SyncNow must not arm timers")
	}
	a.Start()
	clk.RunUntil(9) // cycles at 4 and 8 only — not at 0 again
	if got := len(fetch.calls); got != 3 {
		t.Fatalf("fetch calls = %v, want snapshot + 2 deltas", fetch.calls)
	}
	if err := a.SyncNow("missing"); err == nil {
		t.Fatal("SyncNow of unknown table should error")
	}
}

// An open circuit breaker defers the cycle — no retry burst, no failure
// count — and the agent recovers on the next period once the site heals.
func TestAgentBreakerOpenDefers(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 1, rowBytes: 8}
	reg := metrics.NewRegistry()
	log := &eventLog{}
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "t", Period: 5}},
		Stats:  reg,
		OnSync: log.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(1) // initial snapshot lands

	fetch.mu.Lock()
	fetch.fail = fmt.Errorf("site 1: %w", &faults.OpenError{Key: "site-1"})
	fetch.mu.Unlock()
	clk.RunUntil(16) // cycles at 5, 10, 15 all deferred

	if got := reg.Counter("sync_deferred_total").Value(); got != 3 {
		t.Fatalf("sync_deferred_total = %d, want 3", got)
	}
	if got := reg.Counter("sync_errors_total").Value(); got != 0 {
		t.Fatalf("sync_errors_total = %d, want 0 (deferrals are not failures)", got)
	}

	fetch.mu.Lock()
	fetch.fail = nil
	fetch.mu.Unlock()
	clk.RunUntil(21) // cycle at 20 succeeds again
	evs := log.all()
	last := evs[len(evs)-1]
	if last.Kind != DeltaSync || last.At != 20 {
		t.Fatalf("post-heal event = %+v, want delta at 20", last)
	}
	for _, ev := range evs {
		if ev.Kind == DeferredSync && !strings.Contains(ev.Err.Error(), "site 1") {
			t.Fatalf("deferred event should carry the breaker error, got %v", ev.Err)
		}
	}
}

// A non-breaker failure counts as an error (not a deferral) and the cycle
// retries next period.
func TestAgentFetchErrorCounts(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 0, rowBytes: 8}
	fetch.fail = errors.New("connection reset")
	reg := metrics.NewRegistry()
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "t", Period: 5}},
		Stats:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(6)
	if got := reg.Counter("sync_errors_total").Value(); got != 2 {
		t.Fatalf("sync_errors_total = %d, want 2", got)
	}
	if got := reg.Counter("sync_deferred_total").Value(); got != 0 {
		t.Fatalf("sync_deferred_total = %d, want 0", got)
	}
}

// A Resync answer falls back to a full snapshot within the same cycle.
func TestAgentResyncFallsBackToSnapshot(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 1, rowBytes: 8}
	log := &eventLog{}
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "t", Period: 5}},
		OnSync: log.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(1)
	fetch.mu.Lock()
	fetch.forceSync = true
	fetch.mu.Unlock()
	clk.RunUntil(6)

	evs := log.all()
	if len(evs) != 2 || evs[1].Kind != SnapshotSync {
		t.Fatalf("events = %+v, want [snapshot snapshot] (resync fallback)", evs)
	}
	wantCalls := []string{"snapshot t", "delta t @10", "snapshot t"}
	if fmt.Sprint(fetch.calls) != fmt.Sprint(wantCalls) {
		t.Fatalf("fetch calls = %v, want %v", fetch.calls, wantCalls)
	}
}

// The bandwidth budget: a payload that overdraws the token bucket puts it
// into debt, and subsequent cycles defer until the debt refills — total
// bytes moved stay near the budget rate instead of the demand rate.
func TestAgentBandwidthBudgetDefers(t *testing.T) {
	clk := &scheduler.ManualClock{}
	// 80 bytes/min of demand (an 80-byte payload every 1-minute period)
	// against a 40 bytes/min budget with a small burst.
	fetch := &modelFetcher{clock: clk, baseRows: 0, rowsPerMin: 10, rowBytes: 8, fixedBytes: 80}
	reg := metrics.NewRegistry()
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "t", Period: 1}},
		Budget: 40,
		Burst:  40,
		Stats:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(100)

	moved := float64(reg.Counter("sync_bytes_total").Value())
	// ~40 bytes/min over 100 minutes, plus the initial burst and the one
	// payload the post-paid bucket lets overdraw.
	if moved > 40*100+40+80 {
		t.Fatalf("moved %v bytes, want ≤ budget × horizon + burst + payload", moved)
	}
	if moved < 3000 {
		t.Fatalf("moved only %v bytes; the budget should sustain ≈4000", moved)
	}
	if got := reg.Counter("sync_deferred_total").Value(); got == 0 {
		t.Fatal("over-budget demand should defer some cycles")
	}
	// The agent must not stall: syncs keep completing at the budget rate.
	if got := reg.Counter("syncs_total").Value(); got < 20 {
		t.Fatalf("syncs_total = %d, want a sustained cadence", got)
	}
}

// Stop orphans armed timers; nothing fires after it.
func TestAgentStop(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 0, rowBytes: 8}
	reg := metrics.NewRegistry()
	a, err := New(Config{
		Clock:  clk,
		Fetch:  fetch,
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "t", Period: 5}},
		Stats:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(6)
	a.Stop()
	before := reg.Counter("syncs_total").Value()
	clk.RunUntil(100)
	if got := reg.Counter("syncs_total").Value(); got != before {
		t.Fatalf("syncs after Stop: %d → %d", before, got)
	}
}

// Config validation rejects the unusable.
func TestAgentConfigValidation(t *testing.T) {
	clk := &scheduler.ManualClock{}
	fetch := &modelFetcher{clock: clk}
	apply := &countApplier{}
	cases := []Config{
		{Fetch: fetch, Apply: apply},                             // no clock
		{Clock: clk, Apply: apply},                               // no fetcher
		{Clock: clk, Fetch: fetch},                               // no applier
		{Clock: clk, Fetch: fetch, Apply: apply, Budget: -1},     // negative budget
		{Clock: clk, Fetch: fetch, Apply: apply, Adaptive: true}, // adaptive, no tables
		{Clock: clk, Fetch: fetch, Apply: apply,
			Tables: []TableConfig{{ID: "t", Period: 0}}}, // zero period
		{Clock: clk, Fetch: fetch, Apply: apply,
			Tables: []TableConfig{{ID: "t", Period: 1}, {ID: "t", Period: 2}}}, // dup
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}
