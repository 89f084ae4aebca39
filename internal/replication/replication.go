// Package replication manages the local replicas of remote base tables:
// per-table synchronization schedules and the completed/upcoming sync state
// the planner consumes.
//
// The paper's setup has "a small set of frequently accessed base tables ...
// replicated from the remote servers to the local server", each on its own
// synchronization cycle. Schedules here are materialized in advance
// (periodic or drawn from an exponential stream, as in the paper's
// simulator), which is exactly what lets the planner reason about *future*
// replica versions.
//
// A materialized schedule is a model: every scheduled sync is taken to
// complete at its instant. That is the DES's and the examples' world. The
// live server, whose syncs can be deferred or late, does not use this
// package: its sync agent (internal/replsync) answers the planner from the
// cycles it actually ran.
package replication

import (
	"fmt"
	"sort"
	"sync"

	"ivdss/internal/core"
	"ivdss/internal/stats"
)

// Schedule is the ascending list of synchronization completion times for
// one table over the experiment horizon.
type Schedule struct {
	Times []core.Time
}

// Validate reports whether the schedule is strictly ascending.
func (s Schedule) Validate() error {
	for i := 1; i < len(s.Times); i++ {
		if s.Times[i] <= s.Times[i-1] {
			return fmt.Errorf("replication: schedule not ascending at %d (%v after %v)", i, s.Times[i], s.Times[i-1])
		}
	}
	return nil
}

// Periodic returns a fixed-period schedule: offset, offset+period, ...,
// up to (and including times at) until.
func Periodic(period core.Duration, offset, until core.Time) (Schedule, error) {
	if period <= 0 {
		return Schedule{}, fmt.Errorf("replication: period %v must be positive", period)
	}
	var times []core.Time
	for t := offset; t <= until; t += period {
		times = append(times, t)
	}
	return Schedule{Times: times}, nil
}

// Exponential returns a schedule whose inter-sync gaps are exponentially
// distributed with the given mean — the paper's simulator setup. The
// result is deterministic in the seed.
func Exponential(mean core.Duration, seed int64, until core.Time) (Schedule, error) {
	if mean <= 0 {
		return Schedule{}, fmt.Errorf("replication: mean %v must be positive", mean)
	}
	if until <= 0 {
		return Schedule{}, fmt.Errorf("replication: horizon %v must be positive", until)
	}
	stream := stats.NewExponentialStream(mean, seed)
	var times []core.Time
	t := core.Time(0)
	for {
		t += stream.Next()
		if t > until {
			return Schedule{Times: times}, nil
		}
		times = append(times, t)
	}
}

// Manager tracks the synchronization state of every replicated table. All
// methods are safe for concurrent use: the manager carries its own lock
// rather than relying on a single driving goroutine.
type Manager struct {
	mu     sync.Mutex
	tables map[core.TableID]*tableSync
}

type tableSync struct {
	schedule []core.Time
	applied  int // schedule[:applied] is the completion RecordSync stored (0 or 1 entry)
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{tables: make(map[core.TableID]*tableSync)}
}

// Register adds a replicated table with its schedule. Re-registering a
// table is an error. An empty schedule is valid: a caller modelling syncs
// as they happen registers tables bare and fills in completions
// (RecordSync) and upcoming syncs (Reschedule) as it goes.
func (m *Manager) Register(id core.TableID, s Schedule) error {
	if id == "" {
		return fmt.Errorf("replication: empty table ID")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[id]; ok {
		return fmt.Errorf("replication: table %s already registered", id)
	}
	times := make([]core.Time, len(s.Times))
	copy(times, s.Times)
	m.tables[id] = &tableSync{schedule: times}
	return nil
}

// Tables returns the registered table IDs, sorted.
func (m *Manager) Tables() []core.TableID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]core.TableID, 0, len(m.tables))
	for id := range m.tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RecordSync records an out-of-schedule completed synchronization at `at`
// — an actual completion instant, which drifts from the materialized
// schedule under deferrals and transfer time. Scheduled entries at or
// before `at` that have not completed are dropped (the completed sync
// supersedes them) and `at` becomes the latest completed sync, so StateFor
// reflects exactly what the replica store holds. `at` must not precede the
// last completed sync.
//
// Earlier completions are forgotten: the replica store holds the version
// synchronized at `at` and nothing older, so StateFor answers for instants
// at or after `at` only. That keeps a table's schedule at one completion
// plus its pending entries however long the caller runs, so the lock every
// StateFor takes is never held across a growing copy.
func (m *Manager) RecordSync(id core.TableID, at core.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tables[id]
	if !ok {
		return fmt.Errorf("replication: table %s not registered", id)
	}
	if ts.applied > 0 {
		if last := ts.schedule[ts.applied-1]; at < last {
			return fmt.Errorf("replication: sync at %v precedes last completed sync %v of %s", at, last, id)
		} else if at == last {
			return nil // already recorded
		}
	}
	// Drop pending entries the completed sync supersedes; the completion
	// replaces the applied prefix.
	rest := ts.schedule[ts.applied:]
	for len(rest) > 0 && rest[0] <= at {
		rest = rest[1:]
	}
	ts.schedule = append([]core.Time{at}, rest...)
	ts.applied = 1
	return nil
}

// Reschedule replaces the table's not-yet-completed schedule suffix with
// `future` (strictly ascending, every entry after the last completed
// sync), so the planner's view of upcoming replica versions tracks a
// cadence that changed.
func (m *Manager) Reschedule(id core.TableID, future []core.Time) error {
	if err := (Schedule{Times: future}).Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tables[id]
	if !ok {
		return fmt.Errorf("replication: table %s not registered", id)
	}
	if ts.applied > 0 && len(future) > 0 && future[0] <= ts.schedule[ts.applied-1] {
		return fmt.Errorf("replication: rescheduled sync %v not after last completed sync %v of %s",
			future[0], ts.schedule[ts.applied-1], id)
	}
	sched := make([]core.Time, 0, ts.applied+len(future))
	sched = append(sched, ts.schedule[:ts.applied]...)
	sched = append(sched, future...)
	ts.schedule = sched
	return nil
}

// StateFor returns the planner's view of one replicated table at time now:
// the last completed sync and the scheduled syncs within the horizon
// (horizon 0 means all remaining). It reports false for unreplicated
// tables.
//
// The state is derived from the schedule alone: every scheduled sync at or
// before now counts as completed, so callers may ask about any `now` at or
// after the last RecordSync.
func (m *Manager) StateFor(id core.TableID, now core.Time, horizon core.Duration) (core.ReplicaState, bool) {
	m.mu.Lock()
	ts, ok := m.tables[id]
	var sched []core.Time
	if ok {
		sched = ts.schedule
	}
	m.mu.Unlock()
	if !ok {
		return core.ReplicaState{}, false
	}
	if len(sched) == 0 {
		return core.Unsynced(now), true
	}
	// The schedule read as a snapshot taken before its first entry: At
	// counts every entry up to now as done, or keeps the first one pending.
	// A schedule is replaced, never written in place, so the state shares
	// its array.
	return core.ReplicaState{LastSync: sched[0], NextSyncs: sched[1:]}.At(now, horizon), true
}
