// Package replsync is the live replication engine: it actually moves
// replica data on synchronization cycles and adapts the cadence to the
// information value the workload is losing to staleness.
//
// The split of responsibilities:
//
//   - A Fetcher obtains sync payloads — a full snapshot on a replica's
//     first cycle, cursor-based deltas thereafter (base tables are
//     append-only, so the row count is a complete change cursor). The live
//     server's fetcher speaks netproto through the fault-tolerance stack;
//     benchmarks plug in a byte-accurate model so the DES exercises the
//     identical engine.
//   - An Applier installs payloads atomically into the replica store and
//     is the only party that touches replica data.
//   - The Agent owns the cycles: per-table periods, a global bandwidth
//     budget (token bucket over experiment time), deferral instead of
//     retries when a circuit breaker is open. It is also the one keeper of
//     live freshness: StateFor answers the planner (through the catalog)
//     from the last instant the Applier returned and the cycle it has
//     armed, so what a plan is priced with is what the replica store
//     holds, deferrals and slow fetches included.
//   - The adaptive cadence controller (cadence.go) re-divides the total
//     sync rate across tables in proportion to each table's measured
//     IV-loss-to-staleness, and periodically asks a Placer whether the
//     replica set itself should change (online promotion/demotion).
//
// The Agent is parameterized over scheduler.Clock, so the DES simulator
// drives the same code path as the wall-clock server.
package replsync

import (
	"context"
	"errors"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/relation"
)

// Snapshot is a full-copy sync payload.
type Snapshot struct {
	// Table is the replica contents; model fetchers may leave it nil when
	// only the traffic accounting matters (the Applier must tolerate it).
	Table *relation.Table
	// Version is the base table's change cursor at the snapshot instant.
	Version uint64
	// Bytes is the payload size charged against the bandwidth budget.
	Bytes int64
}

// Delta is an incremental sync payload: the rows appended between the
// caller's cursor and Version.
type Delta struct {
	Rows    []relation.Row
	Version uint64
	Bytes   int64
	// Resync means the cursor could not be served (the site lost history);
	// the agent falls back to a full snapshot.
	Resync bool
}

// Fetcher obtains sync payloads for one table.
type Fetcher interface {
	Snapshot(ctx context.Context, table core.TableID) (Snapshot, error)
	Delta(ctx context.Context, table core.TableID, cursor uint64) (Delta, error)
}

// Applier installs fetched payloads into the replica store. Installations
// must be atomic with respect to concurrent readers; `at` is the
// experiment-time freshness stamp of the new contents. Implementations
// must not call back into the Agent.
type Applier interface {
	ApplySnapshot(table core.TableID, snap Snapshot, at core.Time) error
	ApplyDelta(table core.TableID, delta Delta, at core.Time) error
	// Drop discards a replica on demotion.
	Drop(table core.TableID)
}

// Placer recommends the replica set, consulted by the cadence controller
// at placement-review ticks. Returning the current set (or an empty set)
// means no change. The live server implements it with internal/advisor
// over its recent query window.
type Placer interface {
	Recommend(current []core.TableID) ([]core.TableID, error)
}

// SyncKind classifies one sync event.
type SyncKind int

const (
	// SnapshotSync moved a full copy.
	SnapshotSync SyncKind = iota + 1
	// DeltaSync moved an appended-rows delta.
	DeltaSync
	// DeferredSync moved nothing: the site's breaker was open or the
	// bandwidth budget was exhausted, and the cycle was pushed back rather
	// than retried.
	DeferredSync
	// FailedSync moved nothing because the fetch or apply errored.
	FailedSync
)

// String names the kind.
func (k SyncKind) String() string {
	switch k {
	case SnapshotSync:
		return "snapshot"
	case DeltaSync:
		return "delta"
	case DeferredSync:
		return "deferred"
	case FailedSync:
		return "failed"
	default:
		return "unknown"
	}
}

// Event records one sync cycle's outcome, for observers and tests.
type Event struct {
	Table   core.TableID
	At      core.Time
	Kind    SyncKind
	Bytes   int64
	Version uint64
	// Err carries the deferral or failure cause for DeferredSync and
	// FailedSync events.
	Err error
}

// deferrable reports whether err is a "site temporarily refusing work"
// condition — an open circuit breaker — that should defer the cycle
// instead of counting as a sync failure.
func deferrable(err error) bool {
	var open *faults.OpenError
	return errors.As(err, &open)
}
