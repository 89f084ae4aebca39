package replsync

import (
	"context"
	"fmt"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/metrics"
	"ivdss/internal/scheduler"
)

// routeFetcher dispatches each sync unit to its own model fetcher, so a
// breaker can open on one view's base table without touching siblings.
type routeFetcher struct {
	units map[core.TableID]*modelFetcher
}

func (r routeFetcher) Snapshot(ctx context.Context, table core.TableID) (Snapshot, error) {
	f, ok := r.units[table]
	if !ok {
		return Snapshot{}, fmt.Errorf("routeFetcher: unknown unit %s", table)
	}
	return f.Snapshot(ctx, table)
}

func (r routeFetcher) Delta(ctx context.Context, table core.TableID, cursor uint64) (Delta, error) {
	f, ok := r.units[table]
	if !ok {
		return Delta{}, fmt.Errorf("routeFetcher: unknown unit %s", table)
	}
	return f.Delta(ctx, table, cursor)
}

// TestViewDeltasDeferIndependently is the chaos case: two materialized
// views sync as namespaced units; the breaker opens on one view's base
// table, and that view's cycles defer while the sibling keeps advancing.
// When the breaker heals, the deferred view resumes deltas from its cursor.
func TestViewDeltasDeferIndependently(t *testing.T) {
	clk := &scheduler.ManualClock{}
	v1, v2 := core.ViewUnit("v1"), core.ViewUnit("v2")
	f1 := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 2, rowBytes: 8}
	f2 := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 2, rowBytes: 8}
	stats := metrics.NewRegistry()
	log := &eventLog{}
	a, err := New(Config{
		Clock: clk,
		Fetch: routeFetcher{units: map[core.TableID]*modelFetcher{v1: f1, v2: f2}},
		Apply: &countApplier{},
		Tables: []TableConfig{
			{ID: v1, Period: 5},
			{ID: v2, Period: 5},
		},
		Stats:  stats,
		OnSync: log.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SyncNow(v1); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncNow(v2); err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(6) // first periodic delta for both at t=5

	// Chaos: v1's base site trips its breaker.
	f1.fail = fmt.Errorf("site 1: %w", &faults.OpenError{Key: "site-1"})
	clk.RunUntil(16) // cycles at 10 and 15

	kinds := map[core.TableID]map[SyncKind]int{v1: {}, v2: {}}
	for _, ev := range log.all() {
		if ev.At > 5 {
			kinds[ev.Table][ev.Kind]++
		}
	}
	if kinds[v1][DeferredSync] < 2 {
		t.Fatalf("open breaker on v1's base: want ≥2 deferrals, got %v", kinds[v1])
	}
	if kinds[v1][FailedSync] != 0 {
		t.Fatalf("open breaker must defer, not fail: %v", kinds[v1])
	}
	if kinds[v2][DeltaSync] < 2 || kinds[v2][DeferredSync] != 0 {
		t.Fatalf("sibling view stalled by v1's breaker: %v", kinds[v2])
	}
	if got := stats.Counter("view_refresh_deferred_total").Value(); got < 2 {
		t.Errorf("view_refresh_deferred_total = %d, want ≥2", got)
	}

	// Heal: v1 resumes deltas from its cursor, no re-snapshot.
	f1.fail = nil
	before := stats.Counter("views_materialized_total").Value()
	clk.RunUntil(21)
	resumed := false
	for _, ev := range log.all() {
		if ev.Table == v1 && ev.At > 16 && ev.Kind == DeltaSync {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("v1 did not resume delta syncs after the breaker healed")
	}
	if after := stats.Counter("views_materialized_total").Value(); after != before {
		t.Errorf("healing must not re-materialize: %d -> %d", before, after)
	}
	if stats.Counter("views_materialized_total").Value() != 2 {
		t.Errorf("views_materialized_total = %d, want 2 (one per view snapshot)",
			stats.Counter("views_materialized_total").Value())
	}
	if stats.Counter("view_delta_bytes_total").Value() <= 0 {
		t.Error("view_delta_bytes_total stayed zero despite delta syncs")
	}
}
