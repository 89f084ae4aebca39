package scheduler_test

import (
	"context"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/federation"
	"ivdss/internal/replsync"
	"ivdss/internal/scheduler"
)

func init() { scheduler.LiveCatalog = liveCatalog }

// emptySite answers every pull with an empty payload.
type emptySite struct{}

func (emptySite) Snapshot(context.Context, core.TableID) (replsync.Snapshot, error) {
	return replsync.Snapshot{}, nil
}

func (emptySite) Delta(context.Context, core.TableID, uint64) (replsync.Delta, error) {
	return replsync.Delta{}, nil
}

func (emptySite) ApplySnapshot(core.TableID, replsync.Snapshot, core.Time) error { return nil }
func (emptySite) ApplyDelta(core.TableID, replsync.Delta, core.Time) error       { return nil }
func (emptySite) Drop(core.TableID)                                              {}

// breakers is the DSS's site health: a site is down while its breaker is
// open.
type breakers map[core.SiteID]*faults.Breaker

func (b breakers) SiteDown(site core.SiteID, _ core.Time) bool {
	br, ok := b[site]
	return ok && br.State() == faults.Open
}

func liveCatalog(tb testing.TB, placement *federation.Placement, period core.Duration) *federation.Catalog {
	tb.Helper()
	clock := &scheduler.ManualClock{}
	var tables []replsync.TableConfig
	health := breakers{}
	for _, id := range placement.Tables() {
		tables = append(tables, replsync.TableConfig{ID: id, Period: period})
		site, err := placement.SiteOf(id)
		if err != nil {
			tb.Fatal(err)
		}
		health[site] = faults.NewBreaker(faults.BreakerConfig{Clock: clock})
	}
	agent, err := replsync.New(replsync.Config{Clock: clock, Fetch: emptySite{}, Apply: emptySite{}, Tables: tables})
	if err != nil {
		tb.Fatal(err)
	}
	for _, tc := range tables {
		if err := agent.SyncNow(tc.ID); err != nil {
			tb.Fatal(err)
		}
	}
	agent.Start()
	tb.Cleanup(agent.Stop)
	catalog, err := federation.NewCatalog(placement, agent)
	if err != nil {
		tb.Fatal(err)
	}
	catalog.WatchSites(health)
	return catalog
}
