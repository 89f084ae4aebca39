package federation_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/federation"
	"ivdss/internal/replication"
	"ivdss/internal/replsync"
	"ivdss/internal/scheduler"
)

// sameState compares two replica states, an empty NextSyncs equal to a nil
// one.
func sameState(a, b core.ReplicaState) bool {
	return a.LastSync == b.LastSync && slices.Equal(a.NextSyncs, b.NextSyncs)
}

// TestSnapshotAtIsTheManagersSnapshot: for any later instant t whose
// horizon the earlier snapshot covers, a Manager snapshot taken at t0 and
// read through At gives exactly the Manager's snapshot at t — replicas
// (synced, not yet synced, never synced) and views alike.
func TestSnapshotAtIsTheManagersSnapshot(t *testing.T) {
	placement, err := federation.NewPlacement(map[core.TableID]core.SiteID{"accounts": 1, "trades": 2, "rates": 2})
	if err != nil {
		t.Fatal(err)
	}
	mgr := replication.NewManager()
	catalog, err := federation.NewCatalog(placement, mgr)
	if err != nil {
		t.Fatal(err)
	}
	view := core.ViewDef{ID: "exposure", QueryID: "q-exposure", Table: "trades",
		SQL: "SELECT t_account, sum(t_amount) FROM trades GROUP BY t_account"}
	if err := catalog.RegisterView(view); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		unit                   core.TableID
		period, offset, finish core.Time
	}{
		{"accounts", 4, 0, 400},
		{"trades", 7.5, 30, 400}, // first synced at 30
		{"rates", 50, 500, 900},  // first synced past every t0 below
		{core.ViewUnit(view.ID), 3, 1, 400},
	} {
		sched, err := replication.Periodic(s.period, s.offset, s.finish)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Register(s.unit, sched); err != nil {
			t.Fatal(err)
		}
	}
	tables := []core.TableID{"accounts", "trades", "rates"}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		t0 := 60 * rng.Float64()
		at := t0 + 40*rng.Float64()
		horizon := 1 + 30*rng.Float64()
		width := at + horizon - t0 + 20*rng.Float64()
		if trial%10 == 0 {
			width = 0 // unbounded
		}
		from, err := catalog.Snapshot(tables, t0, width)
		if err != nil {
			t.Fatal(err)
		}
		want, err := catalog.Snapshot(tables, at, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if 500 > at+horizon && !sameState(*want[2].Replica, core.Unsynced(at)) {
			t.Fatalf("trial %d: rates, first synced at 500, reads %+v at %v within %v", trial, *want[2].Replica, at, horizon)
		}
		for i := range tables {
			got := from[i].Replica.At(at, horizon)
			if !sameState(got, *want[i].Replica) {
				t.Fatalf("trial %d: %s snapshotted at %v (width %v) reads %+v at %v, its snapshot there is %+v",
					trial, tables[i], t0, width, got, at, *want[i].Replica)
			}
			if len(from[i].Views) != len(want[i].Views) {
				t.Fatalf("trial %d: %s has %d views at %v, %d at %v", trial, tables[i], len(from[i].Views), t0, len(want[i].Views), at)
			}
			for j, vs := range from[i].Views {
				got, w := vs.At(at, horizon), want[i].Views[j]
				if got.ID != w.ID || got.QueryID != w.QueryID || !sameState(core.ReplicaState{LastSync: got.LastSync, NextSyncs: got.NextSyncs}, core.ReplicaState{LastSync: w.LastSync, NextSyncs: w.NextSyncs}) {
					t.Fatalf("trial %d: view %s snapshotted at %v reads %+v at %v, its snapshot there is %+v", trial, vs.ID, t0, got, at, w)
				}
			}
		}
	}
}

// modelSite answers every pull with an empty payload.
type modelSite struct{}

func (modelSite) Snapshot(context.Context, core.TableID) (replsync.Snapshot, error) {
	return replsync.Snapshot{}, nil
}

func (modelSite) Delta(context.Context, core.TableID, uint64) (replsync.Delta, error) {
	return replsync.Delta{}, nil
}

func (modelSite) ApplySnapshot(core.TableID, replsync.Snapshot, core.Time) error { return nil }
func (modelSite) ApplyDelta(core.TableID, replsync.Delta, core.Time) error       { return nil }
func (modelSite) Drop(core.TableID)                                              {}

// TestSnapshotAtCountsTheAgentsPromises: the live agent reports only the
// syncs it has run, so read through At its snapshot at t0 equals its
// snapshot at t while no promised sync falls in (t0, t], and otherwise
// counts the last such sync as done, still promising the ones after it.
func TestSnapshotAtCountsTheAgentsPromises(t *testing.T) {
	placement, err := federation.NewPlacement(map[core.TableID]core.SiteID{"accounts": 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := &scheduler.ManualClock{}
	agent, err := replsync.New(replsync.Config{Clock: clock, Fetch: modelSite{}, Apply: modelSite{},
		Tables: []replsync.TableConfig{{ID: "accounts", Period: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncNow("accounts"); err != nil {
		t.Fatal(err)
	}
	agent.Start()
	defer agent.Stop()
	clock.RunUntil(11) // synced at 0, 5 and 10; the next cycle is armed for 15
	catalog, err := federation.NewCatalog(placement, agent)
	if err != nil {
		t.Fatal(err)
	}
	tables := []core.TableID{"accounts"}
	rng := rand.New(rand.NewSource(29))
	folded := 0
	for trial := 0; trial < 2000; trial++ {
		now := clock.Now()
		at := now + 20*rng.Float64()
		horizon := 1 + 15*rng.Float64()
		from, err := catalog.Snapshot(tables, now, at+horizon-now)
		if err != nil {
			t.Fatal(err)
		}
		want, err := catalog.Snapshot(tables, at, horizon)
		if err != nil {
			t.Fatal(err)
		}
		got, promised := from[0].Replica.At(at, horizon), from[0].Replica.NextSyncs
		if len(promised) == 0 || promised[0] > at {
			if !sameState(got, *want[0].Replica) {
				t.Fatalf("trial %d: no sync promised in (%v, %v], yet At reads %+v and the snapshot there %+v", trial, now, at, got, *want[0].Replica)
			}
			continue
		}
		folded++
		last := promised[0]
		for _, n := range promised {
			if n <= at {
				last = n
			}
		}
		if got.LastSync != last {
			t.Fatalf("trial %d: At(%v) reads LastSync %v, the last sync promised by then is %v", trial, at, got.LastSync, last)
		}
		if n := len(got.NextSyncs); n > len(want[0].Replica.NextSyncs) || !slices.Equal(got.NextSyncs, want[0].Replica.NextSyncs[:n]) {
			t.Fatalf("trial %d: At(%v) promises %v, the snapshot there %v", trial, at, got.NextSyncs, want[0].Replica.NextSyncs)
		}
	}
	if folded == 0 {
		t.Fatal("no trial counted a promised sync as done")
	}
}
