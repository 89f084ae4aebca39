package federation

import (
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/replication"
	"ivdss/internal/synth"
)

func tableIDs(n int) []core.TableID {
	ids := make([]core.TableID, n)
	for i := range ids {
		ids[i] = core.TableID(rune('a'+i%26)) + core.TableID(rune('0'+i/26))
	}
	return ids
}

func TestUniformPlacement(t *testing.T) {
	ids := tableIDs(100)
	p, err := UniformPlacement(ids, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.SiteID]int)
	for _, id := range ids {
		s, err := p.SiteOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if s < 1 || s > 10 {
			t.Fatalf("site %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c != 10 {
			t.Errorf("site %d holds %d tables, want 10", s, c)
		}
	}
	if p.NumSites() != 10 {
		t.Errorf("NumSites = %d", p.NumSites())
	}
}

func TestSkewedPlacement(t *testing.T) {
	ids := tableIDs(64)
	p, err := SkewedPlacement(ids, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.SiteID]int)
	for _, id := range ids {
		s, _ := p.SiteOf(id)
		counts[s]++
	}
	// 1/2, 1/4, 1/8 ... : 32, 16, 8, 4, 2, 2 (tail on last site).
	want := []int{32, 16, 8, 4, 2, 2}
	for i, w := range want {
		if counts[core.SiteID(i+1)] != w {
			t.Errorf("site %d holds %d, want %d (all: %v)", i+1, counts[core.SiteID(i+1)], w, counts)
			break
		}
	}
}

func TestSkewedPlacementFewTables(t *testing.T) {
	ids := tableIDs(3)
	p, err := SkewedPlacement(ids, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := p.SiteOf(id); err != nil {
			t.Errorf("table %s unplaced: %v", id, err)
		}
	}
}

func TestPlacementErrors(t *testing.T) {
	if _, err := UniformPlacement(tableIDs(3), 0, 1); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := SkewedPlacement(tableIDs(3), 0, 1); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewPlacement(map[core.TableID]core.SiteID{"a": 0}); err == nil {
		t.Error("placement on local site accepted")
	}
	p, err := NewPlacement(map[core.TableID]core.SiteID{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SiteOf("missing"); err == nil {
		t.Error("unplaced table lookup succeeded")
	}
}

func TestTablesAt(t *testing.T) {
	p, err := NewPlacement(map[core.TableID]core.SiteID{"x": 1, "a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	got := p.TablesAt(1)
	if len(got) != 2 || got[0] != "a" || got[1] != "x" {
		t.Errorf("TablesAt(1) = %v", got)
	}
}

func TestChooseReplicas(t *testing.T) {
	ids := tableIDs(12)
	picked, err := ChooseReplicas(ids, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 5 {
		t.Fatalf("picked %d", len(picked))
	}
	seen := make(map[core.TableID]bool)
	for _, id := range picked {
		if seen[id] {
			t.Errorf("duplicate %s", id)
		}
		seen[id] = true
	}
	again, _ := ChooseReplicas(ids, 5, 7)
	for i := range picked {
		if picked[i] != again[i] {
			t.Error("not deterministic")
		}
	}
	if _, err := ChooseReplicas(ids, 13, 7); err == nil {
		t.Error("oversubscription accepted")
	}
}

func buildTestWorld(t *testing.T) (*Catalog, *replication.Manager) {
	t.Helper()
	placement, err := NewPlacement(map[core.TableID]core.SiteID{
		"accounts": 1,
		"trades":   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := replication.NewManager()
	if err := mgr.Register("accounts", replication.Schedule{Times: []core.Time{0, 10, 20}}); err != nil {
		t.Fatal(err)
	}
	catalog, err := NewCatalog(placement, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return catalog, mgr
}

func TestCatalogSnapshot(t *testing.T) {
	catalog, _ := buildTestWorld(t)
	snap, err := catalog.Snapshot([]core.TableID{"accounts", "trades"}, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if snap[0].Site != 1 || snap[1].Site != 2 {
		t.Errorf("sites = %d, %d", snap[0].Site, snap[1].Site)
	}
	if snap[0].Replica == nil {
		t.Fatal("accounts should have a replica state")
	}
	if snap[0].Replica.LastSync != 10 {
		t.Errorf("LastSync = %v, want 10", snap[0].Replica.LastSync)
	}
	if len(snap[0].Replica.NextSyncs) != 1 || snap[0].Replica.NextSyncs[0] != 20 {
		t.Errorf("NextSyncs = %v", snap[0].Replica.NextSyncs)
	}
	if snap[1].Replica != nil {
		t.Error("trades should not have a replica state")
	}
	if _, err := catalog.Snapshot([]core.TableID{"missing"}, 0, 0); err == nil {
		t.Error("unknown table accepted")
	}
	all, err := catalog.Snapshot(catalog.Placement().Tables(), 12, 0)
	if err != nil || len(all) != 2 {
		t.Errorf("Snapshot of every placed table = %v, %v", all, err)
	}
}

func TestNewCatalogRejectsUnplacedReplica(t *testing.T) {
	placement, _ := NewPlacement(map[core.TableID]core.SiteID{"a": 1})
	mgr := replication.NewManager()
	if err := mgr.Register("ghost", replication.Schedule{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCatalog(placement, mgr); err == nil {
		t.Error("replicated-but-unplaced table accepted")
	}
}

// downSites is a site-health stub: the sites it holds are down at every
// instant, as the live server's open breakers are.
type downSites map[core.SiteID]bool

func (d downSites) SiteDown(site core.SiteID, _ core.Time) bool { return d[site] }

// The catalog marks BaseDown from its one site-health source, whichever
// leg supplies it: the DES's outage schedule (a synth.Workload) or the
// live server's breakers (the stub). Inside a window every table of the
// down site is marked and no other table is; outside it none is; with no
// source none is. Reading the source allocates nothing.
func TestCatalogMarksDownSitesBaseDown(t *testing.T) {
	tables := []core.TableID{"accounts", "trades"} // sites 1 and 2
	schedule := &synth.Workload{Outages: []synth.Outage{{Site: 1, Start: 10, End: 20}}}
	for _, tc := range []struct {
		name   string
		health SiteHealth
		at     core.Time
		down   core.SiteID // 0: no site is down
	}{
		{"schedule, inside the window", schedule, 15, 1},
		{"schedule, at the window's start", schedule, 10, 1},
		{"schedule, before the window", schedule, 5, 0},
		{"schedule, at the window's exclusive end", schedule, 20, 0},
		{"stub", downSites{2: true}, 15, 2},
		{"no source", nil, 15, 0},
	} {
		catalog, _ := buildTestWorld(t)
		catalog.WatchSites(tc.health)
		snap, err := catalog.Snapshot(tables, tc.at, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range snap {
			if ts.BaseDown != (ts.Site == tc.down) {
				t.Errorf("%s: table %s on site %d has BaseDown %v", tc.name, ts.ID, ts.Site, ts.BaseDown)
			}
			if down := catalog.SiteDown(ts.Site, tc.at); down != ts.BaseDown {
				t.Errorf("%s: SiteDown(%d) = %v, the snapshot says %v", tc.name, ts.Site, down, ts.BaseDown)
			}
		}
	}

	plain, _ := buildTestWorld(t)
	allocs := func(c *Catalog) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := c.Snapshot(tables, 15, 100); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(plain)
	for _, h := range []SiteHealth{schedule, downSites{1: true}} {
		watched, _ := buildTestWorld(t)
		watched.WatchSites(h)
		if n := allocs(watched); n > base {
			t.Errorf("a snapshot reading %T allocates %.0f times, %.0f without a source", h, n, base)
		}
	}
}
