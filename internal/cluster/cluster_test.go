package cluster

import (
	"fmt"
	"testing"

	"ivdss/internal/core"
)

func tableSet(n int) []core.TableID {
	out := make([]core.TableID, n)
	for i := range out {
		out[i] = core.TableID(fmt.Sprintf("t%02d", i))
	}
	return out
}

func TestShardMapValidation(t *testing.T) {
	if _, err := NewShardMap(0); err == nil {
		t.Error("zero shards accepted")
	}
	m, err := NewShardMap(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 4 {
		t.Errorf("Shards = %d", m.Shards())
	}
}

func TestShardOfIsOrderFree(t *testing.T) {
	m, _ := NewShardMap(4)
	perms := [][]core.TableID{
		{"orders", "lineitem", "customer"},
		{"customer", "orders", "lineitem"},
		{"lineitem", "customer", "orders"},
	}
	want := m.ShardOf(perms[0])
	for _, p := range perms[1:] {
		if got := m.ShardOf(p); got != want {
			t.Errorf("ShardOf(%v) = %d, want %d", p, got, want)
		}
	}
	if m.ShardOf(nil) != 0 {
		t.Error("empty footprint must route to shard 0")
	}
}

// TestShardMapDistribution: rendezvous ownership must spread tables across
// every shard — the exact regression the murmur finalizer fixed, where
// FNV-1a's weak avalanche let one shard win every table.
func TestShardMapDistribution(t *testing.T) {
	m, _ := NewShardMap(4)
	counts := make(map[ShardID]int)
	tables := tableSet(60)
	for _, tbl := range tables {
		counts[m.Owner(tbl)]++
	}
	for s := 0; s < 4; s++ {
		n := counts[ShardID(s)]
		if n == 0 {
			t.Errorf("shard %d owns no tables out of %d", s, len(tables))
		}
		if n > len(tables)*6/10 {
			t.Errorf("shard %d owns %d/%d tables — ownership collapsed onto one shard", s, n, len(tables))
		}
	}
}

// TestAnchorLocality: footprints sharing their anchor table co-locate —
// the property that keeps micro-batch MQO effective across shards.
func TestAnchorLocality(t *testing.T) {
	m, _ := NewShardMap(8)
	fp := []core.TableID{"orders", "lineitem", "part"}
	anchor := m.Anchor(fp)
	if anchor == "" {
		t.Fatal("no anchor for non-empty footprint")
	}
	if got := m.ShardOf([]core.TableID{anchor}); got != m.ShardOf(fp) {
		t.Errorf("anchor-only footprint routes to %d, full footprint to %d", got, m.ShardOf(fp))
	}
	// A different footprint that shares the anchor shares the shard.
	other := []core.TableID{anchor, "nation"}
	if m.Anchor(other) == anchor && m.ShardOf(other) != m.ShardOf(fp) {
		t.Errorf("footprints sharing anchor %s landed on different shards", anchor)
	}
}

// TestRendezvousStability: growing the cluster by one shard may move a
// table only to the new shard, never between surviving shards.
func TestRendezvousStability(t *testing.T) {
	m4, _ := NewShardMap(4)
	m5, _ := NewShardMap(5)
	moved := 0
	tables := tableSet(60)
	for _, tbl := range tables {
		before, after := m4.Owner(tbl), m5.Owner(tbl)
		if after == before {
			continue
		}
		if after != 4 {
			t.Errorf("table %s moved %d→%d on grow; only moves to the new shard are allowed", tbl, before, after)
		}
		moved++
	}
	if moved == 0 {
		t.Error("no table moved to the new shard — rendezvous weights look degenerate")
	}
	if moved > len(tables)/2 {
		t.Errorf("%d/%d tables moved on a 4→5 grow; expected roughly 1/5", moved, len(tables))
	}
}

func TestTableMergeVersionSemantics(t *testing.T) {
	tab := NewTable(0)
	if tab.Merge(Digest{Node: 0, Version: 9}, 1) {
		t.Error("digest about self merged")
	}
	replicas := []core.TableID{"a"}
	if !tab.Merge(Digest{Node: 1, Version: 2, QueueDepth: 3, Replicas: replicas}, 10) {
		t.Error("first digest rejected")
	}
	if tab.Merge(Digest{Node: 1, Version: 2, QueueDepth: 99}, 11) {
		t.Error("equal version superseded the held view")
	}
	if tab.Merge(Digest{Node: 1, Version: 1, QueueDepth: 99}, 12) {
		t.Error("stale version superseded the held view")
	}
	if !tab.Merge(Digest{Node: 1, Version: 3, QueueDepth: 7}, 13) {
		t.Error("newer version rejected")
	}
	v, ok := tab.Peer(1)
	if !ok || v.Version != 3 || v.QueueDepth != 7 || v.ReceivedAt != 13 {
		t.Errorf("held view %+v, want version 3 depth 7 received at 13", v)
	}
	// The merge must have copied the sender's replica list.
	tab.Merge(Digest{Node: 2, Version: 1, Replicas: replicas}, 14)
	replicas[0] = "z"
	if v, _ := tab.Peer(2); v.Replicas[0] != "a" {
		t.Error("merged view aliases the sender's replica list")
	}
	if got := tab.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	peers := tab.Peers()
	if len(peers) != 2 || peers[0].Node != 1 || peers[1].Node != 2 {
		t.Errorf("Peers() not sorted by shard ID: %+v", peers)
	}
}

// stealTable builds a peer table where each peer advertises the given
// queue depth and replica coverage, all received at the given instant.
func stealTable(t *testing.T, self ShardID, views map[ShardID]struct {
	depth    int
	tables   []core.TableID
	received core.Time
}) *Table {
	t.Helper()
	tab := NewTable(self)
	for node, v := range views {
		if !tab.Merge(Digest{Node: node, Version: 1, QueueDepth: v.depth, Replicas: v.tables}, v.received) {
			t.Fatalf("merge for node %d rejected", node)
		}
	}
	return tab
}

func TestChooseTarget(t *testing.T) {
	type view = struct {
		depth    int
		tables   []core.TableID
		received core.Time
	}
	fp := []core.TableID{"a", "b"}
	cfg := StealConfig{HighWater: 10, MaxAge: 5}

	tab := stealTable(t, 0, map[ShardID]view{
		1: {depth: 4, tables: fp, received: 100},
		2: {depth: 2, tables: fp, received: 100},
		3: {depth: 1, tables: []core.TableID{"a"}, received: 100}, // no coverage of b
		4: {depth: 0, tables: fp, received: 50},                   // stale view
	})
	now := core.Time(100)

	if _, ok := ChooseTarget(tab, 9, fp, now, cfg); ok {
		t.Error("stole below the high-water mark")
	}
	if _, ok := ChooseTarget(tab, 12, fp, now, StealConfig{}); ok {
		t.Error("stole with stealing disabled")
	}
	if _, ok := ChooseTarget(tab, 12, nil, now, cfg); ok {
		t.Error("stole an empty footprint")
	}
	got, ok := ChooseTarget(tab, 12, fp, now, cfg)
	if !ok || got != 2 {
		t.Errorf("target = %d ok=%v, want least-loaded covering fresh peer 2", got, ok)
	}

	// A peer at or above the high-water mark is never a target, even when
	// shorter than the local queue.
	hot := stealTable(t, 0, map[ShardID]view{1: {depth: 10, tables: fp, received: 100}})
	if _, ok := ChooseTarget(hot, 15, fp, now, cfg); ok {
		t.Error("dumped work on a peer already at the high-water mark")
	}

	// Ties break to the lowest shard ID so concurrent deciders agree.
	tie := stealTable(t, 0, map[ShardID]view{
		5: {depth: 3, tables: fp, received: 100},
		2: {depth: 3, tables: fp, received: 100},
	})
	if got, ok := ChooseTarget(tie, 12, fp, now, cfg); !ok || got != 2 {
		t.Errorf("tie target = %d ok=%v, want lowest ID 2", got, ok)
	}
}

func TestBudgetsValidation(t *testing.T) {
	if _, err := NewBudgets(BudgetConfig{}); err == nil {
		t.Error("missing clock accepted")
	}
	now := func() core.Time { return 0 }
	if _, err := NewBudgets(BudgetConfig{Now: now, Weights: map[string]float64{"x": -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewBudgets(BudgetConfig{Now: now, HalfLife: -3}); err == nil {
		t.Error("negative half-life accepted")
	}
	b, err := NewBudgets(BudgetConfig{Now: now, Weights: map[string]float64{"gold": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Weight("gold") != 3 || b.Weight("unknown") != 1 {
		t.Errorf("weights: gold=%v unknown=%v", b.Weight("gold"), b.Weight("unknown"))
	}
}

func TestBudgetsVictimWeightedFairness(t *testing.T) {
	now := core.Time(0)
	b, err := NewBudgets(BudgetConfig{
		Weights: map[string]float64{"gold": 3, "bronze": 1},
		Now:     func() core.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	queued := []core.Query{
		{ID: "g", BusinessValue: 1, Tenant: "gold"},
		{ID: "b", BusinessValue: 1, Tenant: "bronze"},
	}
	// Fresh budgets: bronze (weight 1) ranks below gold (weight 3), and a
	// gold arrival outranks it.
	if got := b.Victim(core.Query{BusinessValue: 1, Tenant: "gold"}, queued); got != 1 {
		t.Errorf("victim = %d, want the bronze query at 1", got)
	}
	// An arrival that does not outrank the weakest queued query is refused.
	if got := b.Victim(core.Query{BusinessValue: .1, Tenant: "bronze"}, queued); got != -1 {
		t.Errorf("victim = %d, want -1 for an arrival below the floor", got)
	}
	// Heavy recent gold spend flips the ordering: weighted fairness, not
	// static priority.
	b.Charge("gold", 30)
	if got := b.Victim(core.Query{BusinessValue: 1, Tenant: "bronze"}, queued); got != 0 {
		t.Errorf("victim = %d, want the over-budget gold query at 0", got)
	}
	// Spend decays with the half-life, so a tenant that backs off recovers.
	spent := b.Spent()["gold"]
	now += 60 // the default half-life
	decayed := b.Spent()["gold"]
	if decayed >= spent || decayed < spent*.45 || decayed > spent*.55 {
		t.Errorf("spend %v decayed to %v after one half-life, want ≈ half", spent, decayed)
	}
}
