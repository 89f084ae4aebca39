package bench

import (
	"testing"

	"ivdss/internal/synth"
)

// clusterTestScenario is the cluster figure's scenario shrunk to unit-test
// size: still saturating (arrivals far past one shard's capacity) so
// shedding, stealing, and scaling all engage.
func clusterTestScenario(nQueries int) ClusterScenarioConfig {
	sc := ClusterScenario(true)
	sc.NQueries = nQueries
	sc.Seed = synth.SubSeedFor(17, sc.Name)
	return clusterKnobs(sc)
}

// TestOneShardClusterIsTheStandaloneEngine pins the twin-equivalence gate
// at full precision: a 1-shard cluster must replay the scenario through
// the identical world — same deployment, same replica set, same sync
// schedule, same engine decisions — as the standalone RunScenario path,
// bit for bit, not within a tolerance.
func TestOneShardClusterIsTheStandaloneEngine(t *testing.T) {
	knobs := clusterTestScenario(900)

	standalone, err := RunScenario(knobs.ScenarioConfig)
	if err != nil {
		t.Fatal(err)
	}
	cfg := knobs
	cfg.Shards = 1
	twin, err := RunClusterScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if standalone.Completed == 0 || standalone.Shed == 0 {
		t.Fatalf("scenario too tame (completed %d, shed %d): the twin proof must cover shedding",
			standalone.Completed, standalone.Shed)
	}
	// The whole shared summary, not a hand-picked field list: a field added
	// to ScenarioResult is compared the day it is added.
	row := twin.rollup()
	if row.Name != "cluster-1" {
		t.Errorf("rollup name %q, want cluster-1", row.Name)
	}
	row.Name = standalone.Name
	if row != standalone {
		t.Errorf("the worlds diverged:\n  cluster-1:  %+v\n  standalone: %+v", row, standalone)
	}
	if standalone.Seed == 0 || standalone.MeanSL == 0 || standalone.P95SL == 0 {
		t.Errorf("standalone summary has unpopulated fields: %+v", standalone)
	}
	// The artifact's own per-size fields are copies of the same fold.
	if twin.Completed != row.Completed || twin.Shed != row.Shed || twin.Unplannable != row.Unplannable ||
		twin.TotalIV != row.TotalIV || twin.MeanIV != row.MeanIV || twin.MeanCL != row.MeanCL || twin.P95CL != row.P95CL {
		t.Errorf("cluster result disagrees with its own rollup: %+v vs %+v", twin, row)
	}
	if twin.Stolen != 0 || twin.GossipRounds != 0 {
		t.Errorf("1-shard cluster did cluster work: %d steals, %d gossip rounds", twin.Stolen, twin.GossipRounds)
	}
}

// TestClusterScalingRecoversValue is the DES leg's smoke version of the
// scaling gate: under a saturating stream with fixed per-shard resources,
// four shards must deliver materially more total IV than one, and the
// cluster layer (gossip, stealing) must actually engage.
func TestClusterScalingRecoversValue(t *testing.T) {
	knobs := clusterTestScenario(1600)

	one := knobs
	one.Shards = 1
	r1, err := RunClusterScenario(one)
	if err != nil {
		t.Fatal(err)
	}
	four := knobs
	four.Shards = 4
	r4, err := RunClusterScenario(four)
	if err != nil {
		t.Fatal(err)
	}

	if r1.Shed == 0 {
		t.Fatal("one shard sheds nothing: the stream is not saturating and the scaling claim is vacuous")
	}
	if r4.TotalIV < r1.TotalIV*1.3 {
		t.Errorf("4 shards delivered %.3f IV vs %.3f on 1 — no meaningful scaling", r4.TotalIV, r1.TotalIV)
	}
	if r4.GossipRounds == 0 {
		t.Error("no gossip rounds ran in the 4-shard cluster")
	}
	if r4.Stolen == 0 {
		t.Error("no work was stolen under saturation")
	}
	// ROADMAP 5e: multi-shard rollups used to carry structurally zero seed
	// and SL because the cluster leg folded outcomes with its own copy.
	if row := r4.rollup(); row.Seed == 0 || row.MeanSL <= 0 || row.P95SL <= 0 || row.Queries != r4.Queries {
		t.Errorf("cluster-4 rollup has unpopulated fields: %+v", row)
	}
	routed := 0
	for _, sr := range r4.PerShard {
		if sr.Routed > 0 {
			routed++
		}
	}
	if routed < 2 {
		t.Errorf("only %d of 4 shards received routed queries — the shard map collapsed", routed)
	}
}

// TestClusterTenantBudgetsFavorWeight: under saturation with 3:1 tenant
// weights, weighted fair shedding must deliver the heavier tenant more IV
// and shed it proportionally less.
func TestClusterTenantBudgetsFavorWeight(t *testing.T) {
	cfg := clusterTestScenario(1600)
	cfg.Shards = 2
	cfg.TenantWeights = map[string]float64{"gold": 3, "bronze": 1}
	res, err := RunClusterScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TenantIV == nil || res.TenantShed == nil {
		t.Fatal("tenant accounting missing")
	}
	gIV, bIV := res.TenantIV["gold"], res.TenantIV["bronze"]
	gShed, bShed := res.TenantShed["gold"], res.TenantShed["bronze"]
	if gShed+bShed == 0 {
		t.Fatal("nothing shed: weighted fairness never engaged")
	}
	if gIV <= bIV {
		t.Errorf("gold (weight 3) delivered %.3f IV, bronze (weight 1) %.3f — weights had no effect", gIV, bIV)
	}
	if gShed >= bShed {
		t.Errorf("gold shed %d ≥ bronze shed %d under a 3:1 weight split", gShed, bShed)
	}
}
