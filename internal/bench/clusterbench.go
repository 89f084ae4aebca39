package bench

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"ivdss/internal/advisor"
	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/federation"
	"ivdss/internal/scheduler"
	"ivdss/internal/sim"
	"ivdss/internal/stats"
	"ivdss/internal/synth"
)

// ClusterScenarioConfig runs one scenario through an N-shard front-end
// cluster on the DES: every shard is a full scheduler.Engine with its own
// advisor-placed replica set, queries route by the consistent shard map,
// gossip exchanges queue depths and replica freshness between shards, and
// a backed-up shard steals to the least-loaded covering peer. Per-shard
// resources (Slots, MaxQueue, replica budget) are held fixed as the shard
// count grows — the scaling curve measures the cluster layer, not bigger
// boxes.
type ClusterScenarioConfig struct {
	ScenarioConfig
	// Shards is the front-end count (≥ 1).
	Shards int
	// GossipInterval is the mean anti-entropy round gap in experiment
	// minutes (default 1), spread by the gossiper's default jitter.
	GossipInterval core.Duration
	// StealHighWater hands arrivals to a covering peer once the home
	// shard's queue reaches this depth; 0 disables work-stealing.
	StealHighWater int
	// TenantWeights, when non-nil, assigns every query a tenant (stable
	// hash of its ID over the weight keys) and turns queue-full refusal
	// into weighted fair eviction via cluster.Budgets.
	TenantWeights map[string]float64
}

// The replica advisor sees at most advisorProbe of a shard's routed
// queries and draws advisorSamples staleness scenarios per query.
const (
	advisorProbe   = 40
	advisorSamples = 2
)

// ClusterShardResult is one shard's slice of a cluster run.
type ClusterShardResult struct {
	Shard       int     `json:"shard"`
	Routed      int     `json:"routed"`
	StolenOut   int     `json:"stolen_out"`
	StolenIn    int     `json:"stolen_in"`
	Completed   int     `json:"completed"`
	Shed        int     `json:"shed"`
	Unplannable int     `json:"unplannable"`
	TotalIV     float64 `json:"total_iv"`
	Replicas    int     `json:"replicas"`
}

// ClusterScenarioResult aggregates one cluster size's run.
type ClusterScenarioResult struct {
	Name         string               `json:"name"`
	Shards       int                  `json:"shards"`
	Queries      int                  `json:"queries"`
	Completed    int                  `json:"completed"`
	Shed         int                  `json:"shed"`
	Unplannable  int                  `json:"unplannable"`
	TotalIV      float64              `json:"total_iv"`
	MeanIV       float64              `json:"mean_iv"`
	IVPerShard   float64              `json:"iv_per_shard"`
	MeanCL       float64              `json:"mean_cl_minutes"`
	P95CL        float64              `json:"p95_cl_minutes"`
	P99CL        float64              `json:"p99_cl_minutes"`
	Stolen       int                  `json:"stolen"`
	GossipRounds int                  `json:"gossip_rounds"`
	PerShard     []ClusterShardResult `json:"per_shard"`
	// TenantIV/TenantShed break completions down per tenant when tenant
	// budgets are active.
	TenantIV   map[string]float64 `json:"tenant_iv,omitempty"`
	TenantShed map[string]int     `json:"tenant_shed,omitempty"`
	// row is the run folded exactly as RunScenario folds a standalone run;
	// the summary fields above are copied from it.
	row ScenarioResult
}

// clusterShard is one assembled front-end: engine, catalog, gossip.
type clusterShard struct {
	id       cluster.ShardID
	engine   *scheduler.Engine
	catalog  *federation.Catalog
	replicas []core.TableID
	gossiper *cluster.Gossiper
	version  atomic.Uint64
	clock    scheduler.Clock
}

// digest cuts the shard's current gossip state: the replicas its catalog
// reports a state for at now, sorted.
func (s *clusterShard) digest() cluster.Digest {
	var replicas []core.TableID
	if snap, err := s.catalog.Snapshot(s.replicas, s.clock.Now(), 0); err == nil {
		for _, ts := range snap {
			if ts.Replica != nil {
				replicas = append(replicas, ts.ID)
			}
		}
	}
	slices.Sort(replicas)
	return cluster.Digest{
		Node:       s.id,
		Version:    s.version.Add(1),
		QueueDepth: s.engine.QueueLen(),
		Replicas:   replicas,
	}
}

// desTransport gossips by calling the peer's handler directly on the
// shared sim clock — zero wire latency, staleness comes from the round
// intervals alone.
type desTransport struct {
	shards []*clusterShard
	rounds atomic.Int64
}

// Exchange implements cluster.Transport.
func (t *desTransport) Exchange(peer cluster.ShardID, d cluster.Digest) (cluster.Digest, error) {
	if int(peer) < 0 || int(peer) >= len(t.shards) {
		return cluster.Digest{}, fmt.Errorf("bench: gossip to unknown shard %d", peer)
	}
	t.rounds.Add(1)
	return t.shards[peer].gossiper.Handle(d), nil
}

// tenantFor hashes a query onto the sorted tenant names, so the
// assignment is stable across runs and shard counts.
func tenantFor(id string, names []string) string {
	if len(names) == 0 {
		return ""
	}
	return names[stats.FNV1a("tenant:"+id)%uint64(len(names))]
}

// chargingExecutor wraps the DES executor to charge delivered IV against
// tenant budgets at completion time.
type chargingExecutor struct {
	inner   scheduler.Executor
	budgets *cluster.Budgets
}

// Execute implements scheduler.Executor.
func (e chargingExecutor) Execute(d scheduler.Dispatch, done func(core.Outcome)) {
	e.inner.Execute(d, func(o core.Outcome) {
		e.budgets.Charge(o.Query.Tenant, o.Value)
		done(o)
	})
}

// buildClusterShards assembles the per-shard worlds for Shards > 1: a
// shared placement (same seed as the standalone deployment), per-shard
// advisor-placed replica sets over the query sub-stream the shard map
// routes to each shard, and per-shard sync schedules.
func buildClusterShards(cfg ClusterScenarioConfig, wl *synth.Workload, smap *cluster.ShardMap, clock scheduler.Clock) ([]*clusterShard, error) {
	sc := cfg.Scenario
	placement, err := federation.UniformPlacement(wl.Tables, sc.Sites, stats.SubSeed(sc.Seed, "deploy"))
	if err != nil {
		return nil, err
	}
	last := wl.Queries[len(wl.Queries)-1].SubmitAt
	horizon := last*2 + 1000

	routed := make([][]core.Query, cfg.Shards)
	for _, q := range wl.Queries {
		s := smap.ShardOf(q.Tables)
		routed[s] = append(routed[s], q)
	}

	shards := make([]*clusterShard, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		var replicas []core.TableID
		if len(routed[i]) > 0 && sc.Replicas > 0 {
			adv, err := advisor.New(advisor.Config{
				Cost:     cfg.cost(),
				Rates:    cfg.Rates,
				SyncMean: sc.SyncMean,
				Horizon:  cfg.PlannerHorizon,
				Samples:  advisorSamples,
				Seed:     stats.SubSeed(sc.Seed, fmt.Sprintf("advisor:%d", i)),
			})
			if err != nil {
				return nil, err
			}
			probe := routed[i][:min(len(routed[i]), advisorProbe)]
			rec, err := adv.RecommendReplicas(probe, placement, sc.Replicas)
			if err != nil {
				return nil, err
			}
			replicas = rec.Replicas
		}
		dep, err := BuildDeployment(DeployConfig{
			Tables:          wl.Tables,
			placement:       placement,
			Replicas:        replicas,
			SyncMean:        sc.SyncMean,
			ScheduleHorizon: horizon,
			InitialSync:     true,
			Seed:            stats.SubSeed(sc.Seed, fmt.Sprintf("sync:%d", i)),
		})
		if err != nil {
			return nil, err
		}
		dep.Catalog.WatchSites(wl)
		shards[i] = &clusterShard{
			id:       cluster.ShardID(i),
			catalog:  dep.Catalog,
			replicas: dep.Replicas,
			clock:    clock,
		}
	}
	return shards, nil
}

// RunClusterScenario replays one scenario through an N-shard cluster on
// virtual time. Shards == 1 reuses the standalone scenario world verbatim
// (gossip and stealing have no peers), so a single-shard cluster is the
// standalone engine plus an inert cluster layer — the twin the
// equivalence gate pins.
func RunClusterScenario(cfg ClusterScenarioConfig) (ClusterScenarioResult, error) {
	var res ClusterScenarioResult
	if cfg.Shards < 1 {
		return res, fmt.Errorf("bench: cluster needs at least one shard, got %d", cfg.Shards)
	}
	sc := cfg.Scenario
	wl, err := sc.Generate()
	if err != nil {
		return res, err
	}
	smap, err := cluster.NewShardMap(cfg.Shards)
	if err != nil {
		return res, err
	}
	s := sim.New()
	clock := scheduler.SimClock{Sim: s}

	var shards []*clusterShard
	if cfg.Shards == 1 {
		// The standalone world, byte for byte: same deployment seed, same
		// replica selection, same sync schedules as RunScenario.
		world, err := BuildScenarioWorld(cfg.ScenarioConfig)
		if err != nil {
			return res, err
		}
		wl = world.Workload
		shards = []*clusterShard{{
			id:       0,
			catalog:  world.Deployment.Catalog,
			replicas: world.Deployment.Replicas,
			clock:    clock,
		}}
	} else {
		shards, err = buildClusterShards(cfg, wl, smap, clock)
		if err != nil {
			return res, err
		}
	}

	// Tenant budgets: decorate the stream and install the victim policy.
	var budgets *cluster.Budgets
	var tenantNames []string
	if len(cfg.TenantWeights) > 0 {
		for name := range cfg.TenantWeights {
			tenantNames = append(tenantNames, name)
		}
		sort.Strings(tenantNames)
		budgets, err = cluster.NewBudgets(cluster.BudgetConfig{
			Weights: cfg.TenantWeights,
			Now:     clock.Now,
		})
		if err != nil {
			return res, err
		}
	}

	// Engines and strategies per shard.
	for _, sh := range shards {
		strategy, err := cfg.strategy(sh.catalog)
		if err != nil {
			return res, err
		}
		ecfg := cfg.engine(strategy)
		ecfg.Clock = clock
		ecfg.Executor = scheduler.PlanExecutor{Clock: clock, Rates: cfg.Rates}
		ecfg.RecordOutcomes = true
		if budgets != nil {
			ecfg.Executor = chargingExecutor{inner: ecfg.Executor, budgets: budgets}
			ecfg.Victim = budgets.Victim
		}
		eng, err := scheduler.NewEngine(ecfg)
		if err != nil {
			return res, err
		}
		eng.SetEpsilon(cfg.Epsilon)
		sh.engine = eng
	}

	// Gossip between shards, seeded and jittered on the sim clock.
	transport := &desTransport{shards: shards}
	interval := cfg.GossipInterval
	if interval <= 0 {
		interval = 1
	}
	if cfg.Shards > 1 {
		// Rounds stop after the last arrival: gossip only informs steal
		// decisions, which happen at arrival times, and the DES needs its
		// event queue to drain.
		until := wl.Queries[len(wl.Queries)-1].SubmitAt + core.Time(interval)
		for i, sh := range shards {
			var peers []cluster.ShardID
			for j := range shards {
				if j != i {
					peers = append(peers, cluster.ShardID(j))
				}
			}
			g, err := cluster.NewGossiper(cluster.GossipConfig{
				Self:      sh.id,
				Peers:     peers,
				Clock:     clock,
				Transport: transport,
				State:     sh.digest,
				Interval:  interval,
				Seed:      stats.SubSeed(sc.Seed, "gossip"),
				Until:     until,
			})
			if err != nil {
				return res, err
			}
			sh.gossiper = g
			g.Start()
		}
	}

	// The arrival schedule: route by footprint, steal when backed up.
	steal := cluster.StealConfig{HighWater: cfg.StealHighWater, MaxAge: 5 * interval}
	refused := 0
	refusedTenant := map[string]int{}
	routedCount := make([]int, cfg.Shards)
	stolenOut := make([]int, cfg.Shards)
	stolenIn := make([]int, cfg.Shards)
	for _, q := range wl.Queries {
		if budgets != nil {
			q.Tenant = tenantFor(q.ID, tenantNames)
		}
		s.ScheduleAt(q.SubmitAt, func() {
			home := smap.ShardOf(q.Tables)
			routedCount[home]++
			target := home
			if cfg.Shards > 1 && cfg.StealHighWater > 0 {
				if t, ok := cluster.ChooseTarget(shards[home].gossiper.Table(), shards[home].engine.QueueLen(), q.Tables, clock.Now(), steal); ok {
					target = t
					stolenOut[home]++
					stolenIn[target]++
				}
			}
			if !shards[target].engine.Submit(q, nil) {
				refused++
				if budgets != nil {
					refusedTenant[q.Tenant]++
				}
			}
		})
	}
	s.Run()
	for _, sh := range shards {
		if sh.gossiper != nil {
			sh.gossiper.Stop()
		}
		if err := sh.engine.Err(); err != nil {
			return res, err
		}
		if p := sh.engine.Pending(); p != 0 {
			return res, fmt.Errorf("bench: cluster scenario %s shard %d left %d queries pending", sc.Name, sh.id, p)
		}
	}

	// Accounting: per-shard and whole-run totals come from the shared
	// outcome fold; only the tenant breakdown and the p99 tail, which no
	// standalone run reports, are gathered here.
	res.Shards = cfg.Shards
	res.GossipRounds = int(transport.rounds.Load())
	if budgets != nil {
		res.TenantIV = map[string]float64{}
		res.TenantShed = refusedTenant
	}
	perEngine := make([][]scheduler.Outcome, len(shards))
	var cls []float64
	for i, sh := range shards {
		perEngine[i] = sh.engine.Outcomes()
		sum := summarize(perEngine[i])
		res.PerShard = append(res.PerShard, ClusterShardResult{
			Shard:       i,
			Routed:      routedCount[i],
			StolenOut:   stolenOut[i],
			StolenIn:    stolenIn[i],
			Completed:   sum.Completed,
			Shed:        sum.Shed,
			Unplannable: sum.Unplannable,
			TotalIV:     sum.TotalIV,
			Replicas:    len(sh.replicas),
		})
		res.Stolen += stolenOut[i]
		for _, o := range perEngine[i] {
			switch {
			case o.Err != nil:
			case o.Expired:
				if budgets != nil {
					res.TenantShed[o.Query.Tenant]++
				}
			default:
				cls = append(cls, o.Latencies.CL)
				if budgets != nil {
					res.TenantIV[o.Query.Tenant] += o.Value
				}
			}
		}
	}
	res.row = scenarioRow(sc, wl, refused, perEngine...)
	res.Name, res.Queries = res.row.Name, res.row.Queries
	res.Completed, res.Shed, res.Unplannable = res.row.Completed, res.row.Shed, res.row.Unplannable
	res.TotalIV, res.MeanIV = res.row.TotalIV, res.row.MeanIV
	res.MeanCL, res.P95CL = res.row.MeanCL, res.row.P95CL
	res.IVPerShard = res.TotalIV / float64(cfg.Shards)
	if len(cls) > 0 {
		res.P99CL = stats.Percentile(cls, 99)
	}
	return res, nil
}

// ClusterScenario is the saturating skewed workload the cluster figure
// drives: steady-zipf's world (60 tables, 5 sites, zipf 1.5, 8-replica
// budget) under an arrival rate far past a single shard's capacity —
// 10⁵ simulated users on the full run — so total IV is admission-bound
// and the scaling curve measures how much value extra shards recover.
// It is deliberately not a registry preset: the matrix baseline stays
// untouched.
func ClusterScenario(quick bool) synth.Scenario {
	sc := synth.Scenario{
		Name:              "cluster-zipf",
		Description:       "saturating steady arrivals over zipf-hot tables, shard-map routed",
		Tables:            60,
		Sites:             5,
		Replicas:          8,
		SyncMean:          120,
		NQueries:          100000,
		MaxTablesPerQuery: 4,
		Skew:              1.5,
		Arrival:           synth.ArrivalSpec{Shape: synth.ArrivalSteady, Mean: .05},
		Horizon:           synth.HorizonSpec{TightFraction: .3, TightValue: .4, LaxValue: 1},
	}
	if quick {
		sc.NQueries = 2400
	}
	return sc
}

// ClusterSizes is the shard-count sweep the figure records.
func ClusterSizes() []int { return []int{1, 2, 4, 8} }

// ClusterBenchResult is the -fig cluster artifact. Its "scenarios" key
// lists the standalone run plus one rollup per cluster size in the same
// shape as the matrix suite, so the existing -compare regression gate
// diffs it unchanged; the richer per-size breakdowns ride alongside.
type ClusterBenchResult struct {
	Date      string           `json:"date,omitempty"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
	// Sizes holds the full per-size cluster results, standalone excluded.
	Sizes []ClusterScenarioResult `json:"sizes"`
	// Tenant is the largest size re-run with weighted tenant budgets, to
	// show weighted fair shedding at work.
	Tenant *ClusterScenarioResult `json:"tenant,omitempty"`
	// ScalingIV14 is TotalIV(4 shards) / TotalIV(1 shard); the acceptance
	// gate requires ≥ 1.7.
	ScalingIV14 float64 `json:"scaling_iv_1_to_4"`
	// TwinDeltaPct is |IV(cluster-1) − IV(standalone)| / IV(standalone)
	// in percent; the acceptance gate requires ≤ 1.
	TwinDeltaPct float64 `json:"twin_delta_pct"`
}

// clusterKnobs is the fixed per-shard operating point of the figure.
func clusterKnobs(sc synth.Scenario) ClusterScenarioConfig {
	base := DefaultScenarioConfig(sc)
	base.MaxQueue = 64
	return ClusterScenarioConfig{
		ScenarioConfig: base,
		GossipInterval: 1,
		StealHighWater: 48,
	}
}

// rollup is the run as a matrix suite row: every field a standalone run
// reports, under the cluster size's name.
func (r ClusterScenarioResult) rollup() ScenarioResult {
	row := r.row
	row.Name = fmt.Sprintf("cluster-%d", r.Shards)
	return row
}

// RunClusterFig produces the cluster scaling figure: the standalone
// engine, the 1/2/4/8-shard sweep, and a tenant-budget run at the largest
// size, all on one seeded scenario.
func RunClusterFig(seed int64, quick bool) (ClusterBenchResult, error) {
	var out ClusterBenchResult
	sc := ClusterScenario(quick)
	sc.Seed = synth.SubSeedFor(seed, sc.Name)
	out.Seed = seed
	out.Quick = quick

	knobs := clusterKnobs(sc)
	standalone, err := RunScenario(knobs.ScenarioConfig)
	if err != nil {
		return out, fmt.Errorf("bench: cluster standalone twin: %w", err)
	}
	standalone.Name = "standalone"
	out.Scenarios = append(out.Scenarios, standalone)

	byShards := map[int]float64{}
	for _, n := range ClusterSizes() {
		cfg := knobs
		cfg.Shards = n
		res, err := RunClusterScenario(cfg)
		if err != nil {
			return out, fmt.Errorf("bench: cluster size %d: %w", n, err)
		}
		out.Sizes = append(out.Sizes, res)
		out.Scenarios = append(out.Scenarios, res.rollup())
		byShards[n] = res.TotalIV
	}
	if byShards[1] > 0 {
		out.ScalingIV14 = byShards[4] / byShards[1]
	}
	if standalone.TotalIV > 0 {
		delta := byShards[1] - standalone.TotalIV
		if delta < 0 {
			delta = -delta
		}
		out.TwinDeltaPct = delta / standalone.TotalIV * 100
	}

	// Weighted fair shedding demo: the largest size with a 3:2:1 tenant
	// weight split.
	tcfg := knobs
	tcfg.Shards = ClusterSizes()[len(ClusterSizes())-1]
	tcfg.TenantWeights = map[string]float64{"gold": 3, "silver": 2, "bronze": 1}
	tenant, err := RunClusterScenario(tcfg)
	if err != nil {
		return out, fmt.Errorf("bench: cluster tenant run: %w", err)
	}
	out.Tenant = &tenant
	return out, nil
}

// Tables renders the figure.
func (r ClusterBenchResult) Tables() []Table {
	t := Table{
		Title:   fmt.Sprintf("Cluster scaling on %s (seed=%d, quick=%v): fixed per-shard resources", ClusterScenario(r.Quick).Name, r.Seed, r.Quick),
		Columns: []string{"config", "queries", "completed", "shed", "total IV", "IV/shard", "p95 CL", "p99 CL", "stolen", "gossip"},
	}
	for _, s := range r.Scenarios {
		if s.Name != "standalone" {
			continue
		}
		t.Rows = append(t.Rows, []string{
			"standalone",
			fmt.Sprintf("%d", s.Queries),
			fmt.Sprintf("%d", s.Completed),
			fmt.Sprintf("%d", s.Shed),
			f3(s.TotalIV),
			f3(s.TotalIV),
			f1(s.P95CL),
			"-",
			"-",
			"-",
		})
	}
	for _, s := range r.Sizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d shard(s)", s.Shards),
			fmt.Sprintf("%d", s.Queries),
			fmt.Sprintf("%d", s.Completed),
			fmt.Sprintf("%d", s.Shed),
			f3(s.TotalIV),
			f3(s.IVPerShard),
			f1(s.P95CL),
			f1(s.P99CL),
			fmt.Sprintf("%d", s.Stolen),
			fmt.Sprintf("%d", s.GossipRounds),
		})
	}
	tables := []Table{t}
	if r.Tenant != nil && len(r.Tenant.TenantIV) > 0 {
		tt := Table{
			Title:   fmt.Sprintf("Weighted fair shedding (%d shards, weights gold=3 silver=2 bronze=1)", r.Tenant.Shards),
			Columns: []string{"tenant", "delivered IV", "shed"},
		}
		names := make([]string, 0, len(r.Tenant.TenantIV))
		for n := range r.Tenant.TenantIV {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tt.Rows = append(tt.Rows, []string{n, f3(r.Tenant.TenantIV[n]), fmt.Sprintf("%d", r.Tenant.TenantShed[n])})
		}
		tables = append(tables, tt)
	}
	return tables
}
