package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/scheduler"
	"ivdss/internal/stats"
	"ivdss/internal/synth"
)

// ScenarioConfig runs one named synthetic scenario through the full IVQP
// stack on the DES. The scenario supplies the world (tables, arrivals,
// outages); this config supplies the system-under-test knobs, which are
// held fixed across the matrix so results are comparable scenario to
// scenario.
type ScenarioConfig struct {
	Scenario       synth.Scenario
	Rates          core.DiscountRates
	Epsilon        float64
	Slots          int
	Aging          core.Aging
	PlannerHorizon core.Duration
	// MaxQueue bounds the engine's admission queue (0 = unbounded, the
	// historical matrix behavior); arrivals refused at a full queue count
	// as shed. The cluster bench sets it so per-shard resources are fixed.
	MaxQueue int
	// Cost overrides the scenario cost model. Nil uses the standard
	// matrix model calibrated to the VM execution engine; pass a
	// tree-walk-scaled model to reproduce pre-VM totals (the -fig exec
	// IV leg does exactly that comparison).
	Cost core.CostModel
}

// DefaultScenarioConfig wraps a scenario in the matrix's standard
// system-under-test knobs (the same operating point as the load bench).
func DefaultScenarioConfig(sc synth.Scenario) ScenarioConfig {
	return ScenarioConfig{
		Scenario:       sc,
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		Epsilon:        .25,
		Slots:          2,
		Aging:          core.Aging{Coefficient: .05, Exponent: 1.5},
		PlannerHorizon: 30,
	}
}

// ScenarioResult is one scenario's totals — the per-scenario entry of the
// BENCH_<date>.json suite artifact the regression gate diffs.
type ScenarioResult struct {
	Name          string  `json:"name"`
	Seed          int64   `json:"seed"`
	Queries       int     `json:"queries"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	Unplannable   int     `json:"unplannable"`
	TotalIV       float64 `json:"total_iv"`
	MeanIV        float64 `json:"mean_iv"`
	MeanCL        float64 `json:"mean_cl_minutes"`
	P95CL         float64 `json:"p95_cl_minutes"`
	MeanSL        float64 `json:"mean_sl_minutes"`
	P95SL         float64 `json:"p95_sl_minutes"`
	OutageCount   int     `json:"outage_count,omitempty"`
	OutageMinutes float64 `json:"outage_minutes,omitempty"`
}

// ScenarioSuiteResult is the whole matrix in one artifact.
type ScenarioSuiteResult struct {
	Date      string           `json:"date,omitempty"` // stamped by the caller
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// ScenarioCostFor returns the synthetic-table cost model shared by every
// scenario — the Figure 4 shape plus fan-out coordination and flat result
// transmission, so plan choice has all three axes to trade — recalibrated
// for an execution engine: the constants describe the tree-walk engine
// (scale 1); the matrix default shrinks the processing ones by the VM's
// measured speedup (transmission unscaled).
func ScenarioCostFor(scale float64) core.CostModel {
	base := costmodel.CountModel{LocalProcess: 2, PerBaseTable: 3, PerExtraSite: 1, TransmitFlat: 2}
	return base.Scaled(scale)
}

// ScenarioWorld materializes a scenario into everything a driver needs to
// replay it: the generated workload, the deployment (placement, replicas,
// sync schedules, and a catalog that reads the workload's outage
// schedule), and the scheduling strategy. The DES runner below, the
// one-shard cluster twin and the DES-vs-manual-clock equivalence test all
// build on it, so they execute one world.
type ScenarioWorld struct {
	Workload   *synth.Workload
	Deployment *Deployment
	Strategy   *scheduler.IVQPStrategy
}

// BuildScenarioWorld generates and assembles the scenario world.
func BuildScenarioWorld(cfg ScenarioConfig) (*ScenarioWorld, error) {
	sc := cfg.Scenario
	wl, err := sc.Generate()
	if err != nil {
		return nil, err
	}
	last := wl.Queries[len(wl.Queries)-1].SubmitAt
	dep, err := BuildDeployment(DeployConfig{
		Tables:          wl.Tables,
		Sites:           sc.Sites,
		ReplicaCount:    sc.Replicas,
		SyncMean:        sc.SyncMean,
		ScheduleHorizon: last*2 + 1000,
		InitialSync:     true,
		Seed:            stats.SubSeed(sc.Seed, "deploy"),
	})
	if err != nil {
		return nil, err
	}
	dep.Catalog.WatchSites(wl)
	strategy, err := cfg.strategy(dep.Catalog)
	if err != nil {
		return nil, err
	}
	return &ScenarioWorld{Workload: wl, Deployment: dep, Strategy: strategy}, nil
}

// cost is the scenario's cost model: the explicit override, else the
// matrix default calibrated to the VM execution engine.
func (cfg ScenarioConfig) cost() core.CostModel {
	if cfg.Cost != nil {
		return cfg.Cost
	}
	return ScenarioCostFor(costmodel.VMProcessScale)
}

// strategy plans with IVQP over the catalog.
func (cfg ScenarioConfig) strategy(catalog *federation.Catalog) (*scheduler.IVQPStrategy, error) {
	planner, err := core.NewPlanner(cfg.cost(), core.PlannerConfig{Rates: cfg.Rates, Horizon: cfg.PlannerHorizon})
	if err != nil {
		return nil, err
	}
	return &scheduler.IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: cfg.PlannerHorizon}, nil
}

// engine is the matrix's engine policy around a strategy. Plan failures
// are dropped, not fatal (the live contract): outage windows make some
// queries unplannable. The standalone run and every cluster shard mount
// exactly this configuration.
func (cfg ScenarioConfig) engine(strategy scheduler.Strategy) scheduler.EngineConfig {
	return scheduler.EngineConfig{
		Strategy: strategy,
		Rates:    cfg.Rates,
		Slots:    cfg.Slots,
		Aging:    cfg.Aging,
		MaxQueue: cfg.MaxQueue,
	}
}

// RunScenario replays the scenario through the shared scheduling engine
// on virtual time. Outage windows make some queries unplannable (every
// candidate needs a downed base); those are dropped with Outcome.Err —
// the live contract — and counted, not fatal.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	world, err := BuildScenarioWorld(cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	outcomes, refused, err := replay(cfg.engine(world.Strategy), cfg.Epsilon, world.Workload.Queries)
	if err != nil {
		return ScenarioResult{}, err
	}
	return scenarioRow(cfg.Scenario, world.Workload, refused, outcomes), nil
}

// scenarioRow is the matrix row of one replayed workload: the outcome
// summary (arrivals refused at a full queue count as shed) under the
// scenario's identity and outage accounting. The cluster bench builds its
// rows here too, so a cluster row can never lack a field the standalone
// row carries.
func scenarioRow(sc synth.Scenario, wl *synth.Workload, refused int, perEngine ...[]scheduler.Outcome) ScenarioResult {
	res := summarize(perEngine...)
	res.Name = sc.Name
	res.Seed = sc.Seed
	res.Queries = len(wl.Queries)
	res.Shed += refused
	res.OutageCount = len(wl.Outages)
	res.OutageMinutes = wl.OutageMinutes()
	return res
}

// RunScenarios runs the given scenarios (quick variants if asked) with
// the standard knobs and collects the suite artifact. Each scenario's
// master seed is re-derived from the base seed and its name, so one -seed
// knob re-seeds the whole matrix without collapsing the presets onto one
// stream.
func RunScenarios(scenarios []synth.Scenario, quick bool, seed int64) (ScenarioSuiteResult, error) {
	return RunScenariosWithCost(scenarios, quick, seed, nil)
}

// RunScenariosWithCost is RunScenarios under an explicit cost model (nil
// keeps the matrix default). The exec benchmark uses it to run the same
// matrix under tree-walk- and VM-calibrated computation latencies and
// compare total information value.
func RunScenariosWithCost(scenarios []synth.Scenario, quick bool, seed int64, cost core.CostModel) (ScenarioSuiteResult, error) {
	suite := ScenarioSuiteResult{Seed: seed, Quick: quick}
	for _, sc := range scenarios {
		sc.Seed = synth.SubSeedFor(seed, sc.Name)
		if quick {
			sc = sc.Quick()
		}
		cfg := DefaultScenarioConfig(sc)
		cfg.Cost = cost
		res, err := RunScenario(cfg)
		if err != nil {
			return suite, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		suite.Scenarios = append(suite.Scenarios, res)
	}
	return suite, nil
}

// ReadScenarioSuite parses a suite artifact.
func ReadScenarioSuite(r io.Reader) (ScenarioSuiteResult, error) {
	var suite ScenarioSuiteResult
	if err := json.NewDecoder(r).Decode(&suite); err != nil {
		return suite, fmt.Errorf("bench: read scenario suite: %w", err)
	}
	return suite, nil
}

// Tables renders the suite as one summary table.
func (r ScenarioSuiteResult) Tables() []Table {
	t := Table{
		Title:   fmt.Sprintf("Scenario matrix (seed=%d, quick=%v)", r.Seed, r.Quick),
		Columns: []string{"scenario", "queries", "completed", "shed", "unplannable", "total IV", "mean IV", "p95 CL", "outage min"},
	}
	for _, s := range r.Scenarios {
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Queries),
			fmt.Sprintf("%d", s.Completed),
			fmt.Sprintf("%d", s.Shed),
			fmt.Sprintf("%d", s.Unplannable),
			f3(s.TotalIV),
			f3(s.MeanIV),
			f1(s.P95CL),
			f1(s.OutageMinutes),
		})
	}
	return []Table{t}
}
