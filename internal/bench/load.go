package bench

import (
	"fmt"

	"ivdss/internal/core"
	"ivdss/internal/scheduler"
)

// LoadConfig parameterizes the admission-control load experiment: a
// Poisson TPC-H stream pushed through a value-shedding dispatcher at an
// arrival rate chosen to overload the slots, so the run reports both the
// throughput the system sustains and the work it refuses.
type LoadConfig struct {
	Scale     float64       // TPC-H generator scale (weights calibration)
	NQueries  int           // arrivals in the stream
	QueryMean core.Duration // mean interarrival, experiment minutes
	SyncMean  core.Duration // mean replica synchronization cycle
	Rates     core.DiscountRates
	// Epsilon is the value-expiry threshold: queries whose IV is projected
	// to fall below it are shed from the queue. Zero disables shedding.
	Epsilon        float64
	Slots          int
	Aging          core.Aging
	Sites          int
	Replicas       int
	PlannerHorizon core.Duration
	Seed           int64
	// MQOWindow is the continuous micro-batch window (experiment minutes)
	// used by the live-path comparison: the same stream is replayed through
	// the engine in plain FIFO order and with micro-batch MQO, and both
	// totals are reported. Zero skips the comparison.
	MQOWindow core.Duration
	// GA parameterizes the workload ordering in the MQO variant.
	GA scheduler.GAConfig
	// Sync parameterizes the replication-cadence comparison that rides
	// along in the same artifact (seed is overridden with Seed). A zero
	// Tables count falls back to DefaultSyncConfig.
	Sync SyncConfig
}

// DefaultLoadConfig overloads one slot several times over, so both
// shedding and the scheduling policy (which queries win the slot) are
// visible in the totals.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Scale:          1,
		NQueries:       110,
		QueryMean:      10,
		SyncMean:       25,
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		Epsilon:        .25,
		Slots:          1,
		Aging:          core.Aging{Coefficient: .05, Exponent: 1.5},
		Sites:          4,
		Replicas:       5,
		PlannerHorizon: 30,
		Seed:           1,
		MQOWindow:      10,
		GA:             scheduler.GAConfig{Seed: 1},
		Sync:           DefaultSyncConfig(),
	}
}

// QuickLoadConfig is a scaled-down variant for tests.
func QuickLoadConfig() LoadConfig {
	cfg := DefaultLoadConfig()
	cfg.NQueries = 30
	cfg.Sync = QuickSyncConfig()
	return cfg
}

// LoadResult is the machine-readable outcome of one load run — the shape
// written to BENCH_<date>.json so the repo's bench trajectory is
// comparable across commits.
type LoadResult struct {
	Date       string  `json:"date,omitempty"` // stamped by the caller
	Queries    int     `json:"queries"`
	Completed  int     `json:"completed"`
	Shed       int     `json:"shed"`
	Epsilon    float64 `json:"epsilon"`
	Slots      int     `json:"slots"`
	Seed       int64   `json:"seed"`
	Throughput float64 `json:"throughput_per_minute"` // completed reports per experiment minute
	MeanCL     float64 `json:"mean_cl_minutes"`
	P95CL      float64 `json:"p95_cl_minutes"`
	MeanSL     float64 `json:"mean_sl_minutes"`
	P95SL      float64 `json:"p95_sl_minutes"`
	TotalIV    float64 `json:"total_iv"`
	MeanIV     float64 `json:"mean_iv"` // over completed reports

	// Live-path comparison: the same stream replayed through the shared
	// scheduling engine in plain FIFO submission order versus continuous
	// micro-batch MQO (window formation + GA ordering + value-ranked
	// dispatch with aging). Present when MQOWindow > 0.
	MQOWindowMinutes float64 `json:"mqo_window_minutes,omitempty"`
	FIFOCompleted    int     `json:"fifo_completed,omitempty"`
	FIFOShed         int     `json:"fifo_shed,omitempty"`
	FIFOTotalIV      float64 `json:"fifo_total_iv,omitempty"`
	MQOCompleted     int     `json:"mqo_completed,omitempty"`
	MQOShed          int     `json:"mqo_shed,omitempty"`
	MQOTotalIV       float64 `json:"mqo_total_iv,omitempty"`
	// MQOGainPct is (MQOTotalIV - FIFOTotalIV) / FIFOTotalIV × 100.
	MQOGainPct float64 `json:"mqo_gain_pct,omitempty"`

	// Replication cadence comparison (the replsync engine on the DES): the
	// same skewed stream scored under a static uniform sync cadence versus
	// the IV-adaptive controller, plus the adaptive run's traffic counters.
	SyncStaticTotalIV       float64 `json:"sync_static_total_iv"`
	SyncAdaptiveTotalIV     float64 `json:"sync_adaptive_total_iv"`
	SyncAdaptiveGainPct     float64 `json:"sync_adaptive_gain_pct"`
	SyncsTotal              float64 `json:"syncs_total"`
	SyncBytesTotal          float64 `json:"sync_bytes_total"`
	SyncDeferredTotal       float64 `json:"sync_deferred_total"`
	CadenceAdjustmentsTotal float64 `json:"cadence_adjustments_total"`
}

// RunLoad executes the experiment: the full IVQP stack (planner, catalog,
// dispatcher) under an overloading stream, with the dispatcher shedding
// queries whose value horizon passes while they wait.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	var res LoadResult
	world, err := NewTPCHWorld(cfg.Scale, cfg.Seed)
	if err != nil {
		return res, err
	}
	queries, weights, err := world.Stream(cfg.NQueries, cfg.QueryMean, cfg.Seed+2)
	if err != nil {
		return res, err
	}
	cost := world.CostModel(weights)
	horizon := queries[len(queries)-1].SubmitAt + core.Time(cfg.NQueries)*cfg.QueryMean*4 + 1000
	depCfg := DeployConfig{
		Tables:          world.Tables,
		Sites:           cfg.Sites,
		ReplicaCount:    cfg.Replicas,
		SyncMean:        cfg.SyncMean,
		ScheduleHorizon: horizon,
		InitialSync:     true,
		Seed:            cfg.Seed,
	}
	// variant replays the stream through the scheduling engine on virtual
	// time under one dispatch policy. Each variant gets a fresh deployment
	// so no state leaks between runs.
	variant := func(policy func(*scheduler.EngineConfig)) ([]scheduler.Outcome, error) {
		dep, err := BuildDeployment(depCfg)
		if err != nil {
			return nil, err
		}
		strategy, err := dep.Strategy(MethodIVQP, cost, cfg.Rates, cfg.PlannerHorizon)
		if err != nil {
			return nil, err
		}
		ecfg := scheduler.EngineConfig{Strategy: strategy, Rates: cfg.Rates, Slots: cfg.Slots, HaltOnPlanError: true}
		policy(&ecfg)
		outcomes, _, err := replay(ecfg, cfg.Epsilon, queries)
		return outcomes, err
	}

	// The headline run: value-ranked dispatch with aging, one arrival at a
	// time.
	outcomes, err := variant(func(e *scheduler.EngineConfig) { e.Aging = cfg.Aging })
	if err != nil {
		return res, err
	}
	sum := summarize(outcomes)
	makespan := core.Time(0)
	for _, o := range outcomes {
		if finish := o.Query.SubmitAt + o.Latencies.CL; !o.Expired && finish > makespan {
			makespan = finish
		}
	}
	res.Queries = len(queries)
	res.Completed, res.Shed = sum.Completed, sum.Shed
	res.Epsilon = cfg.Epsilon
	res.Slots = cfg.Slots
	res.Seed = cfg.Seed
	if makespan > 0 {
		res.Throughput = float64(res.Completed) / makespan
	}
	res.MeanCL, res.P95CL = sum.MeanCL, sum.P95CL
	res.MeanSL, res.P95SL = sum.MeanSL, sum.P95SL
	res.TotalIV, res.MeanIV = sum.TotalIV, sum.MeanIV

	// Live-path ablation: the identical stream through the live DSS
	// server's scheduling core (minus the network), once in plain FIFO
	// submission order (the old live server path), once with continuous
	// micro-batch MQO (window formation, GA ordering, value-ranked dispatch
	// with aging).
	if cfg.MQOWindow > 0 {
		outcomes, err := variant(func(e *scheduler.EngineConfig) { e.FIFO = true })
		if err != nil {
			return res, err
		}
		fifo := summarize(outcomes)
		outcomes, err = variant(func(e *scheduler.EngineConfig) {
			e.Aging = cfg.Aging
			e.Window = cfg.MQOWindow
			e.GA = cfg.GA
		})
		if err != nil {
			return res, err
		}
		mqo := summarize(outcomes)
		res.MQOWindowMinutes = float64(cfg.MQOWindow)
		res.FIFOCompleted, res.FIFOShed, res.FIFOTotalIV = fifo.Completed, fifo.Shed, fifo.TotalIV
		res.MQOCompleted, res.MQOShed, res.MQOTotalIV = mqo.Completed, mqo.Shed, mqo.TotalIV
		if fifo.TotalIV > 0 {
			res.MQOGainPct = (mqo.TotalIV - fifo.TotalIV) / fifo.TotalIV * 100
		}
	}

	// Replication cadence comparison: static uniform versus IV-adaptive
	// sync under a skewed workload, recorded in the same artifact so the
	// trajectory of both results is comparable across commits.
	syncCfg := cfg.Sync
	if syncCfg.Tables == 0 {
		syncCfg = DefaultSyncConfig()
	}
	syncCfg.Seed = cfg.Seed
	syncRes, err := RunSync(syncCfg)
	if err != nil {
		return res, err
	}
	res.SyncStaticTotalIV = syncRes.Static.TotalIV
	res.SyncAdaptiveTotalIV = syncRes.Adaptive.TotalIV
	res.SyncAdaptiveGainPct = syncRes.GainPct
	res.SyncsTotal = syncRes.Adaptive.Syncs
	res.SyncBytesTotal = syncRes.Adaptive.SyncBytes
	res.SyncDeferredTotal = syncRes.Adaptive.SyncDeferred
	res.CadenceAdjustmentsTotal = syncRes.Adaptive.CadenceAdjustments
	return res, nil
}

// Tables renders the run as summary tables.
func (r LoadResult) Tables() []Table {
	tables := []Table{{
		Title:   fmt.Sprintf("Load: admission control under overload (epsilon=%g, %d slots)", r.Epsilon, r.Slots),
		Columns: []string{"queries", "completed", "shed", "throughput/min", "mean CL", "p95 CL", "mean SL", "p95 SL", "mean IV", "total IV"},
		Rows: [][]string{{
			fmt.Sprintf("%d", r.Queries),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Shed),
			f3(r.Throughput),
			f1(r.MeanCL), f1(r.P95CL),
			f1(r.MeanSL), f1(r.P95SL),
			f3(r.MeanIV), f3(r.TotalIV),
		}},
	}}
	if r.MQOWindowMinutes > 0 {
		tables = append(tables, Table{
			Title:   fmt.Sprintf("Live path: FIFO vs continuous micro-batch MQO (window=%g min)", r.MQOWindowMinutes),
			Columns: []string{"variant", "completed", "shed", "total IV"},
			Rows: [][]string{
				{"fifo", fmt.Sprintf("%d", r.FIFOCompleted), fmt.Sprintf("%d", r.FIFOShed), f3(r.FIFOTotalIV)},
				{"mqo", fmt.Sprintf("%d", r.MQOCompleted), fmt.Sprintf("%d", r.MQOShed), f3(r.MQOTotalIV)},
				{"gain", "", "", fmt.Sprintf("%+.1f%%", r.MQOGainPct)},
			},
		})
	}
	if r.SyncsTotal > 0 {
		tables = append(tables, Table{
			Title:   "Replication cadence: static uniform vs IV-adaptive",
			Columns: []string{"variant", "total IV", "syncs", "bytes", "deferred", "adjusts"},
			Rows: [][]string{
				{"static", f3(r.SyncStaticTotalIV), "", "", "", ""},
				{"adaptive", f3(r.SyncAdaptiveTotalIV),
					fmt.Sprintf("%.0f", r.SyncsTotal),
					fmt.Sprintf("%.0f", r.SyncBytesTotal),
					fmt.Sprintf("%.0f", r.SyncDeferredTotal),
					fmt.Sprintf("%.0f", r.CadenceAdjustmentsTotal)},
				{"gain", fmt.Sprintf("%+.1f%%", r.SyncAdaptiveGainPct), "", "", "", ""},
			},
		})
	}
	return tables
}
