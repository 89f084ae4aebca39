package bench

import (
	"fmt"

	"ivdss/internal/advisor"
	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/stats"
	"ivdss/internal/synth"
)

// AdvisorConfig parameterizes the placement-advisor experiment: the
// advisor's greedy replication plan versus randomly chosen replica sets of
// the same size, judged by an *independent* dispatcher simulation (not the
// advisor's own scoring model).
type AdvisorConfig struct {
	NTables        int
	Budget         int
	NQueries       int
	MaxTablesPer   int
	QueryMean      core.Duration
	SyncMean       core.Duration
	Rates          core.DiscountRates
	Sites          int
	RandomTrials   int
	PlannerHorizon core.Duration
	// PopularitySkew makes some tables hot (see synth.QueryConfig).
	PopularitySkew float64
	Seed           int64
}

// DefaultAdvisorConfig returns the standard setup.
func DefaultAdvisorConfig() AdvisorConfig {
	return AdvisorConfig{
		NTables:        40,
		Budget:         8,
		NQueries:       80,
		MaxTablesPer:   6,
		QueryMean:      30,
		SyncMean:       15,
		Rates:          core.DiscountRates{CL: .03, SL: .03},
		Sites:          4,
		RandomTrials:   10,
		PlannerHorizon: 30,
		PopularitySkew: 1.4,
		Seed:           1,
	}
}

// AdvisorRow is one replication plan's simulated outcome.
type AdvisorRow struct {
	Plan     string
	MeanIV   float64
	Replicas []core.TableID
}

// AdvisorResult compares the plans.
type AdvisorResult struct {
	Rows []AdvisorRow
	// RandomBest and RandomMean summarize the random trials.
	RandomBest, RandomMean float64
}

// RunAdvisor executes the experiment: generate a workload, let the advisor
// pick `Budget` replicas, then simulate the full query stream under (a) no
// replicas, (b) the advisor's plan, and (c) random same-size plans.
func RunAdvisor(cfg AdvisorConfig) (AdvisorResult, error) {
	var res AdvisorResult
	tables := synth.Tables(cfg.NTables)
	queries, err := synth.Queries(synth.QueryConfig{
		N:                 cfg.NQueries,
		Tables:            tables,
		MaxTablesPerQuery: cfg.MaxTablesPer,
		MeanInterarrival:  cfg.QueryMean,
		PopularitySkew:    cfg.PopularitySkew,
		Seed:              cfg.Seed + 3,
	})
	if err != nil {
		return res, err
	}
	placement, err := federation.UniformPlacement(tables, cfg.Sites, cfg.Seed)
	if err != nil {
		return res, err
	}
	cost := &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2, TransmitFlat: 1}

	adv, err := advisor.New(advisor.Config{
		Cost:     cost,
		Rates:    cfg.Rates,
		SyncMean: cfg.SyncMean,
		Horizon:  cfg.PlannerHorizon,
	})
	if err != nil {
		return res, err
	}
	rec, err := adv.RecommendReplicas(queries, placement, cfg.Budget)
	if err != nil {
		return res, err
	}

	// simulate runs the dispatcher over a deployment with the given
	// replica set and reports the stream's mean information value.
	horizon := queries[len(queries)-1].SubmitAt + core.Time(cfg.NQueries)*cfg.QueryMean*4 + 1000
	simulate := func(replicas []core.TableID) (float64, error) {
		dep, err := BuildDeployment(DeployConfig{
			Tables:          tables,
			placement:       placement,
			Replicas:        replicas,
			SyncMean:        cfg.SyncMean,
			ScheduleHorizon: horizon,
			InitialSync:     true,
			Seed:            cfg.Seed,
		})
		if err != nil {
			return 0, err
		}
		strategy, err := dep.Strategy(MethodIVQP, cost, cfg.Rates, cfg.PlannerHorizon)
		if err != nil {
			return 0, err
		}
		outcomes, err := RunStream(strategy, queries, cfg.Rates, 1, core.Aging{})
		if err != nil {
			return 0, err
		}
		return MeanValue(outcomes), nil
	}

	noneIV, err := simulate(nil)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AdvisorRow{Plan: "no replicas", MeanIV: noneIV})

	advisorIV, err := simulate(rec.Replicas)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AdvisorRow{Plan: "advisor", MeanIV: advisorIV, Replicas: rec.Replicas})

	src := stats.NewSource(cfg.Seed + 9)
	var sum float64
	for trial := 0; trial < cfg.RandomTrials; trial++ {
		picked := src.PickN(len(tables), min(cfg.Budget, len(tables)))
		replicas := make([]core.TableID, len(picked))
		for i, idx := range picked {
			replicas[i] = tables[idx]
		}
		iv, err := simulate(replicas)
		if err != nil {
			return res, err
		}
		sum += iv
		if iv > res.RandomBest {
			res.RandomBest = iv
		}
	}
	if cfg.RandomTrials > 0 {
		res.RandomMean = sum / float64(cfg.RandomTrials)
	}
	res.Rows = append(res.Rows, AdvisorRow{Plan: "random (mean)", MeanIV: res.RandomMean})
	res.Rows = append(res.Rows, AdvisorRow{Plan: "random (best)", MeanIV: res.RandomBest})
	return res, nil
}

// Tables renders the advisor experiment.
func (r AdvisorResult) Tables() []Table {
	t := Table{
		Title:   "Placement advisor (paper's future work): simulated mean IV by replication plan",
		Columns: []string{"plan", "mean IV", "replicas"},
	}
	for _, row := range r.Rows {
		detail := ""
		if len(row.Replicas) > 0 {
			detail = fmt.Sprintf("%v", row.Replicas)
		}
		t.Rows = append(t.Rows, []string{row.Plan, f3(row.MeanIV), detail})
	}
	return []Table{t}
}
