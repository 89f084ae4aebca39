package bench

import (
	"fmt"
	"math"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/scheduler"
	"ivdss/internal/stats"
	"ivdss/internal/synth"
)

// AblationSearchConfig exercises the plan-search design choice: the
// paper's bounded scatter-and-gather prefix search against the
// full-subset timeline search and the unbounded exhaustive reference.
type AblationSearchConfig struct {
	Scenarios      int
	MaxTables      int
	SyncsPerTable  int
	Rates          core.DiscountRates
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultAblationSearchConfig returns the standard setup.
func DefaultAblationSearchConfig() AblationSearchConfig {
	return AblationSearchConfig{
		Scenarios:      300,
		MaxTables:      8,
		SyncsPerTable:  4,
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		PlannerHorizon: 0,
		Seed:           17,
	}
}

// AblationSearchRow summarizes one search mode over all scenarios.
type AblationSearchRow struct {
	Mode           core.SearchMode
	MeanPlans      float64 // plans evaluated per scenario
	MeanValueRatio float64 // achieved IV / exhaustive-optimal IV
}

// AblationSearchResult holds one row per mode.
type AblationSearchResult struct {
	Rows []AblationSearchRow
}

// RunAblationSearch generates random planning scenarios and compares the
// three search modes on work done and optimality.
func RunAblationSearch(cfg AblationSearchConfig) (AblationSearchResult, error) {
	var res AblationSearchResult
	if cfg.Scenarios <= 0 || cfg.MaxTables <= 0 {
		return res, fmt.Errorf("bench: ablation needs positive scenario and table counts")
	}
	src := stats.NewSource(cfg.Seed)
	cost := &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2, TransmitFlat: 1}

	modes := []core.SearchMode{core.ScatterGather, core.ScatterGatherFull, core.Exhaustive}
	plans := make(map[core.SearchMode]float64, len(modes))
	ratios := make(map[core.SearchMode]float64, len(modes))

	for trial := 0; trial < cfg.Scenarios; trial++ {
		n := 1 + src.Intn(cfg.MaxTables)
		now := 10 + src.Float64()*50
		states := make([]core.TableState, n)
		tables := make([]core.TableID, n)
		for i := range states {
			id := core.TableID(fmt.Sprintf("T%02d", i))
			tables[i] = id
			ts := core.TableState{ID: id, Site: core.SiteID(1 + src.Intn(4))}
			if src.Float64() < .7 {
				last := now - src.Float64()*30
				rs := &core.ReplicaState{LastSync: last}
				next := last
				for k := 0; k < cfg.SyncsPerTable; k++ {
					next += 1 + src.Expo(8)
					if next > last {
						rs.NextSyncs = append(rs.NextSyncs, next)
					}
				}
				ts.Replica = rs
			}
			states[i] = ts
		}
		q := core.Query{ID: "q", Tables: tables, BusinessValue: 1, SubmitAt: now}

		values := make(map[core.SearchMode]float64, len(modes))
		for _, mode := range modes {
			planner, err := core.NewPlanner(cost, core.PlannerConfig{
				Rates: cfg.Rates, Mode: mode, Horizon: cfg.PlannerHorizon,
			})
			if err != nil {
				return res, err
			}
			best, stats, err := planner.Best(q, states, now)
			if err != nil {
				return res, err
			}
			plans[mode] += float64(stats.PlansEvaluated)
			values[mode] = best.Value(cfg.Rates)
		}
		opt := values[core.Exhaustive]
		for _, mode := range modes {
			if opt > 0 {
				ratios[mode] += values[mode] / opt
			} else {
				ratios[mode]++
			}
		}
	}
	for _, mode := range modes {
		res.Rows = append(res.Rows, AblationSearchRow{
			Mode:           mode,
			MeanPlans:      plans[mode] / float64(cfg.Scenarios),
			MeanValueRatio: ratios[mode] / float64(cfg.Scenarios),
		})
	}
	return res, nil
}

// Tables renders the search ablation.
func (r AblationSearchResult) Tables() []Table {
	t := Table{
		Title:   "Ablation: plan search modes (value ratio vs exhaustive optimum)",
		Columns: []string{"mode", "mean plans evaluated", "mean value ratio"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Mode.String(), f1(row.MeanPlans), fmt.Sprintf("%.5f", row.MeanValueRatio)})
	}
	return []Table{t}
}

// AblationMQOConfig compares workload-ordering strategies: FIFO, the GA,
// random restarts with the same evaluation budget, and (for small
// workloads) brute force.
type AblationMQOConfig struct {
	NTables        int
	Replicas       int
	WorkloadSize   int
	MaxTablesPer   int
	SyncMean       core.Duration
	Rates          core.DiscountRates
	GA             scheduler.GAConfig
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultAblationMQOConfig uses a 7-query burst so brute force (5040
// orders) stays feasible.
func DefaultAblationMQOConfig() AblationMQOConfig {
	return AblationMQOConfig{
		NTables:        100,
		Replicas:       50,
		WorkloadSize:   7,
		MaxTablesPer:   10,
		SyncMean:       10,
		Rates:          core.DiscountRates{CL: .15, SL: .15},
		GA:             scheduler.GAConfig{Seed: 11},
		PlannerHorizon: 30,
		Seed:           3,
	}
}

// AblationMQORow is one strategy's achieved workload value.
type AblationMQORow struct {
	Strategy    string
	TotalValue  float64
	Evaluations int
}

// AblationMQOResult holds all strategies.
type AblationMQOResult struct {
	Rows []AblationMQORow
}

// RunAblationMQO executes the scheduling ablation.
func RunAblationMQO(cfg AblationMQOConfig) (AblationMQOResult, error) {
	var res AblationMQOResult
	if cfg.WorkloadSize < 2 || cfg.WorkloadSize > 8 {
		return res, fmt.Errorf("bench: workload size %d outside [2, 8] (brute force)", cfg.WorkloadSize)
	}
	ev, err := fig9Evaluator(Fig9Config{
		NTables:        cfg.NTables,
		Replicas:       cfg.Replicas,
		SyncMean:       cfg.SyncMean,
		Rates:          cfg.Rates,
		PlannerHorizon: cfg.PlannerHorizon,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return res, err
	}
	queries, err := synth.Queries(synth.QueryConfig{
		N:                 cfg.WorkloadSize,
		Tables:            synth.Tables(cfg.NTables),
		MaxTablesPerQuery: cfg.MaxTablesPer,
		MeanInterarrival:  0.5,
		Seed:              cfg.Seed + 1,
	})
	if err != nil {
		return res, err
	}

	fitness := func(order []int) (float64, error) {
		r, err := ev.RunSequence(queries, order, 0)
		if err != nil {
			return 0, err
		}
		return r.TotalValue, nil
	}

	// FIFO.
	fifo, err := scheduler.ScheduleFIFO(queries, ev)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AblationMQORow{Strategy: "FIFO", TotalValue: fifo.TotalValue, Evaluations: 1})

	// GA.
	_, gaVal, gaStats, err := scheduler.OptimizeOrder(len(queries), fitness, cfg.GA)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AblationMQORow{Strategy: "GA", TotalValue: gaVal, Evaluations: gaStats.Evaluations})

	// Random restarts with the GA's evaluation budget.
	src := stats.NewSource(cfg.Seed + 2)
	budget := gaStats.Evaluations
	if budget < 1 {
		budget = 1
	}
	bestRand := math.Inf(-1)
	for i := 0; i < budget; i++ {
		v, err := fitness(src.Perm(len(queries)))
		if err != nil {
			return res, err
		}
		if v > bestRand {
			bestRand = v
		}
	}
	res.Rows = append(res.Rows, AblationMQORow{Strategy: "random restarts", TotalValue: bestRand, Evaluations: budget})

	// Brute force.
	bestBrute := math.Inf(-1)
	perm := make([]int, len(queries))
	for i := range perm {
		perm[i] = i
	}
	count := 0
	var rec func(k int) error
	rec = func(k int) error {
		if k == len(perm) {
			v, err := fitness(perm)
			if err != nil {
				return err
			}
			count++
			if v > bestBrute {
				bestBrute = v
			}
			return nil
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := rec(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AblationMQORow{Strategy: "brute force", TotalValue: bestBrute, Evaluations: count})
	return res, nil
}

// Tables renders the MQO ablation.
func (r AblationMQOResult) Tables() []Table {
	t := Table{
		Title:   "Ablation: workload ordering strategies (one burst workload)",
		Columns: []string{"strategy", "total IV", "evaluations"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Strategy, f3(row.TotalValue), fmt.Sprintf("%d", row.Evaluations)})
	}
	return []Table{t}
}

// AblationAgingConfig stresses the dispatcher with a saturating stream and
// compares aging on vs off (Section 3.3).
type AblationAgingConfig struct {
	NTables        int
	Replicas       int
	NQueries       int
	MaxTablesPer   int
	QueryMean      core.Duration // deliberately below service time: overload
	SyncMean       core.Duration
	Rates          core.DiscountRates
	Aging          core.Aging
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultAblationAgingConfig returns the standard setup: a transient
// overload (arrivals slightly faster than service for a while) where pure
// value-maximizing dispatch starves the cheap queries while aging bounds
// their wait at a small cost in total value.
func DefaultAblationAgingConfig() AblationAgingConfig {
	return AblationAgingConfig{
		NTables:        20,
		Replicas:       10,
		NQueries:       60,
		MaxTablesPer:   4,
		QueryMean:      4,
		SyncMean:       10,
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		Aging:          core.Aging{Coefficient: .002, Exponent: 1.5},
		PlannerHorizon: 30,
		Seed:           5,
	}
}

// AblationAgingRow is one policy's outcome.
type AblationAgingRow struct {
	Policy   string
	MeanIV   float64
	MeanWait core.Duration
	MaxWait  core.Duration
	P95Wait  core.Duration
}

// AblationAgingResult compares aging on and off.
type AblationAgingResult struct {
	Rows []AblationAgingRow
}

// RunAblationAging executes the aging ablation.
func RunAblationAging(cfg AblationAgingConfig) (AblationAgingResult, error) {
	var res AblationAgingResult
	tables := synth.Tables(cfg.NTables)
	dep, err := BuildDeployment(DeployConfig{
		Tables:          tables,
		Sites:           4,
		ReplicaCount:    cfg.Replicas,
		SyncMean:        cfg.SyncMean,
		ScheduleHorizon: 1e5,
		InitialSync:     true,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return res, err
	}
	queries, err := synth.Queries(synth.QueryConfig{
		N:                 cfg.NQueries,
		Tables:            tables,
		MaxTablesPerQuery: cfg.MaxTablesPer,
		MeanInterarrival:  cfg.QueryMean,
		Seed:              cfg.Seed + 1,
	})
	if err != nil {
		return res, err
	}
	// Mixed business values: starvation hits the cheap queries.
	src := stats.NewSource(cfg.Seed + 2)
	for i := range queries {
		if src.Float64() < .3 {
			queries[i].BusinessValue = .25
		}
	}
	cost := &costmodel.CountModel{LocalProcess: 1, PerBaseTable: 1.5, TransmitFlat: .5}

	for _, policy := range []struct {
		name  string
		aging core.Aging
	}{{"no aging", core.Aging{}}, {"aging", cfg.Aging}} {
		strategy, err := dep.Strategy(MethodIVQP, cost, cfg.Rates, cfg.PlannerHorizon)
		if err != nil {
			return res, err
		}
		outcomes, err := RunStream(strategy, queries, cfg.Rates, 1, policy.aging)
		if err != nil {
			return res, err
		}
		waits := make([]float64, len(outcomes))
		var maxWait core.Duration
		for i, o := range outcomes {
			waits[i] = o.Wait
			if o.Wait > maxWait {
				maxWait = o.Wait
			}
		}
		res.Rows = append(res.Rows, AblationAgingRow{
			Policy:   policy.name,
			MeanIV:   MeanValue(outcomes),
			MeanWait: stats.Mean(waits),
			MaxWait:  maxWait,
			P95Wait:  stats.Percentile(waits, 95),
		})
	}
	return res, nil
}

// Tables renders the aging ablation.
func (r AblationAgingResult) Tables() []Table {
	t := Table{
		Title:   "Ablation: anti-starvation aging under overload",
		Columns: []string{"policy", "mean IV", "mean wait", "p95 wait", "max wait"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Policy, f3(row.MeanIV), f1(row.MeanWait), f1(row.P95Wait), f1(row.MaxWait)})
	}
	return []Table{t}
}
