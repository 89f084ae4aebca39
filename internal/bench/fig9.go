package bench

import (
	"fmt"
	"strconv"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/scheduler"
	"ivdss/internal/synth"
)

// Fig9Config parameterizes the multi-query-optimization experiments
// (Figure 9): synthetic 100-table schema, λCL = λSL = .15, comparing the
// GA workload scheduler against FIFO while varying (a) the query overlap
// rate and (b) the workload size.
type Fig9Config struct {
	NTables        int
	Replicas       int
	MaxTablesPer   int
	SyncMean       core.Duration
	Rates          core.DiscountRates
	PlannerHorizon core.Duration
	GA             scheduler.GAConfig
	Seed           int64

	// Panel (a): overlap sweep.
	OverlapRates   []float64
	OverlapQueries int
	ClusterGap     core.Duration
	SpreadGap      core.Duration

	// Panel (b): workload-size sweep (queries arrive as one burst).
	QueryCounts []int
	BurstGap    core.Duration

	// Reps averages each point over several independently seeded
	// workloads; the seed set is identical across x-values so curves are
	// comparable point to point.
	Reps int
}

// DefaultFig9Config mirrors the paper's setup.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		NTables:        100,
		Replicas:       50,
		MaxTablesPer:   10,
		SyncMean:       5,
		Rates:          core.DiscountRates{CL: .15, SL: .15},
		PlannerHorizon: 30,
		GA:             scheduler.GAConfig{Seed: 9},
		Seed:           1,
		OverlapRates:   []float64{.1, .2, .3, .4, .5},
		OverlapQueries: 24,
		ClusterGap:     1,
		SpreadGap:      120,
		QueryCounts:    []int{2, 4, 6, 8, 10, 12, 14},
		BurstGap:       0.5,
		Reps:           5,
	}
}

// QuickFig9Config is a scaled-down variant for tests.
func QuickFig9Config() Fig9Config {
	cfg := DefaultFig9Config()
	cfg.OverlapRates = []float64{.1, .5}
	cfg.OverlapQueries = 10
	cfg.QueryCounts = []int{2, 6}
	cfg.GA = scheduler.GAConfig{Seed: 9, Population: 12, Generations: 10}
	cfg.Reps = 2
	return cfg
}

// Fig9Point compares MQO and FIFO at one x-axis value.
type Fig9Point struct {
	X       float64 // overlap rate (a) or query count (b)
	MQO     float64 // mean information value with the GA scheduler
	Without float64 // mean information value with FIFO
}

// Fig9Result holds both panels.
type Fig9Result struct {
	Overlap []Fig9Point // panel (a)
	Counts  []Fig9Point // panel (b)
}

// fig9Evaluator builds the shared deployment and the evaluator that scores
// candidate orders over it.
func fig9Evaluator(cfg Fig9Config) (*scheduler.Evaluator, error) {
	dep, err := BuildDeployment(DeployConfig{
		Tables:          synth.Tables(cfg.NTables),
		Sites:           4,
		ReplicaCount:    cfg.Replicas,
		SyncMean:        cfg.SyncMean,
		ScheduleHorizon: 1e5,
		InitialSync:     true,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cost := &costmodel.CountModel{LocalProcess: 1, PerBaseTable: 1, TransmitFlat: 0.5}
	planner, err := core.NewPlanner(cost, core.PlannerConfig{Rates: cfg.Rates, Horizon: cfg.PlannerHorizon})
	if err != nil {
		return nil, err
	}
	return &scheduler.Evaluator{Planner: planner, Catalog: dep.Catalog, Horizon: cfg.PlannerHorizon}, nil
}

// fig9Sweep compares MQO and FIFO at every x-axis value, averaging each
// point over cfg.Reps workloads; gen draws the workload for (x, base
// query config), whose seed varies by rep only.
func fig9Sweep(cfg Fig9Config, xs []float64, gen func(x float64, base synth.QueryConfig) ([]core.Query, error)) ([]Fig9Point, error) {
	ev, err := fig9Evaluator(cfg)
	if err != nil {
		return nil, err
	}
	tables := synth.Tables(cfg.NTables)
	reps := max(cfg.Reps, 1)
	points := make([]Fig9Point, 0, len(xs))
	for _, x := range xs {
		point := Fig9Point{X: x}
		for rep := 0; rep < reps; rep++ {
			queries, err := gen(x, synth.QueryConfig{
				Tables:            tables,
				MaxTablesPerQuery: cfg.MaxTablesPer,
				Seed:              cfg.Seed + int64(rep)*997,
			})
			if err != nil {
				return nil, err
			}
			p, err := compareMQO(queries, ev, cfg.GA)
			if err != nil {
				return nil, fmt.Errorf("bench: fig9 x=%v: %w", x, err)
			}
			point.MQO += p.MQO / float64(reps)
			point.Without += p.Without / float64(reps)
		}
		points = append(points, point)
	}
	return points, nil
}

// RunFig9a executes the overlap-rate sweep.
func RunFig9a(cfg Fig9Config) (Fig9Result, error) {
	points, err := fig9Sweep(cfg, cfg.OverlapRates, func(rate float64, base synth.QueryConfig) ([]core.Query, error) {
		base.N = cfg.OverlapQueries
		return synth.OverlappingQueries(synth.OverlapConfig{
			QueryConfig: base,
			Rate:        rate,
			ClusterGap:  cfg.ClusterGap,
			SpreadGap:   cfg.SpreadGap,
		})
	})
	for i := range points {
		points[i].X *= 100 // the panel plots percent
	}
	return Fig9Result{Overlap: points}, err
}

// RunFig9b executes the workload-size sweep.
func RunFig9b(cfg Fig9Config) (Fig9Result, error) {
	xs := make([]float64, len(cfg.QueryCounts))
	for i, n := range cfg.QueryCounts {
		xs[i] = float64(n)
	}
	points, err := fig9Sweep(cfg, xs, func(n float64, base synth.QueryConfig) ([]core.Query, error) {
		base.N = int(n)
		base.MeanInterarrival = cfg.BurstGap
		return synth.Queries(base)
	})
	return Fig9Result{Counts: points}, err
}

func compareMQO(queries []core.Query, ev *scheduler.Evaluator, ga scheduler.GAConfig) (Fig9Point, error) {
	fifo, err := scheduler.ScheduleFIFO(queries, ev)
	if err != nil {
		return Fig9Point{}, err
	}
	mqo, err := scheduler.ScheduleMQO(queries, ev, ga)
	if err != nil {
		return Fig9Point{}, err
	}
	return Fig9Point{MQO: mqo.MeanValue(), Without: fifo.MeanValue()}, nil
}

// Tables renders whichever panels the result holds.
func (r Fig9Result) Tables() []Table {
	var out []Table
	if len(r.Overlap) > 0 {
		t := Table{
			Title:   "Figure 9(a): MQO vs FIFO by query overlap rate (λ=.15)",
			Columns: []string{"overlap %", "MQO", "Without MQO", "gain %"},
		}
		for _, p := range r.Overlap {
			t.Rows = append(t.Rows, []string{f1(p.X), f3(p.MQO), f3(p.Without), f1(gainPercent(p))})
		}
		out = append(out, t)
	}
	if len(r.Counts) > 0 {
		t := Table{
			Title:   "Figure 9(b): MQO vs FIFO by number of queries (λ=.15)",
			Columns: []string{"queries", "MQO", "Without MQO", "gain %"},
		}
		for _, p := range r.Counts {
			t.Rows = append(t.Rows, []string{strconv.Itoa(int(p.X)), f3(p.MQO), f3(p.Without), f1(gainPercent(p))})
		}
		out = append(out, t)
	}
	return out
}

func gainPercent(p Fig9Point) float64 {
	if p.Without == 0 {
		return 0
	}
	return (p.MQO - p.Without) / p.Without * 100
}
