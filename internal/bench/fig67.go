package bench

import (
	"fmt"
	"strconv"

	"ivdss/internal/core"
	"ivdss/internal/tpch"
)

// Fig6Config parameterizes the per-query computational-latency experiment
// (Figure 6): 15 mid-cost TPC-H queries run in isolation with λCL=λSL=.01
// and Fq:Fs = 1:10.
type Fig6Config struct {
	Scale          float64
	QueryMean      core.Duration
	RatioFactor    float64
	Rates          core.DiscountRates
	Sites          int
	Replicas       int
	NQueries       int // how many mid-cost templates (paper: 15)
	SubmitAt       core.Time
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultFig6Config mirrors the paper's setup.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Scale:          1,
		QueryMean:      150,
		RatioFactor:    10,
		Rates:          core.DiscountRates{CL: .01, SL: .01},
		Sites:          4,
		Replicas:       5,
		NQueries:       15,
		SubmitAt:       500,
		PlannerHorizon: 30,
		Seed:           1,
	}
}

// FigQueryPoint is one query's measurement under the three methods.
type FigQueryPoint struct {
	QueryID string
	Values  map[Method]float64
}

// Fig6Result holds per-query computational latencies.
type Fig6Result struct {
	Points []FigQueryPoint
}

// isolatedPoints runs each of the cfg.NQueries mid-cost templates alone
// over the hybrid deployment all methods route over (synchronized at
// QueryMean/factor) and records pick(latencies) per method.
func isolatedPoints(world *TPCHWorld, cfg Fig6Config, factor float64, methods []Method, pick func(core.Latencies) float64) ([]FigQueryPoint, error) {
	cost := world.CostModel(world.Weights)
	dep, err := BuildDeployment(DeployConfig{
		Tables:          world.Tables,
		Sites:           cfg.Sites,
		ReplicaCount:    cfg.Replicas,
		SyncMean:        cfg.QueryMean / factor,
		ScheduleHorizon: cfg.SubmitAt*4 + 1000,
		InitialSync:     true,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var points []FigQueryPoint
	for _, id := range tpch.MidCostQueries(world.Weights, cfg.NQueries) {
		q, err := world.QueryFor(id, 0, cfg.SubmitAt)
		if err != nil {
			return nil, err
		}
		q.ID = id // isolated runs use the bare template ID so weights apply
		point := FigQueryPoint{QueryID: id, Values: make(map[Method]float64, len(methods))}
		for _, m := range methods {
			strategy, err := dep.Strategy(m, cost, cfg.Rates, cfg.PlannerHorizon)
			if err != nil {
				return nil, err
			}
			outcomes, err := RunStream(strategy, []core.Query{q}, cfg.Rates, 1, core.Aging{})
			if err != nil {
				return nil, fmt.Errorf("bench: isolated %s %s: %w", id, m, err)
			}
			point.Values[m] = pick(outcomes[0].Latencies)
		}
		points = append(points, point)
	}
	return points, nil
}

// RunFig6 executes the computational-latency experiment.
func RunFig6(cfg Fig6Config) (Fig6Result, error) {
	world, err := NewTPCHWorld(cfg.Scale, cfg.Seed)
	if err != nil {
		return Fig6Result{}, err
	}
	points, err := isolatedPoints(world, cfg, cfg.RatioFactor, Methods(),
		func(lat core.Latencies) float64 { return lat.CL })
	return Fig6Result{Points: points}, err
}

// Tables renders Figure 6.
func (r Fig6Result) Tables() []Table {
	t := Table{
		Title:   "Figure 6: Computational Latency per query (λ=.01, Fq:Fs=1:10)",
		Columns: []string{"#", "query", "IVQP", "Federation", "Data Warehouse"},
	}
	for i, p := range r.Points {
		row := []string{strconv.Itoa(i + 1), p.QueryID}
		for _, m := range Methods() {
			row = append(row, f1(p.Values[m]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Fig7Config parameterizes the per-query synchronization-latency
// experiment (Figure 7) across several Fq:Fs ratios. The paper compares
// IVQP with Data Warehouse only ("we do not compare with Federation ...
// because the synchronization latency of Federation is caused by the delay
// of query processing instead of table update").
type Fig7Config struct {
	Fig6Config
	RatioFactors []float64
}

// DefaultFig7Config mirrors the paper's setup (ratios 1:1, 1:10, 1:20).
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Fig6Config: DefaultFig6Config(), RatioFactors: []float64{1, 10, 20}}
}

// Fig7Panel is the per-query SL series at one ratio.
type Fig7Panel struct {
	Ratio  string
	Points []FigQueryPoint
}

// Fig7Result holds the three panels.
type Fig7Result struct {
	Panels []Fig7Panel
}

// RunFig7 executes the synchronization-latency experiment.
func RunFig7(cfg Fig7Config) (Fig7Result, error) {
	var res Fig7Result
	world, err := NewTPCHWorld(cfg.Scale, cfg.Seed)
	if err != nil {
		return res, err
	}
	for _, factor := range cfg.RatioFactors {
		points, err := isolatedPoints(world, cfg.Fig6Config, factor, []Method{MethodIVQP, MethodWarehouse},
			func(lat core.Latencies) float64 { return lat.SL })
		if err != nil {
			return res, err
		}
		res.Panels = append(res.Panels, Fig7Panel{Ratio: fmt.Sprintf("1:%g", factor), Points: points})
	}
	return res, nil
}

// Tables renders one table per ratio panel.
func (r Fig7Result) Tables() []Table {
	out := make([]Table, 0, len(r.Panels))
	for _, panel := range r.Panels {
		t := Table{
			Title:   fmt.Sprintf("Figure 7: Synchronization Latency per query (Fq:Fs = %s)", panel.Ratio),
			Columns: []string{"#", "query", "IVQP", "Data Warehouse"},
		}
		for i, p := range panel.Points {
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(i + 1), p.QueryID,
				f1(p.Values[MethodIVQP]), f1(p.Values[MethodWarehouse]),
			})
		}
		out = append(out, t)
	}
	return out
}
