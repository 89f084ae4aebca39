package bench

import (
	"fmt"

	"ivdss/internal/core"
)

// Ratio is one Fq:Fs setting: Factor multiplies the query arrival
// frequency to get the synchronization frequency (so the per-table sync
// mean is QueryMean / Factor).
type Ratio struct {
	Label  string
	Factor float64
}

// PaperRatios are the four Fq:Fs settings of Figure 5.
func PaperRatios() []Ratio {
	return []Ratio{
		{"1:0.1", 0.1},
		{"1:1", 1},
		{"1:10", 10},
		{"1:20", 20},
	}
}

// Lambda is one discount-rate configuration with its figure label.
type Lambda struct {
	Label string
	Rates core.DiscountRates
}

// PaperLambdas are the four λ configurations of Figure 5.
func PaperLambdas() []Lambda {
	return []Lambda{
		{"λsl=λcl=.01", core.DiscountRates{CL: .01, SL: .01}},
		{"λsl=.01,λcl=.05", core.DiscountRates{CL: .05, SL: .01}},
		{"λsl=.05,λcl=.01", core.DiscountRates{CL: .01, SL: .05}},
		{"λsl=λcl=.05", core.DiscountRates{CL: .05, SL: .05}},
	}
}

// Fig5Config parameterizes the synchronization-frequency experiment
// (Figure 5): TPC-H with LineItem split five ways, 5 of the 12 tables
// replicated, a Poisson query stream, and a sweep over Fq:Fs and λ.
type Fig5Config struct {
	Scale          float64 // TPC-H generator scale (weights calibration)
	NQueries       int
	QueryMean      core.Duration // mean interarrival
	Ratios         []Ratio
	Lambdas        []Lambda
	Sites          int
	Replicas       int
	Slots          int
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultFig5Config mirrors the paper's setup.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Scale:          1,
		NQueries:       110, // 5 arrivals per template on average
		QueryMean:      150,
		Ratios:         PaperRatios(),
		Lambdas:        PaperLambdas(),
		Sites:          4,
		Replicas:       5,
		Slots:          1,
		PlannerHorizon: 30,
		Seed:           1,
	}
}

// QuickFig5Config is a scaled-down variant for tests.
func QuickFig5Config() Fig5Config {
	cfg := DefaultFig5Config()
	cfg.NQueries = 30
	cfg.Ratios = []Ratio{{"1:0.1", 0.1}, {"1:20", 20}}
	cfg.Lambdas = PaperLambdas()[:2]
	return cfg
}

// Fig5Cell is one bar of Figure 5.
type Fig5Cell struct {
	Ratio  string
	Lambda string
	Method Method
	MeanIV float64
}

// Fig5Result holds every bar across the four panels.
type Fig5Result struct {
	Cells []Fig5Cell
}

// Get returns the mean information value of one bar.
func (r Fig5Result) Get(ratio, lambda string, m Method) (float64, bool) {
	for _, c := range r.Cells {
		if c.Ratio == ratio && c.Lambda == lambda && c.Method == m {
			return c.MeanIV, true
		}
	}
	return 0, false
}

// RunFig5 executes the experiment.
func RunFig5(cfg Fig5Config) (Fig5Result, error) {
	var res Fig5Result
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

	for _, ratio := range cfg.Ratios {
		// All three methods route over the same hybrid deployment (5 of 12
		// tables replicated).
		dep, err := BuildDeployment(DeployConfig{
			Tables:          world.Tables,
			Sites:           cfg.Sites,
			ReplicaCount:    cfg.Replicas,
			SyncMean:        cfg.QueryMean / ratio.Factor,
			ScheduleHorizon: horizon,
			InitialSync:     true,
			Seed:            cfg.Seed,
		})
		if err != nil {
			return res, fmt.Errorf("bench: fig5 %s: %w", ratio.Label, err)
		}
		for _, lambda := range cfg.Lambdas {
			means, err := dep.methodMeans(cost, lambda.Rates, cfg.PlannerHorizon, cfg.Slots, queries)
			if err != nil {
				return res, fmt.Errorf("bench: fig5 %s %s %w", ratio.Label, lambda.Label, err)
			}
			for _, m := range Methods() {
				res.Cells = append(res.Cells, Fig5Cell{Ratio: ratio.Label, Lambda: lambda.Label, Method: m, MeanIV: means[m]})
			}
		}
	}
	return res, nil
}

// Tables renders one table per Fq:Fs panel, as in the figure. Cells arrive
// the way RunFig5 appends them: panel by panel, λ row by λ row, each row's
// bars in Methods() order.
func (r Fig5Result) Tables() []Table {
	var out []Table
	for _, c := range r.Cells {
		title := fmt.Sprintf("Figure 5: Information Value (Fq:Fs = %s)", c.Ratio)
		if len(out) == 0 || out[len(out)-1].Title != title {
			out = append(out, Table{Title: title, Columns: []string{"lambda", "IVQP", "Federation", "Data Warehouse"}})
		}
		t := &out[len(out)-1]
		if len(t.Rows) == 0 || t.Rows[len(t.Rows)-1][0] != c.Lambda {
			t.Rows = append(t.Rows, []string{c.Lambda})
		}
		row := &t.Rows[len(t.Rows)-1]
		*row = append(*row, f3(c.MeanIV))
	}
	return out
}
