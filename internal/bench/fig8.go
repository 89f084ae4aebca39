package bench

import (
	"fmt"
	"strconv"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/synth"
)

// Fig8Config parameterizes the number-of-sites experiment (Figure 8):
// synthetic 100-table schema, 50 tables replicated, random queries over at
// most 10 tables, node counts from 2 to 22, skewed vs uniform placement.
// Communication overhead grows with the number of distinct remote sites a
// query touches (CountModel.PerExtraSite), which is what the paper blames
// for the uniform-placement decline.
type Fig8Config struct {
	NTables        int
	Replicas       int
	NQueries       int
	MaxTablesPer   int
	QueryMean      core.Duration
	SyncMean       core.Duration
	SiteCounts     []int
	Rates          core.DiscountRates
	PerExtraSite   core.Duration
	Slots          int
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultFig8Config mirrors the paper's setup.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		NTables:        100,
		Replicas:       50,
		NQueries:       120,
		MaxTablesPer:   10,
		QueryMean:      60,
		SyncMean:       20,
		SiteCounts:     []int{2, 6, 10, 14, 18, 22},
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		PerExtraSite:   1.5,
		Slots:          1,
		PlannerHorizon: 30,
		Seed:           1,
	}
}

// QuickFig8Config is a scaled-down variant for tests.
func QuickFig8Config() Fig8Config {
	cfg := DefaultFig8Config()
	cfg.NQueries = 25
	cfg.SiteCounts = []int{2, 22}
	return cfg
}

// Fig8Point is the mean IV of the three methods at one site count.
type Fig8Point struct {
	Sites  int
	Values map[Method]float64
}

// Fig8Series is one distribution's curve.
type Fig8Series struct {
	Distribution string // "skewed" or "uniform"
	Points       []Fig8Point
}

// Fig8Result holds both panels.
type Fig8Result struct {
	Series []Fig8Series
}

// Get returns one data point.
func (r Fig8Result) Get(dist string, sites int, m Method) (float64, bool) {
	for _, s := range r.Series {
		if s.Distribution != dist {
			continue
		}
		for _, p := range s.Points {
			if p.Sites == sites {
				v, ok := p.Values[m]
				return v, ok
			}
		}
	}
	return 0, false
}

// RunFig8 executes the experiment.
func RunFig8(cfg Fig8Config) (Fig8Result, error) {
	var res Fig8Result
	tables := synth.Tables(cfg.NTables)
	queries, err := synth.Queries(synth.QueryConfig{
		N:                 cfg.NQueries,
		Tables:            tables,
		MaxTablesPerQuery: cfg.MaxTablesPer,
		MeanInterarrival:  cfg.QueryMean,
		Seed:              cfg.Seed + 7,
	})
	if err != nil {
		return res, err
	}
	cost := &costmodel.CountModel{
		LocalProcess: 2,
		PerBaseTable: 2,
		PerExtraSite: cfg.PerExtraSite,
		TransmitFlat: 1,
	}
	horizon := queries[len(queries)-1].SubmitAt + core.Time(cfg.NQueries)*cfg.QueryMean*4 + 1000

	for _, skewed := range []bool{true, false} {
		dist := "uniform"
		if skewed {
			dist = "skewed"
		}
		series := Fig8Series{Distribution: dist}
		for _, sites := range cfg.SiteCounts {
			dep, err := BuildDeployment(DeployConfig{
				Tables:          tables,
				Sites:           sites,
				Skewed:          skewed,
				ReplicaCount:    cfg.Replicas,
				SyncMean:        cfg.SyncMean,
				ScheduleHorizon: horizon,
				InitialSync:     true,
				Seed:            cfg.Seed,
			})
			if err != nil {
				return res, err
			}
			means, err := dep.methodMeans(cost, cfg.Rates, cfg.PlannerHorizon, cfg.Slots, queries)
			if err != nil {
				return res, fmt.Errorf("bench: fig8 %s sites=%d %w", dist, sites, err)
			}
			series.Points = append(series.Points, Fig8Point{Sites: sites, Values: means})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Tables renders the two panels.
func (r Fig8Result) Tables() []Table {
	out := make([]Table, 0, len(r.Series))
	for _, s := range r.Series {
		t := Table{
			Title:   fmt.Sprintf("Figure 8: Information Value vs number of sites (%s distribution)", s.Distribution),
			Columns: []string{"sites", "IVQP", "Federation", "Data Warehouse"},
		}
		for _, p := range s.Points {
			row := []string{strconv.Itoa(p.Sites)}
			for _, m := range Methods() {
				row = append(row, f3(p.Values[m]))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}
