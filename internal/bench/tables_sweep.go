package bench

import (
	"fmt"
	"strconv"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/synth"
)

// TablesSweepConfig parameterizes the supplementary schema-size sweep. The
// paper's synthetic setup says "the number of tables can vary from 10 to
// 300" but shows no figure for the sweep; this experiment fills that gap:
// with the replica budget held at half the schema and query footprints
// fixed, how does information value move as the schema grows?
type TablesSweepConfig struct {
	TableCounts    []int
	NQueries       int
	MaxTablesPer   int
	QueryMean      core.Duration
	SyncMean       core.Duration
	Rates          core.DiscountRates
	Sites          int
	Slots          int
	PlannerHorizon core.Duration
	Seed           int64
}

// DefaultTablesSweepConfig covers the paper's stated range.
func DefaultTablesSweepConfig() TablesSweepConfig {
	return TablesSweepConfig{
		TableCounts:    []int{10, 50, 100, 200, 300},
		NQueries:       120,
		MaxTablesPer:   10,
		QueryMean:      60,
		SyncMean:       20,
		Rates:          core.DiscountRates{CL: .05, SL: .05},
		Sites:          4,
		Slots:          1,
		PlannerHorizon: 30,
		Seed:           1,
	}
}

// TablesSweepPoint is one schema size's outcome.
type TablesSweepPoint struct {
	Tables int
	Values map[Method]float64
}

// TablesSweepResult holds the sweep.
type TablesSweepResult struct {
	Points []TablesSweepPoint
}

// RunTablesSweep executes the sweep: at each schema size, half the tables
// are replicated and the same arrival process drives all three methods.
func RunTablesSweep(cfg TablesSweepConfig) (TablesSweepResult, error) {
	var res TablesSweepResult
	cost := &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2, TransmitFlat: 1}
	for _, n := range cfg.TableCounts {
		if n < cfg.MaxTablesPer {
			return res, fmt.Errorf("bench: %d tables below the per-query footprint %d", n, cfg.MaxTablesPer)
		}
		tables := synth.Tables(n)
		queries, err := synth.Queries(synth.QueryConfig{
			N:                 cfg.NQueries,
			Tables:            tables,
			MaxTablesPerQuery: cfg.MaxTablesPer,
			MeanInterarrival:  cfg.QueryMean,
			Seed:              cfg.Seed + 11,
		})
		if err != nil {
			return res, err
		}
		horizon := queries[len(queries)-1].SubmitAt + core.Time(cfg.NQueries)*cfg.QueryMean*4 + 1000
		dep, err := BuildDeployment(DeployConfig{
			Tables:          tables,
			Sites:           cfg.Sites,
			ReplicaCount:    n / 2,
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
			return res, fmt.Errorf("bench: tables sweep n=%d %w", n, err)
		}
		res.Points = append(res.Points, TablesSweepPoint{Tables: n, Values: means})
	}
	return res, nil
}

// Tables renders the sweep.
func (r TablesSweepResult) Tables() []Table {
	t := Table{
		Title:   "Supplementary: Information Value vs number of tables (half replicated)",
		Columns: []string{"tables", "IVQP", "Federation", "Data Warehouse"},
	}
	for _, p := range r.Points {
		row := []string{strconv.Itoa(p.Tables)}
		for _, m := range Methods() {
			row = append(row, f3(p.Values[m]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}
