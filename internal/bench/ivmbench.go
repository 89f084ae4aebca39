package bench

import (
	"fmt"

	"ivdss/internal/core"
)

// Materialized-view experiment (-fig ivm): an aggregate-heavy skewed
// workload over replicated tables, replica-only versus view-enabled. In
// the view-enabled variant each hot table's sync unit is a materialized
// view covering the hot query: its cycles ship only the delta rows passing
// the view's predicate, projected to the columns the view reads, and the
// query is answered from the pre-aggregated materialization instead of
// re-aggregating a replica. The figure reports total information value
// against total sync traffic — the paper's IV currency versus the
// bandwidth the views exist to save.

// IVMConfig parameterizes the experiment.
type IVMConfig struct {
	// Tables is the base-table count; HotTables of them receive
	// HotFraction of the query traffic. Hot queries are view-covered
	// single-table aggregates.
	Tables      int
	HotTables   int
	HotFraction float64
	// NQueries arrive as a Poisson stream with mean interarrival QueryMean
	// (experiment minutes).
	NQueries  int
	QueryMean core.Duration
	// Period is the uniform sync period per unit (replica or view).
	Period core.Duration
	// ProcessCL is the computational latency of aggregating over a local
	// replica; ViewProcessCL is the latency of serving the view's already
	// aggregated answer (strictly smaller — that is the CL the view
	// collapses).
	ProcessCL     core.Duration
	ViewProcessCL core.Duration
	// RowsPerMin and RowBytes model each table's append rate; BaseRows is
	// the size at t=0.
	RowsPerMin float64
	RowBytes   int64
	BaseRows   uint64
	// Selectivity is the fraction of appended rows passing the view's
	// WHERE predicate; ColumnFraction is the fraction of each row's bytes
	// the view's column subset keeps. Together they price the delta
	// projection applied at the base site.
	Selectivity    float64
	ColumnFraction float64
	// Budget caps sync traffic in bytes per experiment minute (0 =
	// unlimited), shared across all units.
	Budget float64
	Rates  core.DiscountRates
	Seed   int64
}

// DefaultIVMConfig: 8 tables, 2 hot ones drawing 80% of an
// aggregate-heavy stream; the views' predicates pass 25% of delta rows and
// keep half of each row's bytes.
func DefaultIVMConfig() IVMConfig {
	return IVMConfig{
		Tables:         8,
		HotTables:      2,
		HotFraction:    .8,
		NQueries:       400,
		QueryMean:      .25,
		Period:         8,
		ProcessCL:      .5,
		ViewProcessCL:  .05,
		RowsPerMin:     5,
		RowBytes:       8,
		BaseRows:       200,
		Selectivity:    .25,
		ColumnFraction: .5,
		Rates:          core.DiscountRates{CL: .05, SL: .08},
		Seed:           1,
	}
}

// QuickIVMConfig is the CI-sized variant.
func QuickIVMConfig() IVMConfig {
	cfg := DefaultIVMConfig()
	cfg.NQueries = 150
	return cfg
}

// IVMVariant is one variant's outcome.
type IVMVariant struct {
	SyncTotals
	ViewsMaterialized float64 `json:"views_materialized_total"`
	ViewDeltaRows     float64 `json:"view_delta_rows_total"`
	ViewDeltaBytes    float64 `json:"view_delta_bytes_total"`
}

// IVMResult is the experiment outcome.
type IVMResult struct {
	ReplicaOnly IVMVariant `json:"replica_only"`
	ViewEnabled IVMVariant `json:"view_enabled"`
	// IVGainPct is the view-enabled IV gain over replica-only, percent.
	IVGainPct float64 `json:"iv_gain_pct"`
	// BytesSavedPct is the sync-traffic reduction, percent.
	BytesSavedPct float64 `json:"bytes_saved_pct"`
	Date          string  `json:"date,omitempty"`
}

// ivmViewID names the view covering hot table i's query.
func ivmViewID(i int) core.ViewID {
	return core.ViewID(fmt.Sprintf("q%02d", i))
}

// RunIVM executes the experiment: the identical aggregate-heavy skewed
// stream against a replica-only and a view-enabled source set.
func RunIVM(cfg IVMConfig) (IVMResult, error) {
	var res IVMResult
	if cfg.Selectivity <= 0 || cfg.Selectivity > 1 {
		return res, fmt.Errorf("bench: selectivity %v outside (0, 1]", cfg.Selectivity)
	}
	if cfg.ColumnFraction <= 0 || cfg.ColumnFraction > 1 {
		return res, fmt.Errorf("bench: column fraction %v outside (0, 1]", cfg.ColumnFraction)
	}
	if cfg.ViewProcessCL > cfg.ProcessCL {
		return res, fmt.Errorf("bench: view process CL %v exceeds replica process CL %v", cfg.ViewProcessCL, cfg.ProcessCL)
	}
	ro, err := runIVMVariant(cfg, false)
	if err != nil {
		return res, err
	}
	ve, err := runIVMVariant(cfg, true)
	if err != nil {
		return res, err
	}
	res.ReplicaOnly, res.ViewEnabled = ro, ve
	if ro.TotalIV > 0 {
		res.IVGainPct = (ve.TotalIV - ro.TotalIV) / ro.TotalIV * 100
	}
	if ro.SyncBytes > 0 {
		res.BytesSavedPct = (ro.SyncBytes - ve.SyncBytes) / ro.SyncBytes * 100
	}
	return res, nil
}

func runIVMVariant(cfg IVMConfig, viewEnabled bool) (IVMVariant, error) {
	// Unit per table: hot tables synchronize as views in the view-enabled
	// variant (same slot, projected bytes), as plain replicas otherwise.
	units := make([]core.TableID, cfg.Tables)
	for i := range units {
		if viewEnabled && i < cfg.HotTables {
			units[i] = core.ViewUnit(ivmViewID(i))
		} else {
			units[i] = syncTableID(i)
		}
	}
	run, err := syncModel{
		cfg: SyncConfig{
			Tables: cfg.Tables, HotTables: cfg.HotTables, HotFraction: cfg.HotFraction,
			NQueries: cfg.NQueries, QueryMean: cfg.QueryMean, Period: cfg.Period,
			RowsPerMin: cfg.RowsPerMin, RowBytes: cfg.RowBytes, BaseRows: cfg.BaseRows,
			Budget: cfg.Budget, Rates: cfg.Rates, Seed: cfg.Seed,
		},
		units:          units,
		selectivity:    cfg.Selectivity,
		columnFraction: cfg.ColumnFraction,
		// Serving a pre-aggregated view answer is cheaper than
		// re-aggregating a replica — the CL the view collapses.
		unitCL: func(unit core.TableID) core.Duration {
			if _, isView := core.ViewOfUnit(unit); isView {
				return cfg.ViewProcessCL
			}
			return cfg.ProcessCL
		},
	}.run()
	return IVMVariant{
		SyncTotals:        run.SyncTotals,
		ViewsMaterialized: run.metrics["views_materialized_total"],
		ViewDeltaRows:     run.metrics["view_delta_rows_total"],
		ViewDeltaBytes:    run.metrics["view_delta_bytes_total"],
	}, err
}

// Tables renders the experiment as a summary table.
func (r IVMResult) Tables() []Table {
	row := func(name string, v IVMVariant) []string {
		return append(v.cells(name), fmt.Sprintf("%.0f", v.ViewsMaterialized), fmt.Sprintf("%.0f", v.ViewDeltaBytes))
	}
	return []Table{{
		Title:   "Materialized views: replica-only vs view-enabled (aggregate-heavy skew)",
		Columns: []string{"variant", "total IV", "mean SL", "syncs", "bytes", "deferred", "materialized", "view delta bytes"},
		Rows: [][]string{
			row("replica-only", r.ReplicaOnly),
			row("view-enabled", r.ViewEnabled),
			{"gain", fmt.Sprintf("%+.1f%%", r.IVGainPct), "", "", fmt.Sprintf("-%.1f%%", r.BytesSavedPct), "", "", ""},
		},
	}}
}
