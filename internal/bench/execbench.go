package bench

import (
	"context"
	"fmt"
	"strings"

	"ivdss/internal/costmodel"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/synth"
	"ivdss/internal/tpch"
	"ivdss/internal/wall"
)

// The exec benchmark compares the two sqlmini execution engines — the
// reference tree-walk interpreter and the compiled register VM over
// columnar batches — on representative query shapes over a TPC-H-style
// catalog, then re-runs the scenario matrix under each engine's cost
// calibration to show how the raw speedup compounds into information
// value (IV decays as (1-λCL)^CL, so faster local processing lifts every
// completed report and lets admission control keep more of them).

// ExecConfig sizes the engine comparison.
type ExecConfig struct {
	Scale float64 // TPC-H generator scale (1 ≈ 600 lineitem rows)
	Seed  int64
	Iters int  // timed executions per engine per shape
	Quick bool // quick scenario matrix for the IV leg
}

// DefaultExecConfig is the paper-scale run.
func DefaultExecConfig() ExecConfig {
	return ExecConfig{Scale: 8, Seed: 1, Iters: 30}
}

// QuickExecConfig is the CI-sized run.
func QuickExecConfig() ExecConfig {
	return ExecConfig{Scale: 2, Seed: 1, Iters: 5, Quick: true}
}

// execShape is one benchmarked query shape: the SQL plus the tables whose
// row counts define the shape's throughput denominator.
type execShape struct {
	Name   string
	SQL    string
	Tables []string
}

// execShapes are the four engine-differentiating shapes: a full-column
// aggregate scan, a TPC-H Q6-style multi-predicate filter, an equijoin,
// and a Q1-style grouped aggregation.
func execShapes() []execShape {
	return []execShape{
		{
			Name:   "scan",
			SQL:    "SELECT sum(l_extendedprice) FROM lineitem",
			Tables: []string{"lineitem"},
		},
		{
			Name: "filter",
			SQL: "SELECT sum(l_extendedprice * l_discount) FROM lineitem " +
				"WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' " +
				"AND l_discount BETWEEN 0.02 AND 0.09 AND l_quantity < 24",
			Tables: []string{"lineitem"},
		},
		{
			Name: "join",
			SQL: "SELECT count(*), sum(l_extendedprice) FROM orders, lineitem " +
				"WHERE o_orderkey = l_orderkey AND o_totalprice > 1000",
			Tables: []string{"orders", "lineitem"},
		},
		{
			Name: "group",
			SQL: "SELECT l_returnflag, l_linestatus, sum(l_quantity), avg(l_extendedprice), count(*) " +
				"FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
			Tables: []string{"lineitem"},
		},
	}
}

// ExecShapeResult is one shape's engine comparison.
type ExecShapeResult struct {
	Name           string  `json:"name"`
	SQL            string  `json:"sql"`
	InputRows      int     `json:"input_rows"`  // rows the shape reads per execution
	ResultRows     int     `json:"result_rows"` // rows in the answer
	TreeRowsPerSec float64 `json:"tree_rows_per_sec"`
	VMRowsPerSec   float64 `json:"vm_rows_per_sec"`
	Speedup        float64 `json:"speedup"` // VM throughput / tree throughput
}

// ExecResult is the whole comparison: per-shape throughput plus the
// scenario matrix's total IV under each engine's cost calibration.
type ExecResult struct {
	Date      string            `json:"date,omitempty"` // stamped by the caller
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	Iters     int               `json:"iters"`
	Shapes    []ExecShapeResult `json:"shapes"`
	TreeIV    float64           `json:"tree_total_iv"` // matrix total under tree-walk cost scale
	VMIV      float64           `json:"vm_total_iv"`   // matrix total under VM cost scale
	IVGainPct float64           `json:"iv_gain_pct"`
}

// execCatalog generates the TPC-H-style tables for the shapes.
func execCatalog(cfg ExecConfig) (sqlmini.MapCatalog, error) {
	tables, err := tpch.Generate(tpch.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return sqlmini.NewMapCatalog(tables), nil
}

// timeExec runs exec once untimed (the answer it returns, and the warm-up
// every engine gets), then iters times against the wall clock.
func timeExec(iters int, exec func() (*relation.Table, error)) (*relation.Table, float64, error) {
	out, err := exec()
	if err != nil {
		return nil, 0, err
	}
	start := wall.Now()
	for i := 0; i < iters; i++ {
		if _, err := exec(); err != nil {
			return nil, 0, err
		}
	}
	return out, wall.Since(start).Seconds(), nil
}

// timeTreeWalk measures one shape on the tree-walk interpreter: the
// statement is parsed once (both engines get that), then each iteration
// re-walks the AST — the engine has nothing to reuse across executions.
func timeTreeWalk(ctx context.Context, stmt *sqlmini.SelectStmt, cat sqlmini.Catalog, iters int) (*relation.Table, float64, error) {
	opts := sqlmini.Options{Engine: sqlmini.EngineTreeWalk}
	return timeExec(iters, func() (*relation.Table, error) { return sqlmini.ExecuteWith(ctx, stmt, cat, opts) })
}

// timeVM measures the same shape compiled once and executed many times
// with a warm ExecCache — the micro-batch steady state, where columnar
// images and join build sides persist across arrivals of the same shape.
func timeVM(ctx context.Context, stmt *sqlmini.SelectStmt, cat sqlmini.Catalog, iters int) (*relation.Table, float64, error) {
	prep, err := sqlmini.Prepare(stmt, cat)
	if err != nil {
		return nil, 0, err
	}
	cache := sqlmini.NewExecCache()
	return timeExec(iters, func() (*relation.Table, error) { return prep.ExecuteContext(ctx, cat, cache) })
}

// sameResult checks the two engines produced byte-identical answers:
// same column names and types, same rows in the same order.
func sameResult(a, b *relation.Table) error {
	if len(a.Schema.Cols) != len(b.Schema.Cols) {
		return fmt.Errorf("schema width %d vs %d", len(a.Schema.Cols), len(b.Schema.Cols))
	}
	for i := range a.Schema.Cols {
		if a.Schema.Cols[i] != b.Schema.Cols[i] {
			return fmt.Errorf("column %d: %v vs %v", i, a.Schema.Cols[i], b.Schema.Cols[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !relation.Equal(a.Rows[i][j], b.Rows[i][j]) {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return nil
}

// RunExec runs the full engine comparison: per-shape throughput with an
// answer-equality check, then the scenario matrix under tree-walk- and
// VM-calibrated cost models for the IV totals. The context bounds every
// timed execution, so a CLI timeout cuts the comparison short cleanly.
func RunExec(ctx context.Context, cfg ExecConfig) (ExecResult, error) {
	res := ExecResult{Seed: cfg.Seed, Scale: cfg.Scale, Iters: cfg.Iters}
	if cfg.Iters <= 0 {
		return res, fmt.Errorf("bench: exec iters %d must be positive", cfg.Iters)
	}
	cat, err := execCatalog(cfg)
	if err != nil {
		return res, err
	}
	for _, sh := range execShapes() {
		stmt, err := sqlmini.Parse(sh.SQL)
		if err != nil {
			return res, fmt.Errorf("bench: exec shape %s: %w", sh.Name, err)
		}
		inputRows := 0
		for _, name := range sh.Tables {
			t, err := cat.Table(name)
			if err != nil {
				return res, err
			}
			inputRows += len(t.Rows)
		}
		treeOut, treeSec, err := timeTreeWalk(ctx, stmt, cat, cfg.Iters)
		if err != nil {
			return res, fmt.Errorf("bench: exec shape %s (tree): %w", sh.Name, err)
		}
		vmOut, vmSec, err := timeVM(ctx, stmt, cat, cfg.Iters)
		if err != nil {
			return res, fmt.Errorf("bench: exec shape %s (vm): %w", sh.Name, err)
		}
		if err := sameResult(treeOut, vmOut); err != nil {
			return res, fmt.Errorf("bench: exec shape %s: engines disagree: %w", sh.Name, err)
		}
		totalRows := float64(inputRows * cfg.Iters)
		sr := ExecShapeResult{
			Name:       sh.Name,
			SQL:        sh.SQL,
			InputRows:  inputRows,
			ResultRows: len(treeOut.Rows),
		}
		if treeSec > 0 {
			sr.TreeRowsPerSec = totalRows / treeSec
		}
		if vmSec > 0 {
			sr.VMRowsPerSec = totalRows / vmSec
		}
		if sr.TreeRowsPerSec > 0 {
			sr.Speedup = sr.VMRowsPerSec / sr.TreeRowsPerSec
		}
		res.Shapes = append(res.Shapes, sr)
	}

	// IV leg: the same scenario matrix under each engine's calibration.
	// The DES prices computation with the cost model, so the VM's only
	// effect on IV is through the recalibrated processing constants —
	// exactly how the planner, MQO and shedding see the faster engine.
	treeSuite, err := RunScenariosWithCost(synth.Presets(), cfg.Quick, cfg.Seed,
		ScenarioCostFor(costmodel.TreeWalkProcessScale))
	if err != nil {
		return res, err
	}
	vmSuite, err := RunScenariosWithCost(synth.Presets(), cfg.Quick, cfg.Seed, nil)
	if err != nil {
		return res, err
	}
	for _, s := range treeSuite.Scenarios {
		res.TreeIV += s.TotalIV
	}
	for _, s := range vmSuite.Scenarios {
		res.VMIV += s.TotalIV
	}
	if res.TreeIV > 0 {
		res.IVGainPct = (res.VMIV - res.TreeIV) / res.TreeIV * 100
	}
	return res, nil
}

// Tables renders the comparison: one throughput table, one IV table.
func (r ExecResult) Tables() []Table {
	thr := Table{
		Title:   fmt.Sprintf("Execution engines: tree-walk vs compiled VM (scale=%g, iters=%d, seed=%d)", r.Scale, r.Iters, r.Seed),
		Columns: []string{"shape", "input rows", "result rows", "tree rows/s", "vm rows/s", "speedup"},
	}
	for _, s := range r.Shapes {
		thr.Rows = append(thr.Rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.InputRows),
			fmt.Sprintf("%d", s.ResultRows),
			f1(s.TreeRowsPerSec),
			f1(s.VMRowsPerSec),
			fmt.Sprintf("%.2fx", s.Speedup),
		})
	}
	iv := Table{
		Title:   "Scenario-matrix total IV under each engine's cost calibration",
		Columns: []string{"engine", "process scale", "total IV", "gain"},
		Rows: [][]string{
			{"tree-walk", fmt.Sprintf("%.2f", costmodel.TreeWalkProcessScale), f3(r.TreeIV), ""},
			{"vm", fmt.Sprintf("%.2f", costmodel.VMProcessScale), f3(r.VMIV), fmt.Sprintf("%+.1f%%", r.IVGainPct)},
		},
	}
	return []Table{thr, iv}
}

// shapeSQL returns the SQL of one named shape (test and benchmark hook).
func shapeSQL(name string) (string, bool) {
	for _, sh := range execShapes() {
		if strings.EqualFold(sh.Name, name) {
			return sh.SQL, true
		}
	}
	return "", false
}
