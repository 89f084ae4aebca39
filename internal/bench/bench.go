// Package bench contains the experiment drivers that regenerate every
// figure of the paper's evaluation section (Figures 5–9) plus the ablation
// studies called out in DESIGN.md. Each driver is deterministic in its
// config's seed and returns structured results that cmd/ivqp-bench renders
// as tables and the root bench_test.go wraps as testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ivdss/internal/core"
	"ivdss/internal/federation"
	"ivdss/internal/replication"
	"ivdss/internal/scheduler"
	"ivdss/internal/sim"
	"ivdss/internal/stats"
)

// Method names the three approaches the paper compares.
type Method int

const (
	// MethodIVQP is the proposed information-value-driven query processor.
	MethodIVQP Method = iota + 1
	// MethodFederation executes every query at the remote servers.
	MethodFederation
	// MethodWarehouse answers every query from local replicas.
	MethodWarehouse
)

// Methods lists the comparison order used in the paper's figures.
func Methods() []Method { return []Method{MethodIVQP, MethodFederation, MethodWarehouse} }

// String names the method as the paper's legends do.
func (m Method) String() string {
	switch m {
	case MethodIVQP:
		return "IVQP"
	case MethodFederation:
		return "Federation"
	case MethodWarehouse:
		return "Data Warehouse"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Table is a rendered experiment result: one figure panel or table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Deployment is one configured system under test: a placement, a
// replication plan, and the resulting catalog.
type Deployment struct {
	Catalog  *federation.Catalog
	Tables   []core.TableID
	Replicas []core.TableID
}

// DeployConfig builds a Deployment.
type DeployConfig struct {
	Tables []core.TableID
	Sites  int
	Skewed bool
	// ReplicaCount selects how many tables are replicated locally:
	// 0 = none (the Federation deployment), -1 = all (the Data Warehouse
	// deployment), otherwise a random subset of that size (the hybrid).
	ReplicaCount int
	// Replicas, when non-nil, is an explicit replica set overriding the
	// ReplicaCount selection — the cluster bench places each shard's set
	// with the advisor and passes it here.
	Replicas []core.TableID
	// SyncMean is the mean of each table's exponential synchronization
	// cycle; required whenever replicas exist.
	SyncMean core.Duration
	// ScheduleHorizon bounds how far sync schedules are materialized.
	ScheduleHorizon core.Time
	// InitialSync prepends a completed synchronization at t=0 so replicas
	// are usable from the start (the warehouse baseline needs this).
	InitialSync bool
	Seed        int64
	// placement, when set, replaces the Sites/Skewed/Seed-derived placement:
	// the cluster bench's shards share one placement while each draws its
	// sync schedules from its own Seed.
	placement *federation.Placement
}

// BuildDeployment materializes the deployment: placement, replica set,
// one exponential synchronization schedule per replica, and the catalog.
func BuildDeployment(cfg DeployConfig) (*Deployment, error) {
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("bench: deployment needs tables")
	}
	placement := cfg.placement
	var err error
	switch {
	case placement != nil:
	case cfg.Sites < 1:
		return nil, fmt.Errorf("bench: deployment needs at least one site")
	case cfg.Skewed:
		placement, err = federation.SkewedPlacement(cfg.Tables, cfg.Sites, cfg.Seed)
	default:
		placement, err = federation.UniformPlacement(cfg.Tables, cfg.Sites, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}

	var replicas []core.TableID
	switch {
	case cfg.Replicas != nil:
		replicas = append(replicas, cfg.Replicas...)
	case cfg.ReplicaCount == 0:
	case cfg.ReplicaCount == -1:
		replicas = append(replicas, cfg.Tables...)
	default:
		replicas, err = federation.ChooseReplicas(cfg.Tables, cfg.ReplicaCount, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
	}

	if len(replicas) > 0 && cfg.SyncMean <= 0 {
		return nil, fmt.Errorf("bench: replicas configured without a sync mean")
	}
	horizon := cfg.ScheduleHorizon
	if horizon <= 0 {
		horizon = 1e5
	}
	mgr := replication.NewManager()
	for i, id := range replicas {
		sched, err := replication.Exponential(cfg.SyncMean, cfg.Seed+100+int64(i), horizon)
		if err != nil {
			return nil, err
		}
		times := sched.Times
		if cfg.InitialSync {
			times = append([]core.Time{0}, times...)
		}
		if err := mgr.Register(id, replication.Schedule{Times: times}); err != nil {
			return nil, err
		}
	}
	catalog, err := federation.NewCatalog(placement, mgr)
	if err != nil {
		return nil, err
	}
	return &Deployment{Catalog: catalog, Tables: cfg.Tables, Replicas: replicas}, nil
}

// Strategy builds the dispatch strategy for a method over this deployment.
func (d *Deployment) Strategy(m Method, cost core.CostModel, rates core.DiscountRates, horizon core.Duration) (scheduler.Strategy, error) {
	switch m {
	case MethodIVQP:
		planner, err := core.NewPlanner(cost, core.PlannerConfig{Rates: rates, Horizon: horizon})
		if err != nil {
			return nil, err
		}
		return &scheduler.IVQPStrategy{Planner: planner, Catalog: d.Catalog, Horizon: horizon}, nil
	case MethodFederation:
		return &scheduler.FixedStrategy{Catalog: d.Catalog, Cost: cost, Kind: core.AccessBase}, nil
	case MethodWarehouse:
		return &scheduler.FixedStrategy{Catalog: d.Catalog, Cost: cost, Kind: core.AccessReplica, FallbackToBase: true}, nil
	default:
		return nil, fmt.Errorf("bench: unknown method %d", int(m))
	}
}

// replay is the one single-engine DES run: it mounts a scheduling engine
// on a fresh simulator with model execution (PlanExecutor), schedules
// every arrival, drains the event queue, and returns the recorded
// outcomes in decision order plus how many arrivals a full admission
// queue refused. cfg supplies the policies; Clock, Executor and
// RecordOutcomes are filled in here.
func replay(cfg scheduler.EngineConfig, epsilon float64, queries []core.Query) ([]scheduler.Outcome, int, error) {
	s := sim.New()
	clock := scheduler.SimClock{Sim: s}
	cfg.Clock = clock
	cfg.Executor = scheduler.PlanExecutor{Clock: clock, Rates: cfg.Rates}
	cfg.RecordOutcomes = true
	eng, err := scheduler.NewEngine(cfg)
	if err != nil {
		return nil, 0, err
	}
	eng.SetEpsilon(epsilon)
	refused := 0
	for _, q := range queries {
		s.ScheduleAt(q.SubmitAt, func() {
			if !eng.Submit(q, nil) {
				refused++
			}
		})
	}
	s.Run()
	if err := eng.Err(); err != nil {
		return nil, 0, err
	}
	if p := eng.Pending(); p != 0 {
		return nil, 0, fmt.Errorf("bench: %d queries neither completed nor shed", p)
	}
	return eng.Outcomes(), refused, nil
}

// summarize folds recorded outcomes into the summary fields of a
// ScenarioResult — the one place an outcome is classified as unplannable
// (Err), shed (Expired) or completed, and the one place the IV total and
// the latency statistics are computed. Each argument is one engine's
// outcomes: IV is accumulated per engine and the subtotals added in
// order, so a cluster's total is the sum of its shard totals.
func summarize(perEngine ...[]scheduler.Outcome) ScenarioResult {
	var res ScenarioResult
	var cls, sls, ivs []float64
	for _, outcomes := range perEngine {
		var total float64
		for _, o := range outcomes {
			switch {
			case o.Err != nil:
				res.Unplannable++
			case o.Expired:
				res.Shed++
			default:
				cls = append(cls, o.Latencies.CL)
				sls = append(sls, o.Latencies.SL)
				ivs = append(ivs, o.Value)
				total += o.Value
			}
		}
		res.TotalIV += total
	}
	res.Completed = len(ivs)
	if len(ivs) > 0 {
		res.MeanIV = stats.Mean(ivs)
		res.MeanCL = stats.Mean(cls)
		res.P95CL = stats.Percentile(cls, 95)
		res.MeanSL = stats.Mean(sls)
		res.P95SL = stats.Percentile(sls, 95)
	}
	return res
}

// RunStream replays a query stream through the dispatcher's policy (every
// query must plan; no expiry) and returns the outcomes.
func RunStream(strategy scheduler.Strategy, queries []core.Query, rates core.DiscountRates, slots int, aging core.Aging) ([]scheduler.Outcome, error) {
	outcomes, _, err := replay(scheduler.EngineConfig{
		Strategy: strategy, Rates: rates, Slots: slots, Aging: aging, HaltOnPlanError: true,
	}, 0, queries)
	return outcomes, err
}

// WriteJSON emits a result artifact as indented JSON — one key per line,
// so text tools can audit or tamper with individual fields in CI negative
// tests.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// methodMeans replays the stream once per comparison method over this
// deployment — the methods differ only in plan choice, so IVQP's plan
// space contains every baseline plan — and returns each method's mean
// information value.
func (d *Deployment) methodMeans(cost core.CostModel, rates core.DiscountRates, horizon core.Duration, slots int, queries []core.Query) (map[Method]float64, error) {
	means := make(map[Method]float64, len(Methods()))
	for _, m := range Methods() {
		strategy, err := d.Strategy(m, cost, rates, horizon)
		if err != nil {
			return nil, err
		}
		outcomes, err := RunStream(strategy, queries, rates, slots, core.Aging{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		means[m] = MeanValue(outcomes)
	}
	return means, nil
}

// MeanValue averages the information value over outcomes.
func MeanValue(outcomes []scheduler.Outcome) float64 {
	vals := make([]float64, len(outcomes))
	for i, o := range outcomes {
		vals[i] = o.Value
	}
	return stats.Mean(vals)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
