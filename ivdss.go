// Package ivdss is an information-value-driven near-real-time decision
// support system: a Go reproduction of Yan, Li and Xu, "Information
// Value-driven Near Real-Time Decision Support Systems" (ICDCS 2009).
//
// A report's information value is its business value discounted by two
// latencies,
//
//	IV = BusinessValue × (1−λCL)^CL × (1−λSL)^SL
//
// where CL is computational latency (queuing + processing + transmission)
// and SL is synchronization latency (oldest data freshness to result
// receipt). The library plans queries over a hybrid federation — remote
// base tables plus periodically synchronized local replicas — to maximize
// IV rather than response time, schedules workloads of conflicting queries
// with a genetic algorithm, and prevents starvation with an aging rule.
//
// This root package re-exports the stable API from the internal packages:
//
//   - the IV model and the IVQP planner (internal/core)
//   - cost models (internal/costmodel)
//   - replication schedules and the replica manager (internal/replication)
//   - placement, catalog and the view registry (internal/federation)
//   - workload scheduling: GA MQO, FIFO, the aging dispatcher
//     (internal/scheduler)
//   - the relational engine and SQL subset (internal/relation,
//     internal/sqlmini)
//   - live TCP servers (internal/server, internal/netproto)
//   - workload substrates (internal/tpch, internal/synth)
//
// See examples/ for runnable end-to-end scenarios and cmd/ for the server,
// client, and benchmark binaries.
package ivdss

import (
	"ivdss/internal/advisor"
	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/replication"
	"ivdss/internal/router"
	"ivdss/internal/scheduler"
	"ivdss/internal/server"
	"ivdss/internal/sim"
	"ivdss/internal/sqlmini"
)

// Core information-value model.
type (
	// Time is a point on the experiment clock, in minutes.
	Time = core.Time
	// Duration is a span of experiment time, in minutes.
	Duration = core.Duration
	// TableID names a base table in the federation catalog.
	TableID = core.TableID
	// SiteID identifies a server; 0 is the local DSS, remotes start at 1.
	SiteID = core.SiteID
	// Query is a decision-support query as the planner sees it.
	Query = core.Query
	// DiscountRates carries λCL and λSL.
	DiscountRates = core.DiscountRates
	// Latencies are one report's computational and synchronization
	// latencies.
	Latencies = core.Latencies
	// Aging is the anti-starvation adjustment of Section 3.3.
	Aging = core.Aging
)

// Planner types.
type (
	// Planner selects maximal-information-value plans.
	Planner = core.Planner
	// PlannerConfig parameterizes plan search.
	PlannerConfig = core.PlannerConfig
	// Plan is a fully specified way to evaluate one query.
	Plan = core.Plan
	// AccessKind says where a plan reads one table from.
	AccessKind = core.AccessKind
	// TableState is the catalog snapshot the planner receives per table.
	TableState = core.TableState
	// ReplicaState describes the local replica of one table.
	ReplicaState = core.ReplicaState
	// CostEstimate decomposes a plan's computational latency.
	CostEstimate = core.CostEstimate
	// CostModel estimates computational-latency components.
	CostModel = core.CostModel
)

// AccessBase reads the authoritative base table at its remote site.
const AccessBase = core.AccessBase

// InformationValue computes BusinessValue × (1−λCL)^CL × (1−λSL)^SL.
func InformationValue(businessValue float64, lat Latencies, r DiscountRates) float64 {
	return core.InformationValue(businessValue, lat, r)
}

// ToleratedCL returns the largest CL that still reaches the target value
// at zero SL — the scatter-and-gather search bound.
func ToleratedCL(businessValue, target float64, r DiscountRates) Duration {
	return core.ToleratedCL(businessValue, target, r)
}

// NewPlanner validates the configuration and returns a Planner.
func NewPlanner(cost CostModel, cfg PlannerConfig) (*Planner, error) {
	return core.NewPlanner(cost, cfg)
}

// FixedPlan builds a single-access-kind plan (the baselines' shape).
func FixedPlan(q Query, snapshot []TableState, now Time, cost CostModel, choose func(TableState) AccessKind) (Plan, error) {
	return core.FixedPlan(q, snapshot, now, cost, choose)
}

// Cost models.
type (
	// CountModel charges by the number of remote base tables and sites.
	CountModel = costmodel.CountModel
	// CalibratedModel serves measured per-configuration costs.
	CalibratedModel = costmodel.CalibratedModel
)

// NewCalibratedModel returns an empty calibration cache over a fallback.
func NewCalibratedModel(fallback CostModel) (*CalibratedModel, error) {
	return costmodel.NewCalibratedModel(fallback)
}

// Replication.
type (
	// SyncSchedule is a table's synchronization completion times.
	SyncSchedule = replication.Schedule
	// ReplicationManager tracks every replicated table's sync state.
	ReplicationManager = replication.Manager
)

// NewReplicationManager returns an empty replication manager.
func NewReplicationManager() *ReplicationManager { return replication.NewManager() }

// PeriodicSchedule returns a fixed-period synchronization schedule.
func PeriodicSchedule(period Duration, offset, until Time) (SyncSchedule, error) {
	return replication.Periodic(period, offset, until)
}

// ExponentialSchedule returns a schedule with exponential inter-sync gaps.
func ExponentialSchedule(mean Duration, seed int64, until Time) (SyncSchedule, error) {
	return replication.Exponential(mean, seed, until)
}

// Federation.
type (
	// Placement maps base tables to remote sites.
	Placement = federation.Placement
	// Catalog combines placement and replication state for the planner.
	Catalog = federation.Catalog
)

// NewPlacement builds a placement from an explicit assignment.
func NewPlacement(siteOf map[TableID]SiteID) (*Placement, error) {
	return federation.NewPlacement(siteOf)
}

// UniformPlacement spreads tables across sites round-robin.
func UniformPlacement(tables []TableID, nSites int, seed int64) (*Placement, error) {
	return federation.UniformPlacement(tables, nSites, seed)
}

// SkewedPlacement places half the tables on site 1, a quarter on site 2, …
func SkewedPlacement(tables []TableID, nSites int, seed int64) (*Placement, error) {
	return federation.SkewedPlacement(tables, nSites, seed)
}

// ChooseReplicas picks k tables to replicate locally.
func ChooseReplicas(tables []TableID, k int, seed int64) ([]TableID, error) {
	return federation.ChooseReplicas(tables, k, seed)
}

// NewCatalog wires a placement to a replication manager.
func NewCatalog(p *Placement, m *ReplicationManager) (*Catalog, error) {
	if m == nil {
		return federation.NewCatalog(p, nil) // not a non-nil interface holding a nil manager
	}
	return federation.NewCatalog(p, m)
}

// Scheduling.
type (
	// Evaluator deterministically scores a workload execution order.
	Evaluator = scheduler.Evaluator
	// SequenceResult is the outcome of one execution order.
	SequenceResult = scheduler.SequenceResult
	// MQOResult is the outcome of multi-query optimization.
	MQOResult = scheduler.MQOResult
	// GAConfig parameterizes the genetic algorithm.
	GAConfig = scheduler.GAConfig
	// SchedulingEngine runs queries through DSS execution slots.
	SchedulingEngine = scheduler.Engine
	// Strategy chooses an execution plan at dispatch time.
	Strategy = scheduler.Strategy
	// IVQPStrategy plans with the information-value-driven planner.
	IVQPStrategy = scheduler.IVQPStrategy
)

// Simulator is the discrete event simulator that drives NewSimEngine runs
// (and the benchmark harness).
type Simulator = sim.Simulator

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator { return sim.New() }

// NewSimEngine returns the scheduling engine mounted on the simulator:
// schedule each arrival's Submit on s, then run it.
func NewSimEngine(s *Simulator, strategy Strategy, rates DiscountRates, slots int, aging Aging) (*SchedulingEngine, error) {
	return scheduler.NewSimEngine(s, strategy, rates, slots, aging)
}

// ScheduleMQO orders overlapping workloads with the genetic algorithm.
func ScheduleMQO(queries []Query, ev *Evaluator, cfg GAConfig) (MQOResult, error) {
	return scheduler.ScheduleMQO(queries, ev, cfg)
}

// ScheduleFIFO runs queries in submission order (the "without MQO"
// baseline).
func ScheduleFIFO(queries []Query, ev *Evaluator) (SequenceResult, error) {
	return scheduler.ScheduleFIFO(queries, ev)
}

// OptimizeOrder runs the GA over permutations of [0, n). The GA reuses
// the slices it passes to fitness, so fitness must not keep order past
// its call; it should copy order if it needs it later.
func OptimizeOrder(n int, fitness func(order []int) (float64, error), cfg GAConfig) ([]int, float64, scheduler.GAStats, error) {
	return scheduler.OptimizeOrder(n, fitness, cfg)
}

// Placement advisor (the paper's future work, implemented).
type (
	// Advisor recommends replication plans for a workload.
	Advisor = advisor.Advisor
	// AdvisorConfig parameterizes the advisor.
	AdvisorConfig = advisor.Config
)

// NewAdvisor validates the config and returns an Advisor.
func NewAdvisor(cfg AdvisorConfig) (*Advisor, error) { return advisor.New(cfg) }

// Pre-calculated routing (Section 3.1 of the paper).
type (
	// Router serves precomputed plan shapes for registered queries.
	Router = router.Router
	// RouterConfig parameterizes the router.
	RouterConfig = router.Config
)

// NewRouter validates the config and returns an empty Router.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// Relational engine and SQL subset.
type (
	// RelTable is an in-memory relation.
	RelTable = relation.Table
	// RelSchema is an ordered list of typed columns.
	RelSchema = relation.Schema
	// RelColumn is one named, typed attribute.
	RelColumn = relation.Column
	// RelRow is one tuple.
	RelRow = relation.Row
	// SQLCatalog supplies the SQL executor with tables by name.
	SQLCatalog = sqlmini.Catalog
)

// RunSQL parses and executes a query of the supported SQL subset.
func RunSQL(query string, cat SQLCatalog) (*RelTable, error) { return sqlmini.Run(query, cat) }

// Live servers and client protocol.
type (
	// RemoteServer serves base tables over TCP.
	RemoteServer = server.RemoteServer
	// DSSServer is the live federation/DSS server.
	DSSServer = server.DSSServer
	// DSSConfig wires a DSS server to its remote sites.
	DSSConfig = server.DSSConfig
	// Request is the client-to-server wire message.
	Request = netproto.Request
)

// NewRemoteServer returns a remote site server with no tables.
func NewRemoteServer() *RemoteServer { return server.NewRemoteServer() }

// NewDSSServer builds a live DSS server from its config.
func NewDSSServer(cfg DSSConfig) (*DSSServer, error) { return server.NewDSSServer(cfg) }
