package bench

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ivdss/internal/core"
	"ivdss/internal/metrics"
	"ivdss/internal/relation"
	"ivdss/internal/replsync"
	"ivdss/internal/scheduler"
	"ivdss/internal/sim"
	"ivdss/internal/stats"
)

// Sync cadence experiment: the live replication engine (internal/replsync)
// driven by the discrete event simulator, comparing a static uniform
// cadence against the IV-adaptive controller under a skewed workload. A
// small hot set of tables receives most of the query traffic; the adaptive
// controller observes the information value each report loses to replica
// staleness and re-divides the fixed total sync rate toward the hot
// tables. The figure reports the total workload IV of both variants and
// the adaptive run's sync traffic.

// SyncConfig parameterizes the cadence experiment.
type SyncConfig struct {
	// Tables is the replicated table count; HotTables of them receive
	// HotFraction of the query traffic.
	Tables      int
	HotTables   int
	HotFraction float64
	// NQueries arrive as a Poisson stream with mean interarrival QueryMean
	// (experiment minutes).
	NQueries  int
	QueryMean core.Duration
	// Period is the uniform starting sync period per table; the total sync
	// rate Tables/Period is what the adaptive controller re-divides.
	Period core.Duration
	// AdjustEvery is the controller interval.
	AdjustEvery core.Duration
	// ProcessCL is each report's computational latency (constant — the
	// experiment isolates the staleness term).
	ProcessCL core.Duration
	// RowsPerMin and RowBytes model each table's append rate, pricing the
	// sync payloads. BaseRows is the table size at t=0.
	RowsPerMin float64
	RowBytes   int64
	BaseRows   uint64
	// Budget caps sync traffic in bytes per experiment minute (0 =
	// unlimited), exercising deferral accounting.
	Budget float64
	Rates  core.DiscountRates
	Seed   int64
}

// DefaultSyncConfig: 8 tables on a shared 1-sync-per-minute budget, 2 of
// them drawing 80% of the traffic.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{
		Tables:      8,
		HotTables:   2,
		HotFraction: .8,
		NQueries:    400,
		QueryMean:   .25,
		Period:      8,
		AdjustEvery: 10,
		ProcessCL:   .5,
		RowsPerMin:  5,
		RowBytes:    8,
		BaseRows:    200,
		Rates:       core.DiscountRates{CL: .05, SL: .08},
		Seed:        1,
	}
}

// QuickSyncConfig is the CI-sized variant.
func QuickSyncConfig() SyncConfig {
	cfg := DefaultSyncConfig()
	cfg.NQueries = 150
	return cfg
}

// SyncTotals are the totals every sync-model variant reports: the value
// the stream collected and the traffic the agent spent.
type SyncTotals struct {
	TotalIV      float64 `json:"total_iv"`
	MeanSL       float64 `json:"mean_sl_minutes"`
	Syncs        float64 `json:"syncs_total"`
	SyncBytes    float64 `json:"sync_bytes_total"`
	SyncDeferred float64 `json:"sync_deferred_total"`
}

// cells renders the totals as the leading cells of a variant's table row.
func (t SyncTotals) cells(variant string) []string {
	return []string{
		variant,
		f3(t.TotalIV),
		f1(t.MeanSL),
		fmt.Sprintf("%.0f", t.Syncs),
		fmt.Sprintf("%.0f", t.SyncBytes),
		fmt.Sprintf("%.0f", t.SyncDeferred),
	}
}

// SyncVariant is one cadence policy's outcome.
type SyncVariant struct {
	SyncTotals
	CadenceAdjustments float64 `json:"cadence_adjustments_total"`
	// HotPeriod/ColdPeriod are the mean final periods of the hot and cold
	// table groups — the cadence the controller converged to.
	HotPeriod  float64 `json:"hot_period_minutes"`
	ColdPeriod float64 `json:"cold_period_minutes"`
}

// SyncResult is the experiment outcome.
type SyncResult struct {
	Static   SyncVariant `json:"static"`
	Adaptive SyncVariant `json:"adaptive"`
	// GainPct is (Adaptive.TotalIV − Static.TotalIV) / Static.TotalIV × 100.
	GainPct float64 `json:"gain_pct"`
}

// modelFetcher prices sync payloads from a per-table append model without
// materializing rows: versions grow RowsPerMin per minute from BaseRows.
// A replica unit's snapshot ships every row and its delta the append
// suffix; a view unit ships the same suffix filtered by the view's
// selectivity and projected to its column fraction. Versions always count
// base rows, so both kinds share one cursor space — exactly the live wire
// contract.
type modelFetcher struct {
	clock scheduler.Clock
	syncModel
}

func (f modelFetcher) version() uint64 {
	return f.cfg.BaseRows + uint64(f.cfg.RowsPerMin*float64(f.clock.Now()))
}

// passed is the cumulative count of rows passing the view predicate among
// the first v base rows — a deterministic floor so successive deltas sum
// exactly to the snapshot.
func (f modelFetcher) passed(v uint64) uint64 {
	return uint64(math.Floor(f.selectivity * float64(v)))
}

func (f modelFetcher) viewRowBytes() int64 {
	b := int64(math.Round(f.columnFraction * float64(f.cfg.RowBytes)))
	if b < 1 {
		b = 1
	}
	return b
}

func (f modelFetcher) Snapshot(_ context.Context, id core.TableID) (replsync.Snapshot, error) {
	v := f.version()
	if _, isView := core.ViewOfUnit(id); isView {
		return replsync.Snapshot{
			Table:   relation.NewTable(string(id), relation.Schema{}),
			Version: v,
			Bytes:   int64(f.passed(v)) * f.viewRowBytes(),
		}, nil
	}
	return replsync.Snapshot{Version: v, Bytes: int64(v) * f.cfg.RowBytes}, nil
}

func (f modelFetcher) Delta(_ context.Context, id core.TableID, cursor uint64) (replsync.Delta, error) {
	v := f.version()
	if cursor > v {
		return replsync.Delta{Resync: true}, nil
	}
	if _, isView := core.ViewOfUnit(id); isView {
		rows := f.passed(v) - f.passed(cursor)
		return replsync.Delta{
			Rows:    make([]relation.Row, rows),
			Version: v,
			Bytes:   int64(rows) * f.viewRowBytes(),
		}, nil
	}
	return replsync.Delta{Version: v, Bytes: int64(v-cursor) * f.cfg.RowBytes}, nil
}

// nopApplier discards payloads: the Manager carries the freshness state
// the experiment measures.
type nopApplier struct{}

func (nopApplier) ApplySnapshot(core.TableID, replsync.Snapshot, core.Time) error { return nil }
func (nopApplier) ApplyDelta(core.TableID, replsync.Delta, core.Time) error       { return nil }
func (nopApplier) Drop(core.TableID)                                              {}

// RunSync executes the experiment: the identical skewed stream against a
// static uniform cadence and the adaptive controller.
func RunSync(cfg SyncConfig) (SyncResult, error) {
	var res SyncResult
	st, err := runSyncVariant(cfg, false)
	if err != nil {
		return res, err
	}
	ad, err := runSyncVariant(cfg, true)
	if err != nil {
		return res, err
	}
	res.Static, res.Adaptive = st, ad
	if st.TotalIV > 0 {
		res.GainPct = (ad.TotalIV - st.TotalIV) / st.TotalIV * 100
	}
	return res, nil
}

func runSyncVariant(cfg SyncConfig, adaptive bool) (SyncVariant, error) {
	run, err := syncModel{
		cfg:    cfg,
		unitCL: func(core.TableID) core.Duration { return cfg.ProcessCL },
		tune: func(c *replsync.Config) {
			c.Adaptive = adaptive
			c.AdjustEvery = cfg.AdjustEvery
			c.MinPeriod = cfg.Period / 8
			c.MaxPeriod = cfg.Period * 8
		},
	}.run()
	return SyncVariant{
		SyncTotals:         run.SyncTotals,
		CadenceAdjustments: run.metrics["cadence_adjustments_total"],
		HotPeriod:          run.hotPeriod,
		ColdPeriod:         run.coldPeriod,
	}, err
}

func syncTableID(i int) core.TableID {
	return core.TableID(fmt.Sprintf("t%02d", i))
}

// syncModel is the stochastic periodic-update world -fig sync and -fig ivm
// share: a replsync agent on the DES clock over cfg.Tables sync units, a
// model fetcher pricing their payloads, and a Poisson stream whose every
// arrival reads one unit — a hot one with probability HotFraction — and is
// scored by the staleness it finds there.
type syncModel struct {
	cfg SyncConfig
	// units names the sync unit per table index; nil means plain replicas.
	units []core.TableID
	// selectivity is the fraction of appended rows a view unit's predicate
	// passes, columnFraction the fraction of each row's bytes it keeps;
	// replica units ignore both.
	selectivity, columnFraction float64
	// tune adjusts the agent configuration (nil leaves the static cadence).
	tune func(*replsync.Config)
	// unitCL is the computational latency of a report served from a unit.
	unitCL func(core.TableID) core.Duration
}

// syncRun is what one replay of the model yields: the totals, the agent's
// flattened metrics, and the mean final periods of the hot and cold units.
type syncRun struct {
	SyncTotals
	metrics               map[string]float64
	hotPeriod, coldPeriod float64
}

// run replays the stream against the agent.
func (m syncModel) run() (syncRun, error) {
	var out syncRun
	cfg := m.cfg
	if cfg.Tables < 2 || cfg.HotTables < 1 || cfg.HotTables >= cfg.Tables {
		return out, fmt.Errorf("bench: need at least one hot and one cold table, got %d/%d", cfg.HotTables, cfg.Tables)
	}
	if cfg.HotFraction <= 0 || cfg.HotFraction >= 1 {
		return out, fmt.Errorf("bench: hot fraction %v outside (0, 1)", cfg.HotFraction)
	}
	units := m.units
	if units == nil {
		units = make([]core.TableID, cfg.Tables)
		for i := range units {
			units[i] = syncTableID(i)
		}
	}
	s := sim.New()
	clock := scheduler.SimClock{Sim: s}
	tables := make([]replsync.TableConfig, len(units))
	for i, id := range units {
		tables[i] = replsync.TableConfig{ID: id, Period: cfg.Period}
	}
	reg := metrics.NewRegistry()
	acfg := replsync.Config{
		Clock:  clock,
		Fetch:  modelFetcher{clock: clock, syncModel: m},
		Apply:  nopApplier{},
		Tables: tables,
		Budget: cfg.Budget,
		Stats:  reg,
	}
	if m.tune != nil {
		m.tune(&acfg)
	}
	agent, err := replsync.New(acfg)
	if err != nil {
		return out, err
	}
	for _, tc := range tables {
		if err := agent.SyncNow(tc.ID); err != nil {
			return out, err
		}
	}
	agent.Start()

	// The skewed stream: identical arrivals and table choices in every
	// variant (seeded independently of the sync engine's behaviour).
	src := stats.NewSource(cfg.Seed)
	arrivals := make([]core.Time, cfg.NQueries)
	targets := make([]core.TableID, cfg.NQueries)
	at := core.Time(0)
	for i := range arrivals {
		at += src.Expo(float64(cfg.QueryMean))
		arrivals[i] = at
		if src.Float64() < cfg.HotFraction {
			targets[i] = units[src.Intn(cfg.HotTables)]
		} else {
			targets[i] = units[cfg.HotTables+src.Intn(cfg.Tables-cfg.HotTables)]
		}
	}

	var sls []float64
	for i := range arrivals {
		s.ScheduleAt(arrivals[i], func() {
			now := s.Now()
			unit := targets[i]
			// The staleness the report finds is the agent's own account of
			// the unit's last applied payload.
			sl := now
			if st, ok := agent.StateFor(unit, now, 0); ok {
				sl = now - st.LastSync
			}
			// The report's SL also includes its own processing time: the
			// replica ages while the query runs.
			cl := m.unitCL(unit)
			lat := core.Latencies{CL: cl, SL: sl + cl}
			value := core.InformationValue(1, lat, cfg.Rates)
			out.TotalIV += value
			sls = append(sls, lat.SL)
			fresh := core.InformationValue(1, core.Latencies{CL: lat.CL}, cfg.Rates)
			agent.ObserveLoss([]core.TableID{unit}, fresh-value)
		})
	}
	// The periodic cycles re-arm forever; bound the run at the stream's end.
	s.RunUntil(arrivals[len(arrivals)-1] + 1)
	agent.Stop()

	if len(sls) != cfg.NQueries {
		return out, fmt.Errorf("bench: sync model scored %d of %d queries", len(sls), cfg.NQueries)
	}
	out.MeanSL = stats.Mean(sls)
	out.metrics = reg.Flatten()
	out.Syncs = out.metrics["syncs_total"]
	out.SyncBytes = out.metrics["sync_bytes_total"]
	out.SyncDeferred = out.metrics["sync_deferred_total"]
	for _, st := range agent.Status() {
		if slices.Contains(units[:cfg.HotTables], st.Table) {
			out.hotPeriod += st.Period
		} else {
			out.coldPeriod += st.Period
		}
	}
	out.hotPeriod /= float64(cfg.HotTables)
	out.coldPeriod /= float64(cfg.Tables - cfg.HotTables)
	return out, nil
}

// Tables renders the experiment as a summary table.
func (r SyncResult) Tables() []Table {
	row := func(name string, v SyncVariant) []string {
		return append(v.cells(name), fmt.Sprintf("%.0f", v.CadenceAdjustments), f1(v.HotPeriod), f1(v.ColdPeriod))
	}
	return []Table{{
		Title:   "Sync cadence: static uniform vs IV-adaptive (skewed workload)",
		Columns: []string{"variant", "total IV", "mean SL", "syncs", "bytes", "deferred", "adjusts", "hot period", "cold period"},
		Rows: [][]string{
			row("static", r.Static),
			row("adaptive", r.Adaptive),
			{"gain", fmt.Sprintf("%+.1f%%", r.GainPct), "", "", "", "", "", "", ""},
		},
	}}
}
