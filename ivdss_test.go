package ivdss_test

import (
	"math"
	"testing"
	"time"

	"ivdss"
	"ivdss/internal/netproto"
)

// TestFacadeEndToEnd exercises the whole public API surface the way a
// downstream user would: build a catalog, plan a query, compare against
// the baselines, and schedule a workload.
func TestFacadeEndToEnd(t *testing.T) {
	tables := []ivdss.TableID{"accounts", "trades", "positions", "limits"}
	placement, err := ivdss.UniformPlacement(tables, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := ivdss.NewReplicationManager()
	sched, err := ivdss.PeriodicSchedule(10, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("accounts", sched); err != nil {
		t.Fatal(err)
	}
	catalog, err := ivdss.NewCatalog(placement, mgr)
	if err != nil {
		t.Fatal(err)
	}

	rates := ivdss.DiscountRates{CL: .02, SL: .05}
	cost := &ivdss.CountModel{LocalProcess: 2, PerBaseTable: 3, TransmitFlat: 1}
	planner, err := ivdss.NewPlanner(cost, ivdss.PlannerConfig{Rates: rates, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}

	q := ivdss.Query{
		ID:            "exposure",
		Tables:        []ivdss.TableID{"accounts", "trades"},
		BusinessValue: 1,
		SubmitAt:      25,
	}
	snap, err := catalog.Snapshot(q.Tables, q.SubmitAt, 60)
	if err != nil {
		t.Fatal(err)
	}
	best, stats, err := planner.Best(q, snap, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlansEvaluated == 0 {
		t.Error("no plans evaluated")
	}

	fed, err := ivdss.FixedPlan(q, snap, q.SubmitAt, cost, func(ivdss.TableState) ivdss.AccessKind {
		return ivdss.AccessBase
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Value(rates) < fed.Value(rates)-1e-9 {
		t.Errorf("IVQP %v below federation %v", best.Value(rates), fed.Value(rates))
	}

	// Workload scheduling through the facade.
	workload := []ivdss.Query{
		{ID: "w1", Tables: []ivdss.TableID{"accounts"}, BusinessValue: 1, SubmitAt: 0},
		{ID: "w2", Tables: []ivdss.TableID{"positions", "limits"}, BusinessValue: 1, SubmitAt: 1},
		{ID: "w3", Tables: []ivdss.TableID{"trades"}, BusinessValue: 1, SubmitAt: 2},
	}
	ev := &ivdss.Evaluator{Planner: planner, Catalog: catalog, Horizon: 60}
	fifo, err := ivdss.ScheduleFIFO(workload, ev)
	if err != nil {
		t.Fatal(err)
	}
	mqo, err := ivdss.ScheduleMQO(workload, ev, ivdss.GAConfig{Seed: 1, Generations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if mqo.TotalValue < fifo.TotalValue-1e-9 {
		t.Errorf("MQO %v below FIFO %v", mqo.TotalValue, fifo.TotalValue)
	}
}

func TestFacadeInformationValue(t *testing.T) {
	got := ivdss.InformationValue(1, ivdss.Latencies{CL: 10, SL: 10}, ivdss.DiscountRates{CL: .1, SL: .1})
	if want := math.Pow(.9, 20); math.Abs(got-want) > 1e-12 {
		t.Errorf("IV = %v, want %v", got, want)
	}
	if b := ivdss.ToleratedCL(1, got, ivdss.DiscountRates{CL: .1, SL: .1}); math.Abs(b-20) > 1e-9 {
		t.Errorf("ToleratedCL = %v, want 20", b)
	}
}

func TestFacadeAging(t *testing.T) {
	a := ivdss.Aging{Coefficient: .01, Exponent: 2}
	if a.Boost(3) != .09 {
		t.Errorf("Boost = %v", a.Boost(3))
	}
}

func TestFacadeGA(t *testing.T) {
	order, fit, _, err := ivdss.OptimizeOrder(4, func(o []int) (float64, error) {
		// Reward descending order.
		score := 0.0
		for i, g := range o {
			if g == len(o)-1-i {
				score++
			}
		}
		return score, nil
	}, ivdss.GAConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 4 {
		t.Errorf("GA missed the trivial optimum: %v %v", order, fit)
	}
}

// TestFacadeBreadth touches the wrapper surface not exercised elsewhere in
// this package's tests.
func TestFacadeBreadth(t *testing.T) {
	tables := []ivdss.TableID{"a", "b", "c", "d"}
	if _, err := ivdss.SkewedPlacement(tables, 2, 1); err != nil {
		t.Error(err)
	}
	picked, err := ivdss.ChooseReplicas(tables, 2, 1)
	if err != nil || len(picked) != 2 {
		t.Errorf("ChooseReplicas = %v, %v", picked, err)
	}
	if _, err := ivdss.ExponentialSchedule(5, 1, 100); err != nil {
		t.Error(err)
	}
	if _, err := ivdss.NewCalibratedModel(&ivdss.CountModel{}); err != nil {
		t.Error(err)
	}
	if _, err := ivdss.NewAdvisor(ivdss.AdvisorConfig{}); err == nil {
		t.Error("empty advisor config accepted")
	}
	if _, err := ivdss.NewRouter(ivdss.RouterConfig{}); err == nil {
		t.Error("empty router config accepted")
	}
	if srv := ivdss.NewRemoteServer(); srv == nil {
		t.Error("nil remote server")
	}
	if _, err := ivdss.NewDSSServer(ivdss.DSSConfig{}); err == nil {
		t.Error("empty DSS config accepted")
	}
	sim := ivdss.NewSimulator()
	if sim.Now() != 0 {
		t.Error("fresh simulator clock")
	}
	if _, err := ivdss.NewSimEngine(sim, nil, ivdss.DiscountRates{}, 1, ivdss.Aging{}); err == nil {
		t.Error("nil strategy accepted")
	}
}

// TestFacadeServerFlow drives the one DSS through the facade: a remote
// site on loopback, a DSS replicating its table, and a query over the wire.
func TestFacadeServerFlow(t *testing.T) {
	remote := ivdss.NewRemoteServer()
	kv := &ivdss.RelTable{
		Name:   "kv",
		Schema: ivdss.RelSchema{Cols: []ivdss.RelColumn{{Name: "k", Type: 1}, {Name: "v", Type: 1}}},
		Rows:   []ivdss.RelRow{{{T: 1, I: 1}, {T: 1, I: 10}}, {{T: 1, I: 2}, {T: 1, I: 20}}},
	}
	if err := remote.AddTable(kv); err != nil {
		t.Fatal(err)
	}
	remoteAddr, err := remote.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	dss, err := ivdss.NewDSSServer(ivdss.DSSConfig{
		Remotes:   map[ivdss.SiteID]string{1: remoteAddr},
		Replicate: map[ivdss.TableID]time.Duration{"kv": time.Hour},
		Rates:     ivdss.DiscountRates{CL: .05, SL: .05},
	})
	if err != nil {
		t.Fatal(err)
	}
	dssAddr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dss.Close()

	resp, err := netproto.Call(dssAddr, &ivdss.Request{
		Kind: netproto.KindExec, SQL: "SELECT sum(v) AS s FROM kv", BusinessValue: 1,
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Result.Rows[0][0].F; got != 30 {
		t.Errorf("sum = %v, want 30", got)
	}
	if resp.Meta.PlanSignature == "" || dss.CalibrationLen() != 1 {
		t.Errorf("plan %q, %d calibrated configurations; want a plan and one", resp.Meta.PlanSignature, dss.CalibrationLen())
	}
}
