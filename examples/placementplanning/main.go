// Placement planning: the data placement advisor (the paper's future
// work) plus pre-calculated routing (Section 3.1) working together.
//
// A retailer's DSS team has the budget to replicate three of its nine
// operational tables. The advisor scores replication plans against a
// representative workload (Monte Carlo over the synchronization process)
// and recommends which tables earn their keep; the dashboard queries are
// then registered with the router so their plans resolve in microseconds
// instead of a full search per request.
//
//	go run ./examples/placementplanning
package main

import (
	"fmt"
	"log"
	"time"

	"ivdss"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tables := []ivdss.TableID{
		"sales", "stores", "products", "suppliers", "shipments",
		"returns", "staff", "promotions", "budgets",
	}
	placement, err := ivdss.UniformPlacement(tables, 3, 1)
	if err != nil {
		return err
	}

	rates := ivdss.DiscountRates{CL: .04, SL: .04}
	cost := &ivdss.CountModel{LocalProcess: 2, PerBaseTable: 3, TransmitFlat: 1}

	// The representative workload: the dashboards the team actually runs,
	// weighted by how often each fires. Sales is in almost everything.
	var workload []ivdss.Query
	add := func(id string, times int, tbls ...ivdss.TableID) {
		for i := 0; i < times; i++ {
			workload = append(workload, ivdss.Query{
				ID:            fmt.Sprintf("%s#%d", id, i),
				Tables:        tbls,
				BusinessValue: 1,
				SubmitAt:      ivdss.Time(len(workload)) * 5,
			})
		}
	}
	add("daily-revenue", 8, "sales", "stores")
	add("stock-outs", 6, "sales", "products", "shipments")
	add("supplier-lag", 3, "suppliers", "shipments")
	add("returns-rate", 3, "sales", "returns")
	add("promo-lift", 2, "sales", "promotions", "products")
	add("budget-variance", 1, "budgets", "staff")

	advisor, err := ivdss.NewAdvisor(ivdss.AdvisorConfig{
		Cost:     cost,
		Rates:    rates,
		SyncMean: 12, // the replication manager can sustain ~12-minute cycles
		Horizon:  40,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	rec, err := advisor.RecommendReplicas(workload, placement, 3)
	if err != nil {
		return err
	}
	fmt.Printf("placement advisor (%d-query workload, budget 3, %v):\n",
		len(workload), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  expected workload IV with no replicas: %.3f\n", rec.BaselineIV)
	for i, step := range rec.Steps {
		fmt.Printf("  %d. replicate %-10s → expected IV %.3f (gain %+.3f)\n",
			i+1, step.Table, step.ExpectedIV, step.Gain)
	}
	fmt.Printf("  total improvement: %+.1f%%\n\n",
		(rec.FinalIV()-rec.BaselineIV)/rec.BaselineIV*100)

	// Register the hottest dashboard with the router: its plans are now a
	// table lookup for replicas within the router's QoS staleness window.
	router, err := ivdss.NewRouter(ivdss.RouterConfig{Cost: cost, Rates: rates})
	if err != nil {
		return err
	}
	dashboard := ivdss.Query{
		ID:            "daily-revenue",
		Tables:        []ivdss.TableID{"sales", "stores"},
		BusinessValue: 1,
	}
	sites := make([]ivdss.SiteID, len(dashboard.Tables))
	replicated := make([]bool, len(dashboard.Tables))
	chosen := map[ivdss.TableID]bool{}
	for _, id := range rec.Replicas {
		chosen[id] = true
	}
	for i, id := range dashboard.Tables {
		if sites[i], err = placement.SiteOf(id); err != nil {
			return err
		}
		replicated[i] = chosen[id]
	}
	const qosWindow = 24.0 // QoS: replicas never more than 24 minutes stale
	if err := router.Register(dashboard, sites, replicated, qosWindow); err != nil {
		return err
	}

	fmt.Printf("router: %q registered under a %.0f-minute QoS window\n", dashboard.ID, qosWindow)
	for _, staleness := range []ivdss.Duration{2, 11, 23} {
		now := ivdss.Time(100)
		snapshot := make([]ivdss.TableState, len(dashboard.Tables))
		for i, id := range dashboard.Tables {
			snapshot[i] = ivdss.TableState{ID: id, Site: sites[i]}
			if replicated[i] {
				snapshot[i].Replica = &ivdss.ReplicaState{
					LastSync:  now - staleness,
					NextSyncs: []ivdss.Time{now + qosWindow - staleness, now + 2*qosWindow - staleness},
				}
			}
		}
		begin := time.Now()
		plan, ok := router.Route(dashboard.ID, snapshot, now)
		if !ok {
			return fmt.Errorf("route refused at staleness %v", staleness)
		}
		fmt.Printf("  staleness %4.0f min → %-52s IV=%.3f (routed in %v)\n",
			staleness, plan.Signature(), plan.Value(rates), time.Since(begin).Round(time.Microsecond))
	}
	return nil
}
