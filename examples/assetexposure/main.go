// Asset exposure: the embedded federation engine with real query
// execution and measured-cost calibration.
//
// A bank computes per-desk asset exposure from positions (trading system,
// site 1), market prices (market-data system, site 2) and desk limits
// (risk system, site 2). Prices are replicated to the DSS on a fast cycle.
// The example distributes live relation data across in-process sites,
// calibrates the cost model by actually executing every base/replica
// configuration (the paper's "compile the query once per configuration,
// in advance"), then lets the planner pick plans at three moments of
// replica staleness and runs each chosen plan for real.
//
//	go run ./examples/assetexposure
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"ivdss"
	"ivdss/internal/relation"
)

const exposureSQL = `
	SELECT pos.po_desk, sum(pos.po_qty * pr.pr_price) AS exposure, max(lim.li_max) AS cap
	FROM positions pos, prices pr, limits lim
	WHERE pos.po_symbol = pr.pr_symbol AND pos.po_desk = lim.li_desk
	GROUP BY pos.po_desk
	ORDER BY exposure DESC`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Placement: positions at the trading site, prices and limits at the
	// market/risk site; prices replicated every 5 minutes.
	placement, err := ivdss.NewPlacement(map[ivdss.TableID]ivdss.SiteID{
		"positions": 1, "prices": 2, "limits": 2,
	})
	if err != nil {
		return err
	}
	mgr := ivdss.NewReplicationManager()
	sched, err := ivdss.PeriodicSchedule(5, 0, 1000)
	if err != nil {
		return err
	}
	if err := mgr.Register("prices", sched); err != nil {
		return err
	}
	catalog, err := ivdss.NewCatalog(placement, mgr)
	if err != nil {
		return err
	}
	engine, err := ivdss.NewEngine(catalog, mgr)
	if err != nil {
		return err
	}
	if err := engine.Distribute(map[string]*relation.Table{
		"positions": positionsTable(),
		"prices":    pricesTable(),
		"limits":    limitsTable(),
	}); err != nil {
		return err
	}
	mgr.Advance(0) // first price sync materializes the replica
	// Simulate the WAN: every remote base-table access costs 200 µs of
	// "network", which the calibration below measures for real.
	engine.SetNetworkDelay(200 * time.Microsecond)

	// Calibrate: execute the query once per base/replica configuration of
	// its replicated tables and record measured processing costs. One
	// wall microseconds (300) count as one experiment minute so the
	// tiny demo tables produce visible latencies.
	costs, err := ivdss.NewCalibratedModel(&ivdss.CountModel{LocalProcess: 1, PerBaseTable: 2, TransmitFlat: 1})
	if err != nil {
		return err
	}
	query := ivdss.Query{
		ID:            "exposure",
		Tables:        []ivdss.TableID{"positions", "prices", "limits"},
		BusinessValue: 1,
	}
	measurements, err := engine.Calibrate(query, exposureSQL, costs, 300*time.Microsecond)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated %d plan configurations from live executions:\n", len(measurements))
	for _, m := range measurements {
		names := make([]string, len(m.Bases))
		for i, b := range m.Bases {
			names[i] = string(b)
		}
		fmt.Printf("  base tables %-26s  measured %v\n", strings.Join(names, ","), m.Elapsed.Round(time.Microsecond))
	}

	rates := ivdss.DiscountRates{CL: .05, SL: .08}
	planner, err := ivdss.NewPlanner(costs, ivdss.PlannerConfig{Rates: rates, Horizon: 30})
	if err != nil {
		return err
	}

	// Ask for the exposure report at three staleness points of the price
	// replica (synced at t=0, next syncs at 5, 10, ...).
	fmt.Println("\nexposure report under the information-value planner:")
	for _, submit := range []ivdss.Time{0.5, 3.0, 4.6} {
		q := query
		q.SubmitAt = submit
		snapshot, err := catalog.Snapshot(q.Tables, submit, 30)
		if err != nil {
			return err
		}
		plan, _, err := planner.Best(q, snapshot, submit)
		if err != nil {
			return err
		}
		result, err := engine.ExecutePlan(exposureSQL, plan)
		if err != nil {
			return err
		}
		lat := plan.Latencies()
		fmt.Printf("\n  t=%.1f  plan: %s\n", submit, plan.Signature())
		fmt.Printf("         CL=%.2f SL=%.2f IV=%.4f\n", lat.CL, lat.SL, plan.Value(rates))
		for _, row := range result.Rows {
			breach := ""
			if row[1].F > row[2].F {
				breach = "  ** OVER LIMIT **"
			}
			fmt.Printf("         %-8s exposure=%10.2f cap=%10.2f%s\n", row[0].S, row[1].F, row[2].F, breach)
		}
	}
	return nil
}

func positionsTable() *relation.Table {
	t := relation.NewTable("positions", relation.MustSchema(
		relation.Column{Name: "po_desk", Type: relation.Str},
		relation.Column{Name: "po_symbol", Type: relation.Str},
		relation.Column{Name: "po_qty", Type: relation.Float},
	))
	for _, p := range []struct {
		desk, sym string
		qty       float64
	}{
		{"rates", "BND1", 1200}, {"rates", "BND2", -400},
		{"equities", "ACME", 900}, {"equities", "GLOBX", 350},
		{"fx", "EURUSD", 50000},
	} {
		t.MustInsert(relation.Row{relation.StrVal(p.desk), relation.StrVal(p.sym), relation.FloatVal(p.qty)})
	}
	return t
}

func pricesTable() *relation.Table {
	t := relation.NewTable("prices", relation.MustSchema(
		relation.Column{Name: "pr_symbol", Type: relation.Str},
		relation.Column{Name: "pr_price", Type: relation.Float},
	))
	for _, p := range []struct {
		sym   string
		price float64
	}{
		{"BND1", 99.4}, {"BND2", 101.2}, {"ACME", 38.5}, {"GLOBX", 112.0}, {"EURUSD", 1.09},
	} {
		t.MustInsert(relation.Row{relation.StrVal(p.sym), relation.FloatVal(p.price)})
	}
	return t
}

func limitsTable() *relation.Table {
	t := relation.NewTable("limits", relation.MustSchema(
		relation.Column{Name: "li_desk", Type: relation.Str},
		relation.Column{Name: "li_max", Type: relation.Float},
	))
	for _, l := range []struct {
		desk string
		cap  float64
	}{
		{"rates", 100000}, {"equities", 50000}, {"fx", 60000},
	} {
		t.MustInsert(relation.Row{relation.StrVal(l.desk), relation.FloatVal(l.cap)})
	}
	return t
}
