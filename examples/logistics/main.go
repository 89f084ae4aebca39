// Logistics: workload scheduling with multi-query optimization.
//
// A logistics operator's morning burst: eight decision-support reports
// over shipments, vehicles, depots and routes arrive within two minutes of
// each other. Because their candidate execution ranges overlap, the
// workload manager groups them and orders them with the genetic algorithm
// to maximize total information value; the example compares that schedule
// with plain first-come-first-served, then demonstrates the
// anti-starvation aging rule on an overloaded dispatcher.
//
//	go run ./examples/logistics
package main

import (
	"fmt"
	"log"

	"ivdss"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tables := []ivdss.TableID{"shipments", "vehicles", "depots", "routes", "drivers", "fuel"}
	placement, err := ivdss.UniformPlacement(tables, 3, 1)
	if err != nil {
		return err
	}
	mgr := ivdss.NewReplicationManager()
	for _, spec := range []struct {
		table  ivdss.TableID
		period ivdss.Duration
	}{{"shipments", 5}, {"vehicles", 8}, {"routes", 12}} {
		sched, err := ivdss.PeriodicSchedule(spec.period, 0, 10000)
		if err != nil {
			return err
		}
		if err := mgr.Register(spec.table, sched); err != nil {
			return err
		}
	}
	catalog, err := ivdss.NewCatalog(placement, mgr)
	if err != nil {
		return err
	}

	rates := ivdss.DiscountRates{CL: .12, SL: .12}
	cost := &ivdss.CountModel{LocalProcess: 1, PerBaseTable: 1.5, TransmitFlat: .5}
	planner, err := ivdss.NewPlanner(cost, ivdss.PlannerConfig{Rates: rates, Horizon: 30})
	if err != nil {
		return err
	}
	ev := &ivdss.Evaluator{Planner: planner, Catalog: catalog, Horizon: 30}

	// The morning burst: reports with different table footprints and
	// business values, all arriving within two minutes.
	burst := []ivdss.Query{
		{ID: "late-shipments", Tables: []ivdss.TableID{"shipments", "routes"}, BusinessValue: 1.0, SubmitAt: 0},
		{ID: "fleet-util", Tables: []ivdss.TableID{"vehicles", "drivers"}, BusinessValue: .8, SubmitAt: .2},
		{ID: "depot-load", Tables: []ivdss.TableID{"depots", "shipments"}, BusinessValue: .9, SubmitAt: .5},
		{ID: "fuel-burn", Tables: []ivdss.TableID{"fuel", "vehicles", "routes"}, BusinessValue: .6, SubmitAt: .8},
		{ID: "missed-sla", Tables: []ivdss.TableID{"shipments", "depots", "routes"}, BusinessValue: 1.0, SubmitAt: 1.1},
		{ID: "driver-hours", Tables: []ivdss.TableID{"drivers"}, BusinessValue: .5, SubmitAt: 1.4},
		{ID: "reroute-plan", Tables: []ivdss.TableID{"routes", "vehicles"}, BusinessValue: .9, SubmitAt: 1.7},
		{ID: "backlog", Tables: []ivdss.TableID{"shipments"}, BusinessValue: .7, SubmitAt: 2.0},
	}

	fifo, err := ivdss.ScheduleFIFO(burst, ev)
	if err != nil {
		return err
	}
	mqo, err := ivdss.ScheduleMQO(burst, ev, ivdss.GAConfig{Seed: 7})
	if err != nil {
		return err
	}

	fmt.Println("morning burst: 8 overlapping reports")
	fmt.Printf("  FIFO (without MQO): total IV %.3f, mean %.3f\n", fifo.TotalValue, fifo.MeanValue())
	fmt.Printf("  GA MQO:             total IV %.3f, mean %.3f  (%d workload(s), %d GA evaluations)\n",
		mqo.TotalValue, mqo.MeanValue(), len(mqo.Workloads), mqo.Evaluations)
	gain := (mqo.TotalValue - fifo.TotalValue) / fifo.TotalValue * 100
	fmt.Printf("  improvement: %.1f%%\n\n", gain)

	fmt.Println("MQO execution order:")
	for _, o := range mqo.Outcomes {
		fmt.Printf("  %-14s start=%5.1f  CL=%5.1f  SL=%5.1f  IV=%.3f  [%s]\n",
			o.Query.ID, o.Plan.Start, o.Latencies.CL, o.Latencies.SL, o.Value, o.Plan.Signature())
	}

	// Aging under overload: a saturating afternoon stream plus one cheap
	// compliance report that pure value-maximizing dispatch would starve.
	fmt.Println("\novernight overload: aging prevents starvation of the compliance report")
	for _, aging := range []ivdss.Aging{{}, {Coefficient: .03, Exponent: 1.5}} {
		s := ivdss.NewSimulator()
		d, err := ivdss.NewSimEngine(s, &ivdss.IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 30}, rates, 1, aging)
		if err != nil {
			return err
		}
		var stream []ivdss.Query
		stream = append(stream, ivdss.Query{
			ID: "compliance", Tables: []ivdss.TableID{"fuel"}, BusinessValue: .2, SubmitAt: 1,
		})
		for i := 0; i < 30; i++ {
			stream = append(stream, ivdss.Query{
				ID:            fmt.Sprintf("ops-%02d", i),
				Tables:        []ivdss.TableID{"shipments", "routes"},
				BusinessValue: 1,
				SubmitAt:      ivdss.Time(i) * .7,
			})
		}
		for _, q := range stream {
			s.ScheduleAt(q.SubmitAt, func() { d.Submit(q, nil) })
		}
		s.Run()
		if err := d.Err(); err != nil {
			return err
		}
		label := "without aging"
		if aging.Enabled() {
			label = "with aging   "
		}
		for _, o := range d.Outcomes() {
			if o.Query.ID == "compliance" {
				fmt.Printf("  %s: compliance report waited %.1f minutes\n", label, o.Wait)
			}
		}
	}
	return nil
}
