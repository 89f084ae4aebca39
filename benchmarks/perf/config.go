package main

import (
	"fmt"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/server"
	"ivdss/internal/tpch"
)

// The fixed configuration. Every constant here is part of the benchmark's
// definition: changing one changes what every recorded number means, so
// none of them is a flag. README.md says why each has its value.
const (
	dataScale = 4  // ≈24k lineitem, 6k orders rows
	dataSeed  = 42 // the data never varies with -seed

	timeScale = 1.0 // 1 wall second = 1 experiment minute
	workers   = 2   // DSS execution slots, sized for the 2-core sandbox
	clients   = 2   // goroutines, each owning one connection

	batchSize = 16 // members per KindBatch on batch_mqo

	writerPeriod = 50 * time.Millisecond // paced writer, open loop
	writerRows   = 10                    // re-sampled lineitem rows per insert

	setupReps = 5 // cold set-ups per run; setup_s is their median

	warmupSeconds      = 5.0
	defaultSeconds     = 20.0
	traceWindowSeconds = 10.0 // boundary-pass window cap
	replayOps          = 200  // operations walked by the layer replay
	replayBatches      = 40   // ... on batch_mqo
)

// Site assignment: site 1 holds the dimension side, site 2 the fact side.
var siteTables = [2][]string{
	{tpch.Customer, tpch.Orders, tpch.Nation, tpch.Region},
	{tpch.LineItem, tpch.Supplier, tpch.Part, tpch.PartSupp},
}

// lightTemplates are the ten templates cheap enough that sixteen of them
// queue behind two workers without expiring: the batch_mqo draw.
var lightTemplates = []string{"Q2", "Q11", "Q12", "Q13", "Q14", "Q15", "Q16", "Q17", "Q20", "Q22"}

// workload is one traffic mix plus the DSS configuration it runs against.
type workload struct {
	Name string
	Why  string
	// Replicate and Views configure the DSS; Rates are λCL/λSL.
	Replicate map[core.TableID]time.Duration
	Views     []string // template IDs materialized as views, period 1 s
	Rates     core.DiscountRates
	// Readers is the number of closed-loop clients; Batch > 0 makes each
	// operation a KindBatch of that many members.
	Readers   int
	Batch     int
	Templates []string // nil = all 22
	// Writer adds the paced open-loop KindInsert client on lineitem.
	Writer bool
}

func allReplicated(period time.Duration) map[core.TableID]time.Duration {
	out := make(map[core.TableID]time.Duration)
	for _, name := range tpch.TableNames() {
		out[core.TableID(name)] = period
	}
	return out
}

// workloads returns the four benchmark workloads in their fixed order.
func workloads() []workload {
	hybrid := make(map[core.TableID]time.Duration)
	for _, name := range []string{tpch.Customer, tpch.Nation, tpch.Region, tpch.Supplier, tpch.Orders, tpch.LineItem} {
		hybrid[core.TableID(name)] = time.Second
	}
	return []workload{
		{
			Name:      "replica_read",
			Why:       "all tables replicated, no writes: the sqlmini/relation VM does the work; codec and planner changes must not show",
			Replicate: allReplicated(time.Hour),
			Rates:     core.DiscountRates{CL: .5},
			Readers:   clients,
		},
		{
			Name:    "federated_read",
			Why:     "no replicas: every table read is a pushdown or scan to a remote, so gob, pooling and remote exec dominate",
			Rates:   core.DiscountRates{CL: .5},
			Readers: clients,
		},
		{
			Name:      "batch_mqo",
			Why:       "batches of 16 light queries over replicas: the only workload where planner, GA ordering and queue wait are hot",
			Replicate: allReplicated(time.Hour),
			Rates:     core.DiscountRates{CL: .5},
			Readers:   clients,
			Batch:     batchSize,
			Templates: lightTemplates,
		},
		{
			Name:      "hybrid_write",
			Why:       "paper's hybrid setting with a paced writer, 1 s sync cycles and views: catches caching wins that cost under moving data",
			Replicate: hybrid,
			Views:     []string{"Q1", "Q6"},
			Rates:     core.DiscountRates{CL: .5, SL: .05},
			Readers:   1,
			Writer:    true,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dssConfig is the DSS configuration of a workload against the given
// remote addresses. Everything not set here stays at the server default
// (Epsilon .01, GA 40x50 seed 1, MQOWindow 0, AdaptiveSync off, VM engine).
func (w workload) dssConfig(remotes [2]string) (server.DSSConfig, error) {
	cfg := server.DSSConfig{
		Remotes:   map[core.SiteID]string{1: remotes[0], 2: remotes[1]},
		Replicate: w.Replicate,
		Rates:     w.Rates,
		TimeScale: timeScale,
		Workers:   workers,
	}
	for _, id := range w.Views {
		q, err := tpch.QueryByID(id)
		if err != nil {
			return cfg, err
		}
		cfg.Views = append(cfg.Views, server.ViewSpec{SQL: q.SQL, Period: time.Second})
	}
	return cfg, nil
}

// syncPeriod is the shortest replication period of the workload, zero
// when nothing is replicated.
func (w workload) syncPeriod() time.Duration {
	var min time.Duration
	for _, p := range w.Replicate {
		if min == 0 || p < min {
			min = p
		}
	}
	return min
}
