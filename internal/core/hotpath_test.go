package core_test

import (
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
)

// hotQuery is the shape the MQO's fitness re-plans thousands of times per
// formation: a four-table query over replicas that synchronized in the
// past, with no sync inside the horizon, priced by a calibration that
// has seen every base-table subset the search asks about.
func hotQuery(tb testing.TB) (*core.Planner, core.Query, []core.TableState) {
	tb.Helper()
	tables := []core.TableID{"customer", "orders", "lineitem", "nation"}
	q := core.Query{ID: "Q10", Tables: tables, BusinessValue: 1, SubmitAt: 100}
	states := make([]core.TableState, len(tables))
	for i, id := range tables {
		states[i] = core.TableState{ID: id, Site: core.SiteID(1 + i%2), Replica: &core.ReplicaState{LastSync: 90 - core.Time(i)}}
	}
	costs, err := costmodel.NewCalibratedModel(&costmodel.CountModel{LocalProcess: .02, PerBaseTable: .05, TransmitFlat: .02})
	if err != nil {
		tb.Fatal(err)
	}
	for mask := 0; mask < 1<<len(tables); mask++ {
		access := make([]core.TableAccess, len(tables))
		for i, ts := range states {
			access[i] = core.TableAccess{Table: ts.ID, Site: ts.Site, Kind: core.AccessReplica, Freshness: ts.Replica.LastSync}
			if mask&(1<<i) != 0 {
				access[i].Kind = core.AccessBase
			}
		}
		costs.RecordAccess(q.ID, access, core.CostEstimate{Process: .01 * core.Duration(1+mask)})
	}
	p, err := core.NewPlanner(costs, core.PlannerConfig{Rates: core.DiscountRates{CL: .5}, Horizon: 30})
	if err != nil {
		tb.Fatal(err)
	}
	return p, q, states
}

// TestPlannerBestAllocs: pricing a turn of the hot shape allocates the
// search episode's one buffer and nothing per candidate.
func TestPlannerBestAllocs(t *testing.T) {
	p, q, states := hotQuery(t)
	plan, stats, err := p.Best(q, states, q.SubmitAt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlansEvaluated < 5 {
		t.Fatalf("search priced %d plans (%s); the shape no longer exercises the enumerator", stats.PlansEvaluated, plan.Signature())
	}
	n := testing.AllocsPerRun(200, func() {
		if _, _, err := p.Best(q, states, q.SubmitAt); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 {
		t.Errorf("Best allocates %v times per call, want at most 3", n)
	}
}

func BenchmarkPlannerBest(b *testing.B) {
	p, q, states := hotQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Best(q, states, q.SubmitAt); err != nil {
			b.Fatal(err)
		}
	}
}
