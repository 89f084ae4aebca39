package scheduler

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/replication"
)

// TestFormMemoIsExact: formation prices each (member, decision instant)
// once, and must still choose exactly what OptimizeOrder over plain
// RunSequence chooses — the same order, the same best total and the same
// GAStats, compared with ==. The fixtures cover uniform costs, per-query
// weights, members that expire at the head, and plans that wait for a
// replica sync inside the horizon.
func TestFormMemoIsExact(t *testing.T) {
	sets := [][]core.TableID{{"t1", "t2"}, {"t3"}, {"t1", "t3", "t4"}, {"t2"}, {"t1"}, {"t4", "t2"}, {"t3", "t4"}, {"t1", "t4"}}
	staggered := []core.Time{0, .5, 1, 1.5, 2, 2.5, 3, 3.5}
	weights := make(map[string]float64)
	for i := range staggered {
		weights[fmt.Sprintf("q%d", i+1)] = .4 + .3*float64(i)
	}
	fixtures := []struct {
		name    string
		rates   core.DiscountRates
		weights map[string]float64
		epsilon float64
		queries []core.Query
		from    core.Time
		// wantExpired and wantWaited demand that the chosen orders exercise
		// expiry at the head and plans delayed for a sync.
		wantExpired, wantWaited bool
	}{
		{name: "uniform", rates: core.DiscountRates{CL: .15, SL: .15},
			queries: queriesAt(make([]core.Time, 8))},
		{name: "weighted", rates: core.DiscountRates{CL: .15, SL: .15}, weights: weights,
			queries: queriesAt(staggered, sets...)},
		{name: "expiring", rates: core.DiscountRates{CL: .15, SL: .15}, weights: weights, epsilon: .5,
			queries: queriesAt(make([]core.Time, 8), sets...), wantExpired: true},
		// λSL far above λCL makes a replica plan worth delaying until the
		// next sync (t1 syncs every 10 minutes, t3 every 15).
		{name: "sync-wait", rates: core.DiscountRates{CL: .02, SL: .3}, weights: weights,
			queries: queriesAt([]core.Time{7, 7, 7.5, 8, 8, 8.5, 9, 9},
				[]core.TableID{"t1"}, []core.TableID{"t3"}, []core.TableID{"t1", "t3"}, []core.TableID{"t1"},
				[]core.TableID{"t3"}, []core.TableID{"t1", "t2"}, []core.TableID{"t3", "t4"}, []core.TableID{"t1"}),
			from: 7, wantWaited: true},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			catalog, _ := testWorld(t, fx.rates)
			cost := &pricingCounter{CostModel: &costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2, QueryWeights: fx.weights}}
			planner, err := core.NewPlanner(cost, core.PlannerConfig{Rates: fx.rates, Horizon: 200})
			if err != nil {
				t.Fatal(err)
			}
			ev := &Evaluator{Planner: planner, Catalog: catalog, Horizon: 100, Epsilon: fx.epsilon}
			var formed, expired, waited int
			var memoPlans, plainPlans int
			for seed := int64(1); seed <= 30; seed++ {
				ga := GAConfig{Seed: seed, Population: 12, Generations: 6}
				cost.n = 0
				var got []ordered
				err := form(fx.queries, ev, ga, func() core.Time { return fx.from }, func(int) int64 { return seed },
					func(o ordered) error { got = append(got, o); return nil })
				if err != nil {
					t.Fatal(err)
				}
				memoPlans += cost.n
				for _, o := range got {
					if len(o.members) < 2 {
						continue
					}
					formed++
					cost.n = 0
					order, best, st, err := OptimizeOrder(len(o.members), func(order []int) (float64, error) {
						r, err := ev.RunSequence(o.members, order, o.from)
						return r.TotalValue, err
					}, ga)
					if err != nil {
						t.Fatal(err)
					}
					plainPlans += cost.n
					if !slices.Equal(order, o.order) || best != o.best || st != o.ga {
						t.Fatalf("seed %d: memoised order %v best %v stats %+v; plain RunSequence %v best %v stats %+v",
							seed, o.order, o.best, o.ga, order, best, st)
					}
					e, w := headEvents(t, ev, o)
					expired += e
					waited += w
				}
			}
			t.Logf("%d workloads; plans priced %d memoised vs %d plain; %d expired, %d waited at the head",
				formed, memoPlans, plainPlans, expired, waited)
			if formed == 0 {
				t.Fatal("no multi-member workload formed")
			}
			if memoPlans >= plainPlans {
				t.Errorf("memoised formation priced %d plans, plain scoring %d: the memo is not engaged", memoPlans, plainPlans)
			}
			if fx.wantExpired && expired == 0 {
				t.Error("no member expired at the head: the fixture does not exercise expiry")
			}
			if fx.wantWaited && waited == 0 {
				t.Error("no plan waited for a sync: the fixture does not exercise delayed plans")
			}
		})
	}
}

// headEvents replays o's chosen order on its own serialized clock, checks
// that no plan is released before its member reaches the head and that an
// expired member leaves the clock alone, and counts the members that
// expired and the plans that waited past the instant they reached the head.
func headEvents(t *testing.T, ev *Evaluator, o ordered) (expired, waited int) {
	t.Helper()
	r, err := ev.RunSequence(o.members, o.order, o.from)
	if err != nil {
		t.Fatal(err)
	}
	clock := o.from
	for _, out := range r.Outcomes {
		decision := max(clock, out.Query.SubmitAt)
		if out.Expired {
			if out.Wait != decision-out.Query.SubmitAt {
				t.Fatalf("%s expired after waiting %v, want %v", out.Query.ID, out.Wait, decision-out.Query.SubmitAt)
			}
			expired++
			continue
		}
		if out.Plan.Start < decision {
			t.Fatalf("%s released at %v, before it reached the head at %v", out.Query.ID, out.Plan.Start, decision)
		}
		if out.Plan.Start > decision {
			waited++
		}
		clock = out.Plan.ResultAt()
	}
	return expired, waited
}

// gatedCatalog blocks every snapshot that touches gate until release is
// closed, and closes entered when the first one arrives.
type gatedCatalog struct {
	CatalogView
	gate    core.TableID
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedCatalog) Snapshot(tables []core.TableID, now core.Time, horizon core.Duration) ([]core.TableState, error) {
	if slices.Contains(tables, g.gate) {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.CatalogView.Snapshot(tables, now, horizon)
}

// held is one dispatch waiting for the test to complete it.
type held struct {
	d    Dispatch
	done func(core.Outcome)
}

// heldExecutor hands every dispatch to the test, which completes it.
type heldExecutor chan held

func (x heldExecutor) Execute(d Dispatch, done func(core.Outcome)) { x <- held{d, done} }

// TestEngineDispatchesWhileGroupForms: a group's formation runs outside the
// engine lock. While it is stuck pricing plans, the forming members hold
// queue space (QueueLen counts them, MaxQueue refuses beyond them), an ad
// hoc completion frees its slot and the next ad hoc query dispatches.
func TestEngineDispatchesWhileGroupForms(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	gated := &gatedCatalog{CatalogView: catalog, gate: "t4", entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gated.release) })
	defer release()
	// Room for every dispatch the test causes (two ad hoc queries and the
	// group): Execute runs on the goroutine completing the previous query,
	// which is the test's own, so it must never block.
	exec := make(heldExecutor, 5)
	eng, err := NewEngine(EngineConfig{
		Clock:          NewWallClock(1),
		Executor:       exec,
		Strategy:       &IVQPStrategy{Planner: planner, Catalog: gated, Horizon: 100},
		Rates:          rates,
		Slots:          1,
		MaxQueue:       4,
		GA:             GAConfig{Seed: 1, Population: 4, Generations: 2},
		RecordOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	next := func(what string) held {
		t.Helper()
		select {
		case h := <-exec:
			return h
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never dispatched", what)
			return held{}
		}
	}
	finish := func(h held) { h.done(core.Outcome{Query: h.d.Query, Plan: h.d.Plan}) }
	adhoc := queriesAt([]core.Time{0, 0, 0})
	group := queriesAt([]core.Time{0, 0, 0}, []core.TableID{"t4"}, []core.TableID{"t3", "t4"}, []core.TableID{"t4", "t2"})
	for i := range group {
		group[i].ID = fmt.Sprintf("g%d", i+1)
	}

	if !eng.Submit(adhoc[0], nil) {
		t.Fatal("first ad hoc query refused")
	}
	first := next("the first ad hoc query")
	submitted := make(chan bool, 1)
	go func() { submitted <- eng.SubmitGroup(group, make([]any, len(group))) }()
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the group never reached formation")
	}
	if n := eng.QueueLen(); n != len(group) {
		t.Errorf("QueueLen = %d while the group forms, want its %d members", n, len(group))
	}
	if !eng.Submit(adhoc[1], nil) {
		t.Fatal("ad hoc query refused while a group forms")
	}
	if eng.Submit(adhoc[2], nil) {
		t.Error("a submit beyond MaxQueue was admitted: forming members must count against it")
	}
	finish(first)
	second := next("the second ad hoc query")
	if second.d.Query.ID != adhoc[1].ID {
		t.Fatalf("dispatched %s, want %s", second.d.Query.ID, adhoc[1].ID)
	}
	release()
	if !<-submitted {
		t.Fatal("group refused")
	}
	finish(second)
	for range group {
		finish(next("a group member"))
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("Pending = %d, want 0", n)
	}
	seen := make(map[string]int)
	for _, o := range eng.Outcomes() {
		seen[o.Query.ID]++
	}
	if len(seen) != 2+len(group) {
		t.Errorf("outcomes for %v, want the two admitted ad hoc queries and %d members", seen, len(group))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("%s reached %d outcomes", id, n)
		}
	}
}

// asyncExecutor completes every dispatch at once, from its own goroutine.
type asyncExecutor struct{}

func (asyncExecutor) Execute(d Dispatch, done func(core.Outcome)) {
	go done(core.Outcome{Query: d.Query, Plan: d.Plan})
}

// TestEngineConcurrentGroupsReachOneOutcomeEach: four goroutines submit
// groups (and an ad hoc query each) onto one wall-clock engine, so
// formations overlap each other and dispatch. Every query reaches exactly
// one outcome and the engine drains.
func TestEngineConcurrentGroupsReachOneOutcomeEach(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .05}
	catalog, planner := testWorld(t, rates)
	eng, err := NewEngine(EngineConfig{
		Clock:          NewWallClock(1),
		Executor:       asyncExecutor{},
		Strategy:       &IVQPStrategy{Planner: planner, Catalog: catalog, Horizon: 100},
		Rates:          rates,
		Slots:          2,
		GA:             GAConfig{Seed: 1, Population: 8, Generations: 4},
		RecordOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const groups, size = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := queriesAt(make([]core.Time, size+1), []core.TableID{"t1"}, []core.TableID{"t3"}, []core.TableID{"t2", "t4"})
			for i := range qs {
				qs[i].ID = fmt.Sprintf("g%d-q%d", g, i)
			}
			if !eng.SubmitGroup(qs[:size], make([]any, size)) {
				t.Errorf("group %d refused", g)
			}
			if !eng.Submit(qs[size], nil) {
				t.Errorf("ad hoc query of goroutine %d refused", g)
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Pending = %d after 10s", eng.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	seen := make(map[string]int)
	for _, o := range eng.Outcomes() {
		seen[o.Query.ID]++
	}
	if len(seen) != groups*(size+1) {
		t.Errorf("%d distinct queries reached an outcome, want %d", len(seen), groups*(size+1))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("%s reached %d outcomes", id, n)
		}
	}
}

// countingCatalog counts the snapshots taken through it.
type countingCatalog struct {
	CatalogView
	n int
}

func (c *countingCatalog) Snapshot(tables []core.TableID, now core.Time, horizon core.Duration) ([]core.TableState, error) {
	c.n++
	return c.CatalogView.Snapshot(tables, now, horizon)
}

// downAfter reports site 2 down from the instant at on.
type downAfter core.Time

func (d downAfter) SiteDown(site core.SiteID, now core.Time) bool {
	return site == 2 && now >= core.Time(d)
}

// sameSnapshot reports whether two snapshots agree, an empty NextSyncs
// equal to a nil one.
func sameSnapshot(a, b []core.TableState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Site != y.Site || x.BaseDown != y.BaseDown || (x.Replica == nil) != (y.Replica == nil) || len(x.Views) != len(y.Views) {
			return false
		}
		if x.Replica != nil && (x.Replica.LastSync != y.Replica.LastSync || !slices.Equal(x.Replica.NextSyncs, y.Replica.NextSyncs)) {
			return false
		}
		for j, v := range x.Views {
			w := y.Views[j]
			if v.ID != w.ID || v.QueryID != w.QueryID || v.LastSync != w.LastSync || !slices.Equal(v.NextSyncs, w.NextSyncs) {
				return false
			}
		}
	}
	return true
}

// TestWarmTurnAllocatesNothing: once a member's view is taken, pricing
// another of its turns (a memo miss) takes no snapshot and allocates
// nothing. The members are a replica-and-view query and a three-table one
// with a table whose site goes down mid-walk and a table whose first sync
// lies past the horizon; every turn's states equal a fresh snapshot's, and
// so does its plan.
func TestWarmTurnAllocatesNothing(t *testing.T) {
	rates := core.DiscountRates{CL: .05, SL: .2}
	placement, err := federation.NewPlacement(map[core.TableID]core.SiteID{"t1": 1, "t3": 2, "t4": 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr := replication.NewManager()
	catalog, err := federation.NewCatalog(placement, mgr)
	if err != nil {
		t.Fatal(err)
	}
	def := core.ViewDef{ID: "v1", QueryID: "q1", Table: "t1", SQL: "SELECT a, sum(b) FROM t1 GROUP BY a"}
	if err := catalog.RegisterView(def); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		unit           core.TableID
		period, offset core.Duration
	}{{"t1", 20, 0}, {"t3", 30, 0}, {"t4", 30, 250}, {core.ViewUnit(def.ID), 25, 0}} {
		sched, err := replication.Periodic(s.period, s.offset, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Register(s.unit, sched); err != nil {
			t.Fatal(err)
		}
	}
	catalog.WatchSites(downAfter(10))
	planner, err := core.NewPlanner(&costmodel.CountModel{LocalProcess: 2, PerBaseTable: 2}, core.PlannerConfig{Rates: rates, Horizon: 200})
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingCatalog{CatalogView: catalog}
	ev := &Evaluator{Planner: planner, Catalog: counted, Horizon: 100}
	members := queriesAt([]core.Time{3, 5}, []core.TableID{"t1"}, []core.TableID{"t1", "t3", "t4"})
	p := newTurns(ev, members, 4, true)
	for idx := range members {
		if _, err := p.head(idx, 160); err != nil { // widens the view past every turn below, and t4's first sync
			t.Fatal(err)
		}
	}
	views := counted.n
	if views != len(members) {
		t.Fatalf("%d snapshots for %d members", views, len(members))
	}
	decisions := []core.Time{5, 12.5, 29, 31, 44, 160}
	viewed := 0
	for idx, q := range members {
		for _, d := range decisions {
			snap, err := catalog.Snapshot(q.Tables, d, ev.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			states, err := p.statesAt(idx, d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSnapshot(states, snap) {
				t.Fatalf("%s at %v: the view reads %+v, a fresh snapshot %+v", q.ID, d, states, snap)
			}
			got, err := p.head(idx, d)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := planner.Best(q, snap, d)
			if err != nil {
				t.Fatal(err)
			}
			if got.Plan.Signature() != want.Signature() || got.Plan.Start != want.Start || got.Plan.Cost != want.Cost {
				t.Fatalf("%s at %v: priced %s from %v, a fresh snapshot plans %s from %v", q.ID, d, got.Plan.Signature(), got.Plan.Start, want.Signature(), want.Start)
			}
			if _, ok := got.Plan.ViewAccess(); ok {
				viewed++
			}
			if d >= 10 && slices.Contains(got.Plan.BaseTables(), "t3") {
				t.Fatalf("%s at %v reads t3's base after its site went down: %s", q.ID, d, got.Plan.Signature())
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.head(idx, decisions[i%len(decisions)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: a warm turn allocates %v times, want 0", q.ID, allocs)
		}
	}
	if counted.n != views {
		t.Errorf("warm turns took %d more snapshots", counted.n-views)
	}
	if viewed == 0 {
		t.Error("no turn read the view: the fixture does not exercise view states")
	}
}
