package replsync

import (
	"fmt"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/metrics"
	"ivdss/internal/scheduler"
	"ivdss/internal/sim"
)

// newAdaptiveAgent wires a two-table adaptive agent on the given clock.
func newAdaptiveAgent(t *testing.T, clk scheduler.Clock, reg *metrics.Registry, log *eventLog, placer Placer) *Agent {
	t.Helper()
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 1, rowBytes: 8}
	cfg := Config{
		Clock:       clk,
		Fetch:       fetch,
		Apply:       &countApplier{},
		Tables:      []TableConfig{{ID: "hot", Period: 10}, {ID: "cold", Period: 10}},
		Adaptive:    true,
		AdjustEvery: 10,
		MinPeriod:   1,
		MaxPeriod:   100,
		Placer:      placer,
		PlaceEvery:  2,
		Stats:       reg,
	}
	if log != nil {
		cfg.OnSync = log.observe
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The cadence controller moves sync rate toward the table losing IV:
// after loss lands on "hot", its period shrinks and "cold"'s grows, with
// the total rate budget conserved.
func TestAdaptiveCadenceShiftsRateTowardLoss(t *testing.T) {
	clk := &scheduler.ManualClock{}
	reg := metrics.NewRegistry()
	a := newAdaptiveAgent(t, clk, reg, nil, nil)
	a.Start()

	// Feed loss observations on "hot" only, between cycles.
	for i := 1; i <= 30; i++ {
		at := core.Time(i)
		clk.AfterFunc(at-clk.Now(), func() { a.ObserveLoss([]core.TableID{"hot"}, 5) })
	}
	clk.RunUntil(35)

	var hot, cold TableStatus
	for _, st := range a.Status() {
		switch st.Table {
		case "hot":
			hot = st
		case "cold":
			cold = st
		}
	}
	if hot.Period >= 10 {
		t.Fatalf("hot period = %v, want < 10 (rate shifted toward loss)", hot.Period)
	}
	if cold.Period <= 10 {
		t.Fatalf("cold period = %v, want > 10 (rate shifted away)", cold.Period)
	}
	// Total rate stays within the budget Σ 1/p = 0.2 (clamping can only
	// reduce it).
	if rate := 1/hot.Period + 1/cold.Period; rate > 0.2+1e-9 {
		t.Fatalf("total sync rate %v exceeds the 0.2 budget", rate)
	}
	if got := reg.Counter("cadence_adjustments_total").Value(); got == 0 {
		t.Fatal("controller should have counted an adjustment")
	}
}

// With no loss anywhere the controller keeps the uniform division and
// counts no adjustments.
func TestAdaptiveCadenceStableWithoutLoss(t *testing.T) {
	clk := &scheduler.ManualClock{}
	reg := metrics.NewRegistry()
	a := newAdaptiveAgent(t, clk, reg, nil, nil)
	a.Start()
	clk.RunUntil(60)
	if got := reg.Counter("cadence_adjustments_total").Value(); got != 0 {
		t.Fatalf("cadence_adjustments_total = %d, want 0 with a symmetric workload", got)
	}
	for _, st := range a.Status() {
		if st.Period != 10 {
			t.Fatalf("table %s period drifted to %v without loss", st.Table, st.Period)
		}
	}
}

// stubPlacer recommends a fixed set once asked.
type stubPlacer struct {
	rec   []core.TableID
	calls int
}

func (p *stubPlacer) Recommend(current []core.TableID) ([]core.TableID, error) {
	p.calls++
	if p.rec == nil {
		return current, nil
	}
	return p.rec, nil
}

// A placement review applies the Placer's recommendation online: the
// demoted table is dropped (replica discarded, gone from the planner's
// view) and the promoted table snapshots immediately and joins the cadence.
func TestPlacementReviewPromotesAndDemotes(t *testing.T) {
	clk := &scheduler.ManualClock{}
	reg := metrics.NewRegistry()
	placer := &stubPlacer{rec: []core.TableID{"hot", "fresh"}}
	fetch := &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 1, rowBytes: 8}
	apply := &countApplier{}
	a, err := New(Config{
		Clock:       clk,
		Fetch:       fetch,
		Apply:       apply,
		Tables:      []TableConfig{{ID: "hot", Period: 10}, {ID: "cold", Period: 10}},
		Adaptive:    true,
		AdjustEvery: 10,
		MinPeriod:   1,
		MaxPeriod:   100,
		Placer:      placer,
		PlaceEvery:  2,
		Stats:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	clk.RunUntil(45) // reviews at adjust ticks 20, 40

	if placer.calls == 0 {
		t.Fatal("placer was never consulted")
	}
	got := fmt.Sprint(a.Tables())
	if got != fmt.Sprint([]core.TableID{"fresh", "hot"}) {
		t.Fatalf("replica set = %v, want [fresh hot]", got)
	}
	if len(apply.drops) != 1 || apply.drops[0] != "cold" {
		t.Fatalf("dropped replicas = %v, want [cold]", apply.drops)
	}
	if st, ok := a.StateFor("cold", 45, 0); ok {
		t.Fatalf("cold is still in the planner's view: %+v", st)
	}
	// The promoted table snapshotted and is on a cadence.
	if st, ok := a.StateFor("fresh", 45, 0); !ok || len(st.NextSyncs) == 0 {
		t.Fatalf("fresh in the planner's view = %+v: promoted table never synced", st)
	}
	if reg.Counter("replicas_promoted_total").Value() != 1 ||
		reg.Counter("replicas_demoted_total").Value() != 1 {
		t.Fatal("promotion/demotion counters should both read 1")
	}
}

// driveEquiv runs an identical adaptive scenario on the given clock and
// returns the event log. The scenario seeds loss on "hot" at fixed
// instants so the cadence controller acts.
func driveEquiv(t *testing.T, clk scheduler.Clock, run func(until core.Time)) []Event {
	t.Helper()
	reg := metrics.NewRegistry()
	log := &eventLog{}
	a := newAdaptiveAgent(t, clk, reg, log, nil)
	a.Start()
	for i := 1; i <= 40; i++ {
		at := core.Time(i) * 1.5
		clk.AfterFunc(at-clk.Now(), func() { a.ObserveLoss([]core.TableID{"hot"}, 3) })
	}
	run(70)
	return log.all()
}

// The engine is clock-agnostic: the discrete event simulator and the
// hand-stepped manual clock drive byte-for-byte identical sync histories
// through the identical code path — the property that makes DES results
// transfer to the live server.
func TestEngineEquivalentUnderSimAndManualClock(t *testing.T) {
	s := sim.New()
	simEvents := driveEquiv(t, scheduler.SimClock{Sim: s}, func(until core.Time) { s.RunUntil(until) })

	clk := &scheduler.ManualClock{}
	manEvents := driveEquiv(t, clk, func(until core.Time) { clk.RunUntil(until) })

	if len(simEvents) == 0 {
		t.Fatal("scenario produced no sync events")
	}
	if len(simEvents) != len(manEvents) {
		t.Fatalf("sim produced %d events, manual clock %d", len(simEvents), len(manEvents))
	}
	for i := range simEvents {
		se, me := simEvents[i], manEvents[i]
		if se.Table != me.Table || se.At != me.At || se.Kind != me.Kind ||
			se.Bytes != me.Bytes || se.Version != me.Version {
			t.Fatalf("event %d diverges:\n  sim:    %+v\n  manual: %+v", i, se, me)
		}
	}
	// The scenario must exercise the adaptive path to be a meaningful
	// equivalence check.
	sawDelta := false
	for _, ev := range simEvents {
		if ev.Kind == DeltaSync {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Fatal("scenario never produced a delta sync")
	}
}

// Without Adaptive nothing reads the loss ledger, so ObserveLoss keeps
// none and does not wait for mu, which a sync holds across Apply.
func TestStaticAgentKeepsNoLossLedger(t *testing.T) {
	clk := &scheduler.ManualClock{}
	a, err := New(Config{
		Clock:  clk,
		Fetch:  &modelFetcher{clock: clk, baseRows: 10, rowsPerMin: 1, rowBytes: 8},
		Apply:  &countApplier{},
		Tables: []TableConfig{{ID: "hot", Period: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	observed := make(chan struct{})
	go func() {
		a.ObserveLoss([]core.TableID{"hot"}, 5)
		close(observed)
	}()
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("ObserveLoss waited for mu on an agent without Adaptive")
	}
	a.mu.Unlock()
	if len(a.losses) != 0 {
		t.Errorf("a static agent kept the loss ledger %v", a.losses)
	}
}
