package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"ivdss/internal/core"
	"ivdss/internal/scheduler"
	"ivdss/internal/sim"
	"ivdss/internal/synth"
)

// quickPreset fetches a preset's quick variant, failing the test on an
// unknown name.
func quickPreset(t *testing.T, name string) synth.Scenario {
	t.Helper()
	sc, err := synth.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Quick()
}

func TestRunScenarioDeterministic(t *testing.T) {
	cfg := DefaultScenarioConfig(quickPreset(t, "flash-zipf"))
	a, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config produced different results:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestRunScenariosAllPresets is the DES leg of the matrix: every preset
// must run end to end with work actually completing and value accruing.
func TestRunScenariosAllPresets(t *testing.T) {
	suite, err := RunScenarios(synth.Presets(), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Scenarios) < 8 {
		t.Fatalf("suite ran %d scenarios, matrix needs at least 8", len(suite.Scenarios))
	}
	for _, res := range suite.Scenarios {
		if res.Completed == 0 {
			t.Errorf("%s: nothing completed", res.Name)
		}
		if res.TotalIV <= 0 {
			t.Errorf("%s: no information value accrued", res.Name)
		}
		if res.Completed+res.Shed+res.Unplannable != res.Queries {
			t.Errorf("%s: %d completed + %d shed + %d unplannable != %d queries",
				res.Name, res.Completed, res.Shed, res.Unplannable, res.Queries)
		}
	}
	// The artifact must round-trip, since the regression gate re-reads it.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, suite); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScenarioSuite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suite, back) {
		t.Error("suite artifact did not round-trip")
	}
	if tables := suite.Tables(); len(tables) != 1 || len(tables[0].Rows) != len(suite.Scenarios) {
		t.Error("suite table rendering lost rows")
	}
}

// TestOutagesChangeOutcome: the storms must actually bite — the same
// scenario with outages stripped yields a different (and no smaller)
// total IV.
func TestOutagesChangeOutcome(t *testing.T) {
	sc := quickPreset(t, "outage-storm")
	withRes, err := RunScenario(DefaultScenarioConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	calm := sc
	calm.Outages = nil
	calmRes, err := RunScenario(DefaultScenarioConfig(calm))
	if err != nil {
		t.Fatal(err)
	}
	if withRes.TotalIV == calmRes.TotalIV {
		t.Errorf("outages had no effect on total IV (%v)", withRes.TotalIV)
	}
	if calmRes.TotalIV < withRes.TotalIV {
		t.Errorf("removing outages lowered total IV: %v -> %v", withRes.TotalIV, calmRes.TotalIV)
	}
	if withRes.OutageCount == 0 || withRes.OutageMinutes <= 0 {
		t.Errorf("outage accounting missing: %+v", withRes)
	}
	if calmRes.OutageCount != 0 || calmRes.OutageMinutes != 0 {
		t.Errorf("calm run reports outages: %+v", calmRes)
	}
}

// TestScenarioEquivalenceMatrix extends the PR 3 equivalence harness from
// one trace to the whole named-scenario matrix: for every preset, the DES
// driver (engine on the simulator's virtual clock) and the live server's
// engine shape (hand-stepped clock) must produce identical outcome
// sequences — plans, values, waits, expiries, and shed counts.
//
// Outage presets are skipped here with a reason: live replay drives
// outages through wall-clock fault proxies (internal/faults.StormDriver),
// which has no hand-stepped equivalent; the DES covers those shapes via
// the catalog's BaseDown marking in TestRunScenariosAllPresets and
// federation.TestCatalogMarksDownSitesBaseDown.
func TestScenarioEquivalenceMatrix(t *testing.T) {
	for _, preset := range synth.Presets() {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			if preset.Outages != nil {
				t.Skip("live-only shape: outage storms replay through wall-clock fault proxies; DES covers them via the catalog's BaseDown marking")
			}
			cfg := DefaultScenarioConfig(preset.Quick())

			runEngine := func(useSim bool) ([]core.Outcome, int) {
				t.Helper()
				world, err := BuildScenarioWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var clock scheduler.Clock
				var drive func()
				var at func(core.Time, func())
				if useSim {
					s := sim.New()
					clock = scheduler.SimClock{Sim: s}
					drive = s.Run
					at = func(tm core.Time, fn func()) { s.ScheduleAt(tm, fn) }
				} else {
					mc := &scheduler.ManualClock{}
					clock = mc
					drive = mc.Run
					at = func(tm core.Time, fn func()) { mc.AfterFunc(core.Duration(tm), fn) }
				}
				eng, err := scheduler.NewEngine(scheduler.EngineConfig{
					Clock:           clock,
					Executor:        scheduler.PlanExecutor{Clock: clock, Rates: cfg.Rates},
					Strategy:        world.Strategy,
					Rates:           cfg.Rates,
					Slots:           cfg.Slots,
					Aging:           cfg.Aging,
					HaltOnPlanError: false,
					RecordOutcomes:  true,
				})
				if err != nil {
					t.Fatal(err)
				}
				eng.SetEpsilon(cfg.Epsilon)
				for _, q := range world.Workload.Queries {
					q := q
					at(q.SubmitAt, func() { eng.Submit(q, nil) })
				}
				drive()
				if err := eng.Err(); err != nil {
					t.Fatal(err)
				}
				if p := eng.Pending(); p != 0 {
					t.Fatalf("%d queries pending after drain", p)
				}
				return eng.Outcomes(), eng.Shed()
			}

			des, desShed := runEngine(true)
			live, liveShed := runEngine(false)
			if len(des) == 0 || len(des) != len(live) {
				t.Fatalf("outcome counts differ: DES %d, manual-clock %d", len(des), len(live))
			}
			for i := range des {
				a, b := des[i], live[i]
				if a.Query.ID != b.Query.ID {
					t.Fatalf("outcome %d: query %s vs %s", i, a.Query.ID, b.Query.ID)
				}
				if a.Expired != b.Expired || a.Wait != b.Wait || a.Value != b.Value {
					t.Errorf("outcome %d (%s): expired/wait/value %v/%v/%v vs %v/%v/%v",
						i, a.Query.ID, a.Expired, a.Wait, a.Value, b.Expired, b.Wait, b.Value)
				}
				if a.Plan.Signature() != b.Plan.Signature() {
					t.Errorf("outcome %d (%s): plan %q vs %q", i, a.Query.ID, a.Plan.Signature(), b.Plan.Signature())
				}
			}
			if desShed != liveShed {
				t.Errorf("shed counts differ: DES %d, manual-clock %d", desShed, liveShed)
			}
		})
	}
}

func TestCompareSuites(t *testing.T) {
	base := ScenarioSuiteResult{Scenarios: []ScenarioResult{
		{Name: "a", TotalIV: 100},
		{Name: "b", TotalIV: 50},
		{Name: "c", TotalIV: 0},
	}}

	// Identical suites pass.
	if regs := CompareSuites(base, base, 0); len(regs) != 0 {
		t.Errorf("identical suites flagged: %v", regs)
	}

	// A small dip inside the threshold passes; a big drop fails.
	cand := ScenarioSuiteResult{Scenarios: []ScenarioResult{
		{Name: "a", TotalIV: 96},  // -4%: fine
		{Name: "b", TotalIV: 40},  // -20%: regression
		{Name: "c", TotalIV: 0},   // zero baseline: ignored
		{Name: "d", TotalIV: 999}, // new scenario: fine
	}}
	regs := CompareSuites(base, cand, 0)
	if len(regs) != 1 || regs[0].Scenario != "b" {
		t.Fatalf("want one regression on b, got %v", regs)
	}
	if regs[0].DropPct < 19 || regs[0].DropPct > 21 {
		t.Errorf("drop pct %v, want ~20", regs[0].DropPct)
	}
	if !strings.Contains(regs[0].String(), "b: total IV") {
		t.Errorf("unhelpful message %q", regs[0].String())
	}

	// Dropping a scenario silently is a regression too.
	missing := ScenarioSuiteResult{Scenarios: []ScenarioResult{
		{Name: "a", TotalIV: 100},
		{Name: "c", TotalIV: 0},
	}}
	regs = CompareSuites(base, missing, 0)
	if len(regs) != 1 || !regs[0].Missing || regs[0].Scenario != "b" {
		t.Fatalf("want one missing-scenario regression on b, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "missing") {
		t.Errorf("unhelpful message %q", regs[0].String())
	}

	// An improvement is never a regression, whatever the threshold.
	better := ScenarioSuiteResult{Scenarios: []ScenarioResult{
		{Name: "a", TotalIV: 120},
		{Name: "b", TotalIV: 55},
		{Name: "c", TotalIV: 1},
	}}
	if regs := CompareSuites(base, better, 0.0001); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
}

// TestCommittedBaselineFresh keeps the checked-in CI gate baseline
// honest in both directions: a fresh quick run must pass the gate
// against it (no silent regression slipped in), and the baseline must
// pass the gate against the fresh run (the baseline is not stale after
// an intentional improvement). Refresh it with:
//
//	go run ./cmd/ivqp-bench -fig scenario -quick -seed 1 \
//	    -out internal/bench/testdata/BENCH_SCENARIOS_baseline.json
func TestCommittedBaselineFresh(t *testing.T) {
	f, err := os.Open("testdata/BENCH_SCENARIOS_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	baseline, err := ReadScenarioSuite(f)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunScenarios(synth.Presets(), true, baseline.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range CompareSuites(baseline, fresh, 0) {
		t.Errorf("regression versus committed baseline: %s", reg)
	}
	for _, reg := range CompareSuites(fresh, baseline, 0) {
		t.Errorf("committed baseline is stale (behavior improved): %s — regenerate it", reg)
	}
}

// BenchmarkScenarioSuite feeds benchstat in CI: one quick pass over the
// full preset matrix per iteration.
func BenchmarkScenarioSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunScenarios(synth.Presets(), true, 1); err != nil {
			b.Fatal(err)
		}
	}
}
