package costmodel

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ivdss/internal/core"
)

func access(kinds ...core.AccessKind) []core.TableAccess {
	out := make([]core.TableAccess, len(kinds))
	for i, k := range kinds {
		out[i] = core.TableAccess{
			Table: core.TableID(rune('a' + i)),
			Site:  core.SiteID(i + 1),
			Kind:  k,
		}
	}
	return out
}

func TestFigure4Model(t *testing.T) {
	// The paper's Figure 4 worked example: computation time 2 with replicas
	// only, and 4, 6, 8, 10 when 1-4 base tables participate.
	m := &CountModel{LocalProcess: 2, PerBaseTable: 2}
	q := core.Query{ID: "q"}
	tests := []struct {
		name  string
		acc   []core.TableAccess
		total core.Duration
	}{
		{"all replicas", access(core.AccessReplica, core.AccessReplica, core.AccessReplica, core.AccessReplica), 2},
		{"one base", access(core.AccessBase, core.AccessReplica, core.AccessReplica, core.AccessReplica), 4},
		{"two bases", access(core.AccessBase, core.AccessBase, core.AccessReplica, core.AccessReplica), 6},
		{"three bases", access(core.AccessBase, core.AccessBase, core.AccessBase, core.AccessReplica), 8},
		{"four bases", access(core.AccessBase, core.AccessBase, core.AccessBase, core.AccessBase), 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Estimate(q, tt.acc, 0).Total(); got != tt.total {
				t.Errorf("total = %v, want %v", got, tt.total)
			}
		})
	}
}

func TestCountModelSiteOverhead(t *testing.T) {
	m := &CountModel{LocalProcess: 1, PerBaseTable: 2, PerExtraSite: 5}
	q := core.Query{ID: "q"}
	// Two base tables on two distinct sites: 1 + 2*2 + 5*(2-1) = 10.
	acc := access(core.AccessBase, core.AccessBase)
	if got := m.Estimate(q, acc, 0).Process; got != 10 {
		t.Errorf("process = %v, want 10", got)
	}
	// Same two base tables collapsed onto one site: no extra-site charge.
	acc[1].Site = acc[0].Site
	if got := m.Estimate(q, acc, 0).Process; got != 5 {
		t.Errorf("process = %v, want 5", got)
	}
}

func TestCountModelTransmission(t *testing.T) {
	m := &CountModel{LocalProcess: 1, PerBaseTable: 1, TransmitFlat: 3}
	q := core.Query{ID: "q"}
	if got := m.Estimate(q, access(core.AccessReplica), 0).Transmit; got != 0 {
		t.Errorf("local plan transmit = %v, want 0", got)
	}
	if got := m.Estimate(q, access(core.AccessBase, core.AccessBase), 0).Transmit; got != 3 {
		t.Errorf("remote plan transmit = %v, want 3 (paid once)", got)
	}
}

func TestCountModelQueryWeights(t *testing.T) {
	m := &CountModel{LocalProcess: 2, PerBaseTable: 2, QueryWeights: map[string]float64{"heavy": 3}}
	heavy := core.Query{ID: "heavy"}
	light := core.Query{ID: "light"}
	acc := access(core.AccessBase)
	if got := m.Estimate(heavy, acc, 0).Process; got != 12 {
		t.Errorf("heavy process = %v, want 12", got)
	}
	if got := m.Estimate(light, acc, 0).Process; got != 4 {
		t.Errorf("light process = %v, want 4", got)
	}
}

func TestCalibratedModel(t *testing.T) {
	fallback := &CountModel{LocalProcess: 1, PerBaseTable: 1}
	m, err := NewCalibratedModel(fallback)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{ID: "q7"}
	acc := access(core.AccessBase, core.AccessReplica)

	// Before calibration: fallback.
	if got := m.Estimate(q, acc, 0).Process; got != 2 {
		t.Errorf("fallback process = %v, want 2", got)
	}

	// Replica reads do not enter the key: a measurement of the one-base
	// plan prices every plan reading table "a" remotely.
	m.RecordAccess("q7", access(core.AccessBase), core.CostEstimate{Process: 9, Transmit: 1})
	est := m.Estimate(q, acc, 0)
	if est.Process != 9 || est.Transmit != 1 {
		t.Errorf("calibrated estimate = %+v, want recorded value", est)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}

	// A different base-table subset of the same query still falls back.
	other := access(core.AccessReplica, core.AccessBase) // base table is "b"
	if got := m.Estimate(q, other, 0).Process; got != 2 {
		t.Errorf("uncalibrated subset process = %v, want fallback 2", got)
	}
}

func TestCalibratedModelKeyOrderInsensitive(t *testing.T) {
	ab := access(core.AccessBase, core.AccessBase)
	ba := []core.TableAccess{ab[1], ab[0]}
	if ConfigKeyForAccess("q", ab) != ConfigKeyForAccess("q", ba) {
		t.Error("ConfigKeyForAccess depends on access order")
	}
	// The literal keys saved calibration snapshots carry.
	base := func(table string) core.TableAccess {
		return core.TableAccess{Table: core.TableID(table), Kind: core.AccessBase}
	}
	replica := func(table string) core.TableAccess {
		return core.TableAccess{Table: core.TableID(table), Kind: core.AccessReplica, Freshness: 3}
	}
	view := func(id string) core.TableAccess {
		return core.TableAccess{Table: "lineitem", Kind: core.AccessView, View: core.ViewID(id), Freshness: 3}
	}
	for _, c := range []struct {
		access []core.TableAccess
		want   string
	}{
		{[]core.TableAccess{base("orders"), replica("part"), base("customer"), base("lineitem")}, "q|customer,lineitem,orders"},
		{[]core.TableAccess{base("nation"), base("nation"), replica("nation")}, "q|nation,nation"},
		{[]core.TableAccess{view("v-Q1")}, "q|view:v-Q1"},
		{[]core.TableAccess{base("zeta"), view("v"), base("alpha"), base("view")}, "q|alpha,view,view:v,zeta"},
		{[]core.TableAccess{replica("a"), replica("b")}, "q|"},
		{nil, "q|"},
	} {
		if got := ConfigKeyForAccess("q", c.access); got != c.want {
			t.Errorf("ConfigKeyForAccess(%v) = %q, want %q", c.access, got, c.want)
		}
	}
	// A cost recorded under one order of an access set is found under any
	// other.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		kinds := []core.AccessKind{core.AccessBase, core.AccessReplica, core.AccessView}
		acc := make([]core.TableAccess, 1+rng.Intn(6))
		for i := range acc {
			acc[i] = core.TableAccess{Table: core.TableID(rune('a' + rng.Intn(4))), Kind: kinds[rng.Intn(3)], View: core.ViewID(rune('a' + rng.Intn(4)))}
		}
		m, err := NewCalibratedModel(&CountModel{})
		if err != nil {
			t.Fatal(err)
		}
		m.RecordAccess("q", acc, core.CostEstimate{Process: 7})
		rng.Shuffle(len(acc), func(i, j int) { acc[i], acc[j] = acc[j], acc[i] })
		if got := m.Estimate(core.Query{ID: "q"}, acc, 0).Process; got != 7 {
			t.Fatalf("trial %d: recorded cost not found under %v (key %q)", trial, acc, ConfigKeyForAccess("q", acc))
		}
	}
}

// TestCalibratedModelHitAllocs: the planner asks for an estimate per
// candidate plan, so a calibrated hit must not allocate.
func TestCalibratedModelHitAllocs(t *testing.T) {
	m, err := NewCalibratedModel(&CountModel{LocalProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := access(core.AccessBase, core.AccessReplica, core.AccessBase, core.AccessReplica)
	m.RecordAccess("q", acc, core.CostEstimate{Process: 2})
	q := core.Query{ID: "q"}
	if n := testing.AllocsPerRun(100, func() { m.Estimate(q, acc, 0) }); n != 0 {
		t.Errorf("a calibrated hit allocates %v times, want 0", n)
	}
}

func TestNewCalibratedModelRequiresFallback(t *testing.T) {
	if _, err := NewCalibratedModel(nil); err == nil {
		t.Error("nil fallback accepted")
	}
}

func TestCalibratedModelConcurrentAccess(t *testing.T) {
	m, err := NewCalibratedModel(&CountModel{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			m.RecordAccess("q", access(core.AccessBase), core.CostEstimate{Process: core.Duration(i)})
		}
	}()
	q := core.Query{ID: "q"}
	acc := access(core.AccessBase)
	for i := 0; i < 1000; i++ {
		m.Estimate(q, acc, 0)
	}
	<-done
}

func TestCalibrationJSONRoundTrip(t *testing.T) {
	m, err := NewCalibratedModel(&CountModel{LocalProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	ab := access(core.AccessBase, core.AccessBase)
	m.RecordAccess("q1", ab, core.CostEstimate{Process: 3.5, Transmit: 1})
	m.RecordAccess("q2", nil, core.CostEstimate{Process: .5})

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The key format saved snapshots carry: query, then sorted base tables.
	if !strings.Contains(buf.String(), `"q1|a,b"`) {
		t.Errorf("snapshot lacks key q1|a,b:\n%s", buf.String())
	}
	fresh, err := NewCalibratedModel(&CountModel{LocalProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("entries = %d", fresh.Len())
	}
	got := fresh.Estimate(core.Query{ID: "q1"}, []core.TableAccess{ab[1], ab[0]}, 0) // order-insensitive
	if got.Process != 3.5 || got.Transmit != 1 {
		t.Errorf("estimate after reload = %+v, want the recorded cost", got)
	}
}

func TestCalibrationReadJSONRejectsBadInput(t *testing.T) {
	m, _ := NewCalibratedModel(&CountModel{})
	if err := m.ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := m.ReadJSON(strings.NewReader(`{"entries":{"k":{"Process":-1}}}`)); err == nil {
		t.Error("negative cost accepted")
	}
}

// TestCalibratedEstimateIsACost: whatever is recorded — measurements cut
// short, clock steps backwards, NaN or infinite arithmetic — every
// estimate stays finite and ≥ 0. A refused record reports false and
// leaves the entry it would have replaced.
func TestCalibratedEstimateIsACost(t *testing.T) {
	m, err := NewCalibratedModel(&CountModel{LocalProcess: 1, PerBaseTable: 2, TransmitFlat: .5})
	if err != nil {
		t.Fatal(err)
	}
	component := func(rng *rand.Rand) core.Duration {
		switch rng.Intn(6) {
		case 0:
			return -10 * rng.Float64()
		case 1:
			return math.NaN()
		case 2:
			return math.Inf(1 - 2*rng.Intn(2))
		default:
			return 10 * rng.Float64()
		}
	}
	kinds := []core.AccessKind{core.AccessBase, core.AccessReplica}
	rng := rand.New(rand.NewSource(22))
	refused := 0
	for i := 0; i < 5000; i++ {
		q := core.Query{ID: string(rune('p' + rng.Intn(3)))}
		acc := access(kinds[rng.Intn(2)], kinds[rng.Intn(2)], kinds[rng.Intn(2)])
		before := m.Estimate(q, acc, 0)
		est := core.CostEstimate{Queue: component(rng), Process: component(rng), Transmit: component(rng)}
		if !m.RecordAccess(q.ID, acc, est) {
			refused++
			if after := m.Estimate(q, acc, 0); after != before {
				t.Fatalf("refused %+v, yet the estimate moved %+v -> %+v", est, before, after)
			}
		}
		for _, got := range []core.CostEstimate{m.Estimate(q, acc, 0), m.Estimate(q, access(kinds[rng.Intn(2)], kinds[rng.Intn(2)], kinds[rng.Intn(2)]), 0)} {
			if !(got.Queue >= 0 && got.Process >= 0 && got.Transmit >= 0) || math.IsInf(got.Total(), 0) {
				t.Fatalf("record %d (%+v): an estimate reads %+v", i, est, got)
			}
		}
	}
	if refused == 0 || refused == 5000 {
		t.Fatalf("%d of 5000 records refused: the fixture does not mix costs and non-costs", refused)
	}
}
