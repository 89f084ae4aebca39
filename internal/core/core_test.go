package core

import (
	"math"
	"testing"
)

func TestInformationValue(t *testing.T) {
	tests := []struct {
		name  string
		bv    float64
		lat   Latencies
		rates DiscountRates
		want  float64
	}{
		{"zero latencies keep full value", 1, Latencies{}, DiscountRates{CL: .1, SL: .1}, 1},
		{"paper figure 4 scatter seed", 1, Latencies{CL: 10, SL: 10}, DiscountRates{CL: .1, SL: .1}, math.Pow(.9, 20)},
		{"only CL discounts", 2, Latencies{CL: 3}, DiscountRates{CL: .5}, 2 * math.Pow(.5, 3)},
		{"only SL discounts", 2, Latencies{SL: 3}, DiscountRates{SL: .5}, 2 * math.Pow(.5, 3)},
		{"zero rates never decay", 5, Latencies{CL: 100, SL: 100}, DiscountRates{}, 5},
		{"zero business value", 0, Latencies{CL: 1, SL: 1}, DiscountRates{CL: .1, SL: .1}, 0},
		{"negative latency clamps to zero", 1, Latencies{CL: -5, SL: -5}, DiscountRates{CL: .1, SL: .1}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := InformationValue(tt.bv, tt.lat, tt.rates)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("InformationValue = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestInformationValueMonotoneInLatency(t *testing.T) {
	rates := DiscountRates{CL: .05, SL: .05}
	prev := math.Inf(1)
	for cl := 0.0; cl <= 50; cl += 5 {
		v := InformationValue(1, Latencies{CL: cl, SL: 10}, rates)
		if v > prev {
			t.Fatalf("IV increased with CL at %v", cl)
		}
		prev = v
	}
}

func TestToleratedCL(t *testing.T) {
	rates := DiscountRates{CL: .1, SL: .1}
	// Paper: IV = 0.9^20 tolerates exactly CL = 20 at zero SL.
	opt := math.Pow(.9, 20)
	if got := ToleratedCL(1, opt, rates); math.Abs(got-20) > 1e-9 {
		t.Errorf("ToleratedCL = %v, want 20", got)
	}
	if got := ToleratedCL(1, 1, rates); got != 0 {
		t.Errorf("target at full value should tolerate 0, got %v", got)
	}
	if got := ToleratedCL(1, .5, DiscountRates{}); !math.IsInf(got, 1) {
		t.Errorf("zero λCL should tolerate infinity, got %v", got)
	}
	if got := ToleratedCL(1, 0, rates); !math.IsInf(got, 1) {
		t.Errorf("zero target should tolerate infinity, got %v", got)
	}
}

func TestToleratedCLRoundTrip(t *testing.T) {
	rates := DiscountRates{CL: .05}
	for _, target := range []float64{.9, .5, .1, .01} {
		b := ToleratedCL(1, target, rates)
		back := InformationValue(1, Latencies{CL: b}, rates)
		if math.Abs(back-target) > 1e-9 {
			t.Errorf("target %v: IV at bound = %v", target, back)
		}
	}
}

func TestDiscountRatesValidate(t *testing.T) {
	tests := []struct {
		name    string
		rates   DiscountRates
		wantErr bool
	}{
		{"zero rates valid", DiscountRates{}, false},
		{"typical", DiscountRates{CL: .01, SL: .05}, false},
		{"negative CL", DiscountRates{CL: -.1}, true},
		{"SL of one", DiscountRates{SL: 1}, true},
		{"NaN", DiscountRates{CL: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.rates.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestQueryValidate(t *testing.T) {
	tests := []struct {
		name    string
		q       Query
		wantErr bool
	}{
		{"valid", Query{ID: "q", Tables: []TableID{"a"}, BusinessValue: 1}, false},
		{"empty id", Query{Tables: []TableID{"a"}}, true},
		{"no tables", Query{ID: "q"}, true},
		{"duplicate tables", Query{ID: "q", Tables: []TableID{"a", "a"}}, true},
		{"negative value", Query{ID: "q", Tables: []TableID{"a"}, BusinessValue: -1}, true},
		{"NaN value", Query{ID: "q", Tables: []TableID{"a"}, BusinessValue: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.q.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTableStateValidate(t *testing.T) {
	good := TableState{ID: "t", Site: 1, Replica: &ReplicaState{LastSync: 5, NextSyncs: []Time{7, 9}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	bad := TableState{ID: "t", Replica: &ReplicaState{LastSync: 5, NextSyncs: []Time{4}}}
	if err := bad.Validate(); err == nil {
		t.Error("next sync before last sync accepted")
	}
	if err := (TableState{}).Validate(); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestPlanLatenciesAllBase(t *testing.T) {
	// Pure remote plan with no queue: SL equals CL (paper, Figure 1).
	q := Query{ID: "q", Tables: []TableID{"a", "b"}, BusinessValue: 1, SubmitAt: 11}
	plan := Plan{
		Query: q,
		Access: []TableAccess{
			{Table: "a", Site: 1, Kind: AccessBase},
			{Table: "b", Site: 2, Kind: AccessBase},
		},
		Start: 11,
		Cost:  CostEstimate{Process: 8, Transmit: 2},
	}
	lat := plan.Latencies()
	if lat.CL != 10 || lat.SL != 10 {
		t.Errorf("latencies = %+v, want CL=SL=10", lat)
	}
}

func TestPlanLatenciesAllReplica(t *testing.T) {
	q := Query{ID: "q", Tables: []TableID{"a", "b"}, BusinessValue: 1, SubmitAt: 11}
	plan := Plan{
		Query: q,
		Access: []TableAccess{
			{Table: "a", Kind: AccessReplica, Freshness: 4},
			{Table: "b", Kind: AccessReplica, Freshness: 8},
		},
		Start: 11,
		Cost:  CostEstimate{Process: 2},
	}
	lat := plan.Latencies()
	if lat.CL != 2 {
		t.Errorf("CL = %v, want 2", lat.CL)
	}
	// SL governed by the earliest-synchronized replica: 13 − 4 = 9.
	if lat.SL != 9 {
		t.Errorf("SL = %v, want 9", lat.SL)
	}
}

func TestPlanLatenciesDelayedPlanPaysCL(t *testing.T) {
	// Figure 2: delaying until a future sync adds CL but can cut SL.
	q := Query{ID: "q", Tables: []TableID{"a"}, BusinessValue: 1, SubmitAt: 10}
	delayed := Plan{
		Query:  q,
		Access: []TableAccess{{Table: "a", Kind: AccessReplica, Freshness: 15}},
		Start:  15,
		Cost:   CostEstimate{Process: 2},
	}
	lat := delayed.Latencies()
	if lat.CL != 7 { // waited 5 + processed 2
		t.Errorf("CL = %v, want 7", lat.CL)
	}
	if lat.SL != 2 { // result at 17, freshness 15
		t.Errorf("SL = %v, want 2", lat.SL)
	}
}

func TestPlanLatenciesQueueCountsTowardCL(t *testing.T) {
	q := Query{ID: "q", Tables: []TableID{"a"}, BusinessValue: 1, SubmitAt: 0}
	plan := Plan{
		Query:  q,
		Access: []TableAccess{{Table: "a", Site: 1, Kind: AccessBase}},
		Start:  0,
		Cost:   CostEstimate{Queue: 3, Process: 4, Transmit: 1},
	}
	lat := plan.Latencies()
	if lat.CL != 8 {
		t.Errorf("CL = %v, want 8 (queue+process+transmit)", lat.CL)
	}
	// Base table is fresh as of processing start (t=3); result at 8.
	if lat.SL != 5 {
		t.Errorf("SL = %v, want 5", lat.SL)
	}
}

func TestPlanHelpers(t *testing.T) {
	q := Query{ID: "q", Tables: []TableID{"a", "b", "c"}, BusinessValue: 1}
	plan := Plan{
		Query: q,
		Access: []TableAccess{
			{Table: "a", Site: 2, Kind: AccessBase},
			{Table: "b", Site: 1, Kind: AccessReplica, Freshness: 3},
			{Table: "c", Site: 2, Kind: AccessBase},
		},
		Start: 5,
	}
	bases := plan.BaseTables()
	if len(bases) != 2 || bases[0] != "a" || bases[1] != "c" {
		t.Errorf("BaseTables = %v", bases)
	}
	sig := plan.Signature()
	want := "a=base b=replica@3.0 c=base start=5.0"
	if sig != want {
		t.Errorf("Signature = %q, want %q", sig, want)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessBase.String() != "base" || AccessReplica.String() != "replica" {
		t.Error("unexpected AccessKind strings")
	}
	if AccessKind(99).String() != "AccessKind(99)" {
		t.Error("unexpected fallback string")
	}
}

func TestAgingBoost(t *testing.T) {
	var off Aging
	if off.Enabled() || off.Boost(100) != 0 {
		t.Error("zero Aging should be disabled")
	}
	a := Aging{Coefficient: .01, Exponent: 2}
	if got := a.Boost(3); math.Abs(got-.01*9) > 1e-12 {
		t.Errorf("Boost = %v, want 0.09", got)
	}
	if got := a.Boost(0); got != 0 {
		t.Errorf("Boost at zero wait = %v, want 0", got)
	}
	if got := a.EffectiveValue(.5, 3); math.Abs(got-.59) > 1e-12 {
		t.Errorf("EffectiveValue = %v, want 0.59", got)
	}
}

func TestAgingDefaultExponent(t *testing.T) {
	a := Aging{Coefficient: 1}
	if got, want := a.Boost(4), math.Pow(4, DefaultAgingExponent); math.Abs(got-want) > 1e-12 {
		t.Errorf("Boost = %v, want %v", got, want)
	}
}

func TestAgingValidate(t *testing.T) {
	tests := []struct {
		name    string
		a       Aging
		wantErr bool
	}{
		{"zero ok", Aging{}, false},
		{"typical", Aging{Coefficient: .01, Exponent: 1.5}, false},
		{"negative coefficient", Aging{Coefficient: -1}, true},
		{"sublinear exponent", Aging{Coefficient: 1, Exponent: .5}, true},
		{"exponent exactly one", Aging{Coefficient: 1, Exponent: 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.a.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestAgingOutgrowsDiscount checks the design requirement from Section 3.3:
// the boost must grow faster than the discounts erode value, so that a
// waiting query eventually outranks any fresh arrival.
func TestAgingOutgrowsDiscount(t *testing.T) {
	a := Aging{Coefficient: .001, Exponent: 1.5}
	rates := DiscountRates{CL: .05, SL: .05}
	crossed := false
	for wait := 1.0; wait <= 10000; wait *= 2 {
		iv := InformationValue(1, Latencies{CL: wait, SL: wait}, rates)
		if a.EffectiveValue(iv, wait) > 1 {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("aging boost never overtook the discount")
	}
}
