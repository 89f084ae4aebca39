package main

import (
	"reflect"
	"testing"
)

// TestTenantLinesSorted pins the summary's order: the lines come out by
// tenant name however the map happens to iterate.
func TestTenantLinesSorted(t *testing.T) {
	iv := map[string]float64{"silver": 2, "gold": 3.5, "bronze": 1, "platinum": 4, "copper": .5}
	want := []string{
		"tenant bronze   delivered IV 1.000",
		"tenant copper   delivered IV 0.500",
		"tenant gold     delivered IV 3.500",
		"tenant platinum delivered IV 4.000",
		"tenant silver   delivered IV 2.000",
	}
	for i := 0; i < 20; i++ {
		if got := tenantLines(iv); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: tenant lines out of order:\n got %q\nwant %q", i, got, want)
		}
	}
}
