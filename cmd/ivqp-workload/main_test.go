package main

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/server"
	"ivdss/internal/synth"
	"ivdss/internal/tpch"
)

func TestPlanShape(t *testing.T) {
	tests := []struct {
		sig  string
		want string
	}{
		{"a=base b=base start=1.0", "all-base"},
		{"a=replica@2.0 start=1.0", "all-replica"},
		{"a=base b=replica@2.0 start=1.0", "mixed"},
	}
	for _, tt := range tests {
		if got := planShape(tt.sig); got != tt.want {
			t.Errorf("planShape(%q) = %q, want %q", tt.sig, got, tt.want)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := poissonStream(0, 0, "Q1", 1, 1, nil); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := poissonStream(1, 0, "Q99", 1, 1, nil); err == nil {
		t.Error("unknown template accepted")
	}
	if _, err := poissonStream(1, 0, " , ", 1, 1, nil); err == nil {
		t.Error("empty template list accepted")
	}
	stream, err := poissonStream(3, time.Millisecond, "Q1", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := offer(io.Discard, nil, stream, 0); err == nil {
		t.Error("empty address list accepted")
	}
}

// TestPoissonStream pins the one materialized stream both former tools
// drew: seeded, offsets ascending from zero, every arrival carrying its
// template's routing footprint, value and hash-assigned tenant.
func TestPoissonStream(t *testing.T) {
	a, err := poissonStream(200, 10*time.Millisecond, "Q1,Q3,Q13", .7, 9, []string{"gold", "bronze"})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := poissonStream(200, 10*time.Millisecond, "Q1,Q3,Q13", .7, 9, []string{"gold", "bronze"})
	tenants, templates := map[string]int{}, map[string]int{}
	for i := range a {
		if a[i].at != b[i].at || a[i].tmpl.q.ID != b[i].tmpl.q.ID || a[i].tenant != b[i].tenant {
			t.Fatalf("arrival %d differs between two draws of one seed", i)
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("offsets out of order at %d", i)
		}
		if a[i].value != .7 || len(a[i].tmpl.tables) == 0 {
			t.Fatalf("arrival %d = %+v: wrong value or no routing footprint", i, a[i])
		}
		tenants[a[i].tenant]++
		templates[a[i].tmpl.q.ID]++
	}
	if a[0].at != 0 {
		t.Errorf("first arrival at %v, want 0", a[0].at)
	}
	if len(tenants) != 2 || len(templates) != 3 {
		t.Errorf("tenants %v, templates %v: want both tenants and all three templates drawn", tenants, templates)
	}
	if mean := a[len(a)-1].at / time.Duration(len(a)-1); mean < 7*time.Millisecond || mean > 13*time.Millisecond {
		t.Errorf("mean gap %v, want about 10ms", mean)
	}
	none, _ := poissonStream(5, 0, "Q6", 1, 1, nil)
	for _, x := range none {
		if x.at != 0 || x.tenant != "" {
			t.Errorf("zero mean, no tenants: arrival %+v", x)
		}
	}
}

func TestScenarioStreamDeterministic(t *testing.T) {
	sc, err := synth.Preset("flash-zipf")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.Quick()
	wl, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := scenarioStream(wl, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := scenarioStream(wl, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(wl.Queries) {
		t.Fatalf("%d arrivals for %d scenario queries", len(s1), len(wl.Queries))
	}
	for i := range s1 {
		if s1[i].at != s2[i].at || s1[i].value != s2[i].value || s1[i].tmpl.q.ID != s2[i].tmpl.q.ID {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
		if s1[i].value != wl.Queries[i].BusinessValue {
			t.Fatalf("arrival %d lost its scenario business value", i)
		}
		// Arrival order survives the scaling.
		if i > 0 && s1[i].at < s1[i-1].at {
			t.Fatalf("offsets out of order at %d", i)
		}
	}
	// Offsets shrink with a larger timescale (more experiment minutes per
	// wall second).
	s3, err := scenarioStream(wl, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := len(s1) - 1
	if s3[last].at >= s1[last].at {
		t.Errorf("larger timescale did not compress the replay: %v vs %v", s3[last].at, s1[last].at)
	}
	if _, err := scenarioStream(wl, 0, nil); err == nil {
		t.Error("zero timescale accepted")
	}
}

func TestStormWindowsScale(t *testing.T) {
	sc, err := synth.Preset("outage-storm")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sc.Quick().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Outages) == 0 {
		t.Fatal("no outages generated")
	}
	windows := stormWindows(wl, 10)
	if len(windows) != len(wl.Outages) {
		t.Fatalf("%d windows for %d outages", len(windows), len(wl.Outages))
	}
	for i, w := range windows {
		o := wl.Outages[i]
		wantStart := time.Duration(o.Start / 10 * float64(time.Second))
		if w.Start != wantStart || w.End <= w.Start {
			t.Errorf("window %d = %+v, want start %v and positive span", i, w, wantStart)
		}
		if w.Target == "" || w.Target == "site0" {
			t.Errorf("window %d targets %q", i, w.Target)
		}
	}
}

func TestProxyFlags(t *testing.T) {
	p := proxyFlags{}
	if err := p.Set("1=127.0.0.1:7201=127.0.0.1:7101"); err != nil {
		t.Fatal(err)
	}
	if spec := p[1]; spec.listen != "127.0.0.1:7201" || spec.target != "127.0.0.1:7101" {
		t.Errorf("spec = %+v", spec)
	}
	for _, bad := range []string{"", "1=only-two", "x=a=b", "0=a=b"} {
		if err := p.Set(bad); err == nil {
			t.Errorf("bad flag %q accepted", bad)
		}
	}
}

func TestRunScenarioRejectsBadInput(t *testing.T) {
	if err := runScenario([]string{"127.0.0.1:1"}, "nope", 1, 10, 0, nil, nil); err == nil {
		t.Error("unknown scenario accepted")
	}
	// Outage scenarios refuse to run without fault proxies rather than
	// silently measuring a calmer world than the DES benched.
	if err := runScenario([]string{"127.0.0.1:1"}, "outage-storm", 1, 10, 0, nil, nil); err == nil {
		t.Error("outage scenario without proxies accepted")
	}
	if err := runScenario([]string{"127.0.0.1:1"}, "flash-zipf", 1, 0, 0, nil, nil); err == nil {
		t.Error("zero timescale accepted")
	}
}

func TestQueryDeadline(t *testing.T) {
	// -epsilon off: the plain timeout passes through.
	if d, err := core.ClientDeadline(time.Minute, 0, 1, .01, 1.0/60); err != nil || d != time.Minute {
		t.Errorf("deadline = %v, %v", d, err)
	}
	// bv 1, epsilon .5, λcl .05 → ~13.5 experiment minutes; at timescale 10
	// that is ~1.35 wall seconds, well under the 1-minute timeout.
	d, err := core.ClientDeadline(time.Minute, .5, 1, .05, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d < time.Second || d > 2*time.Second {
		t.Errorf("horizon deadline = %v, want ~1.35s", d)
	}
	// A value already below epsilon is refused up front.
	if _, err := core.ClientDeadline(time.Minute, .5, .4, .05, 10); err == nil {
		t.Error("worthless value accepted")
	}
	if _, err := core.ClientDeadline(time.Minute, .5, 1, .05, 0); err == nil {
		t.Error("zero timescale accepted with epsilon set")
	}
}

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
		if got := sortedLines(iv, tenantLine); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: tenant lines out of order:\n got %q\nwant %q", i, got, want)
		}
	}
	mix := map[string]int{"mixed": 2, "all-replica": 7, "all-base": 1}
	if got, want := sortedLines(mix, "  %-12s %d"), []string{"  all-base     1", "  all-replica  7", "  mixed        2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("plan mix lines %q, want %q", got, want)
	}
}

// TestOfferAgainstLiveShards drives the merged client end to end: one
// remote, two DSS front-ends addressed as a two-shard list, a seeded
// stream with tenants. Arrivals are open-loop (all offered long before a
// slowed remote lets the first one finish), routed by footprint, and the
// summary carries server-reported IV next to client latency, with plan mix
// and tenant lines in sorted order.
func TestOfferAgainstLiveShards(t *testing.T) {
	tables, err := tpch.Generate(tpch.Config{Scale: .2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	remote := server.NewRemoteServer()
	for _, name := range []string{tpch.LineItem, "orders", "customer"} {
		if err := remote.AddTable(tables[name]); err != nil {
			t.Fatal(err)
		}
	}
	remote.SetScanDelay(150 * time.Millisecond)
	remoteAddr, err := remote.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	var addrs []string
	for i := 0; i < 2; i++ {
		dss, err := server.NewDSSServer(server.DSSConfig{
			Remotes:   map[core.SiteID]string{1: remoteAddr},
			Rates:     core.DiscountRates{CL: .01, SL: .01},
			TimeScale: 1,
			Epsilon:   -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := dss.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dss.Close() })
		addrs = append(addrs, addr)
	}

	// Q13 reads customer+orders without a pushable predicate, so its base
	// fetches are whole-table scans the remote delays; Q6 is a pushdown;
	// Q22's customer-only footprint anchors on the other shard.
	stream, err := poissonStream(12, time.Millisecond, "Q6,Q13,Q22", 1, 3, []string{"gold", "bronze"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := offer(&out, addrs, stream, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	m := regexp.MustCompile(`offered 12 arrivals in (\S+) \(\S+/s\), drained in (\S+) \(0 errors, 0 expired, 0 degraded, 0 transport retries\)`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no clean summary line in:\n%s", got)
	}
	offered, _ := time.ParseDuration(m[1])
	drained, _ := time.ParseDuration(m[2])
	if offered > 100*time.Millisecond || drained < 150*time.Millisecond {
		t.Errorf("offered in %v, drained in %v: arrivals waited for responses (closed loop)", offered, drained)
	}
	if !regexp.MustCompile(`arrivals per shard: \[[1-9]\d* [1-9]\d*\]`).MatchString(got) {
		t.Errorf("footprint routing left a shard idle:\n%s", got)
	}
	for _, want := range []string{"information value: total ", "client latency ms: p50 ", "plan mix:\n  all-base     12\ntenant bronze ", "\ntenant gold "} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, " rows="); n != 12 {
		t.Errorf("%d per-query lines, want 12", n)
	}
}
