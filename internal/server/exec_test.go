package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/faults"
	"ivdss/internal/sqlmini"
)

// Executor tests: dss.executePlan called directly with hand-built plans, so
// the context and malformed-plan rules are pinned below admission and the
// scheduling engine.

// blackholedDSS builds a DSS (not listening) whose one site sits behind a
// proxy: trades is replicated through it while it passes traffic, then the
// proxy black-holes every new connection and severs the pooled ones, so a
// base read of trades hangs until the caller's context ends.
func blackholedDSS(t *testing.T) *DSSServer {
	t.Helper()
	_, siteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	proxy := faults.NewProxy(siteAddr, 1)
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	dss, err := NewDSSServer(DSSConfig{
		Remotes:     map[core.SiteID]string{1: proxy.Addr()},
		Replicate:   map[core.TableID]time.Duration{"trades": time.Hour},
		Rates:       core.DiscountRates{CL: .05, SL: .05},
		TimeScale:   10,
		DialTimeout: 5 * time.Second, // far beyond every test deadline: the caller's context must win
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	proxy.SetMode(faults.ModeBlackhole, 0)
	proxy.Sever()
	return dss
}

// mustParse compiles sql the way the DSS does on admission, into a cache
// of its own.
func mustParse(t *testing.T, sql string) *sqlmini.Statement {
	t.Helper()
	st, err := sqlmini.NewExecCache().Statement(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tradesSQL is the statement tradesBasePlan answers.
const tradesSQL = "SELECT t_account FROM trades"

// tradesBasePlan reads trades from its (black-holed) base site although a
// replica exists, the shape a planner picks when freshness is worth a trip.
var tradesBasePlan = core.Plan{
	Query:  core.Query{ID: "q", Tables: []core.TableID{"trades"}, BusinessValue: 1},
	Access: []core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessBase}},
}

func TestDSSExecutePlanCancelledUpFront(t *testing.T) {
	dss := blackholedDSS(t)
	calls := dss.stats.Counter("remote_calls_total").Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := dss.executePlan(ctx, mustParse(t, tradesSQL), tradesSQL, tradesBasePlan)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled plan: %v, want context.Canceled", err)
	}
	if got := dss.stats.Counter("remote_calls_total").Value(); got != calls {
		t.Errorf("remote_calls_total %d -> %d: a dead context reached the site", calls, got)
	}
}

// TestDSSExecutePlanDeadlineDoesNotDegrade: a deadline that expires mid-fetch
// is the caller's answer. The replica of trades could answer, but degrading
// would spend more time on a report nobody is waiting for.
func TestDSSExecutePlanDeadlineDoesNotDegrade(t *testing.T) {
	dss := blackholedDSS(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, _, degraded, err := dss.executePlan(ctx, mustParse(t, tradesSQL), tradesSQL, tradesBasePlan)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v (result %v), want context.DeadlineExceeded", err, out)
	}
	if elapsed > time.Second {
		t.Errorf("abort took %v, want well under the 5s dial timeout", elapsed)
	}
	if degraded || dss.stats.Counter("degraded_reads_total").Value() != 0 {
		t.Error("an expired base read degraded to the replica")
	}
}

func TestDSSExecutePlanCarriesCause(t *testing.T) {
	dss := blackholedDSS(t)
	expired := &core.ValueExpiredError{Query: "q", Horizon: 1, Reason: "expired-running"}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	fire := time.AfterFunc(20*time.Millisecond, func() { cancel(expired) })
	defer fire.Stop()
	_, _, _, err := dss.executePlan(ctx, mustParse(t, tradesSQL), tradesSQL, tradesBasePlan)
	var vee *core.ValueExpiredError
	if !errors.As(err, &vee) {
		t.Fatalf("error %v, want the ValueExpiredError cause", err)
	}
	if vee.Reason != "expired-running" {
		t.Errorf("cause reason %q", vee.Reason)
	}
}

// TestDSSExecutePlanMalformed: every plan the executor cannot run is an
// error, never a panic and never a degraded answer.
func TestDSSExecutePlanMalformed(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"accounts": time.Hour},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })

	q := core.Query{ID: "q", Tables: []core.TableID{"trades"}, BusinessValue: 1}
	for _, tc := range []struct {
		name   string
		sql    string
		access []core.TableAccess
		want   string // the branch's own error text
	}{
		{"replica without snapshot", "SELECT t_account FROM trades",
			[]core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessReplica}},
			"no replica snapshot for trades"},
		{"view inside a multi-source plan", "SELECT t_account FROM trades, accounts",
			[]core.TableAccess{
				{Table: "trades", Site: 1, Kind: core.AccessView, View: "exposure"},
				{Table: "accounts", Site: 1, Kind: core.AccessReplica},
			},
			"cannot serve table trades inside a multi-source plan"},
		{"uninstalled view", "SELECT t_account FROM trades",
			[]core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessView, View: "nope"}},
			"no materialized answer for view nope"},
		{"invalid access kind", "SELECT t_account FROM trades",
			[]core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessKind(99)}},
			"invalid access kind 99"},
		{"base on an unconfigured site", "SELECT t_account FROM trades",
			[]core.TableAccess{{Table: "trades", Site: 9, Kind: core.AccessBase}},
			"no address for site 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := core.Plan{Query: q, Access: tc.access}
			out, _, degraded, err := dss.executePlan(context.Background(), mustParse(t, tc.sql), tc.sql, plan)
			if err == nil {
				t.Fatalf("malformed plan answered %v", out)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want it to contain %q", err, tc.want)
			}
			var ue *core.SiteUnavailableError
			if isBase := tc.access[0].Kind == core.AccessBase; isBase != errors.As(err, &ue) {
				t.Errorf("error %v: SiteUnavailableError %v, want it for the base read only", err, !isBase)
			}
			if degraded {
				t.Errorf("malformed plan reported a degraded answer: %v", err)
			}
		})
	}
}

// TestCutDelayCalibratesNoNegativeCost: at TimeScale 10 a replica plan
// released 5 minutes ahead would wait 30 s, and MaxDelay cuts the wait to
// 50 ms (half a minute), so the plan runs 4.5 minutes before its start.
// The cost calibrated for it is measured from when the work began, never
// from the start it did not wait for, so it is not negative and is kept.
func TestCutDelayCalibratesNoNegativeCost(t *testing.T) {
	_, siteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: siteAddr},
		Replicate: map[core.TableID]time.Duration{"trades": time.Hour},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
		MaxDelay:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	now := dss.now()
	q := core.Query{ID: "q", Tables: []core.TableID{"trades"}, BusinessValue: 1, SubmitAt: now}
	plan := core.Plan{Query: q, Access: []core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessReplica, Freshness: now}}, Start: now + 5}
	start := time.Now()
	if _, _, err := dss.runOne(context.Background(), mustParse(t, tradesSQL), tradesSQL, q, plan); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("runOne took %v: MaxDelay did not cut the wait", waited)
	}
	if est := dss.costs.Estimate(q, plan.Access, plan.Start); est.Process < 0 || est.Process > .5 {
		t.Errorf("calibrated %+v for the replica plan, want a processing cost in [0, 0.5] minutes", est)
	}
	if n := dss.costs.Len(); n != 1 {
		t.Errorf("%d calibration entries, want the plan's one", n)
	}
	if n := dss.stats.Counter("calibration_refused_total").Value(); n != 0 {
		t.Errorf("calibration_refused_total %d, want 0", n)
	}
}
