// Command ivqp is the client: it submits SQL to a DSS server (or directly
// to a remote site with -remote) and prints the result rows plus the
// report's information-value accounting.
//
//	ivqp -addr 127.0.0.1:7100 -value 1.0 \
//	    "SELECT c_mktsegment, count(*) AS n FROM customer GROUP BY c_mktsegment"
//	ivqp -addr 127.0.0.1:7100 -status
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

func main() {
	if err := cli(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ivqp:", err)
		os.Exit(1)
	}
}

// cli declares the flags on fs, parses args and runs the selected call.
func cli(fs *flag.FlagSet, args []string) error {
	addr := fs.String("addr", "127.0.0.1:7100", "DSS (or remote) server address")
	value := fs.Float64("value", 1, "business value of the report")
	status := fs.Bool("status", false, "print DSS replica status instead of running a query")
	showMetrics := fs.Bool("metrics", false, "print DSS server metrics instead of running a query")
	remote := fs.Bool("remote", false, "talk to a remote site server (bypasses IV planning)")
	batch := fs.Bool("batch", false, "treat the argument as a ';'-separated workload and submit it for MQO scheduling")
	timeout := fs.Duration("timeout", 2*time.Minute, "wall-clock deadline for the call (0 = no deadline)")
	epsilon := fs.Float64("epsilon", 0, "derive the deadline from the report's value horizon: give up once IV would fall below this (0 = off)")
	lambdaCL := fs.Float64("lambda-cl", .01, "computational-latency discount rate used for the -epsilon horizon")
	timescale := fs.Float64("timescale", 1.0/60, "experiment minutes per wall second for the -epsilon horizon (must match the server)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	deadline, err := core.ClientDeadline(*timeout, *epsilon, *value, *lambdaCL, *timescale)
	if err != nil {
		return err
	}
	return run(*addr, *value, *status, *showMetrics, *remote, *batch, deadline, strings.Join(fs.Args(), " "))
}

// callCtx returns a context carrying the deadline (Background when zero).
func callCtx(deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), deadline)
}

func run(addr string, value float64, status, showMetrics, remote, batch bool, deadline time.Duration, sql string) error {
	if batch {
		return runBatch(addr, value, remote, deadline, sql)
	}
	if showMetrics {
		resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindMetrics}, 5*time.Second)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(resp.Metrics))
		for name := range resp.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-28s %g\n", name, resp.Metrics[name])
		}
		return nil
	}
	if status {
		resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindStatus}, 5*time.Second)
		if err != nil {
			return err
		}
		if len(resp.Sites) > 0 {
			fmt.Printf("%-5s %-22s %-10s %s\n", "SITE", "ADDR", "BREAKER", "CONSEC FAILURES")
			for _, st := range resp.Sites {
				fmt.Printf("%-5d %-22s %-10s %d\n", st.Site, st.Addr, st.Breaker, st.ConsecutiveFailures)
			}
			fmt.Println()
		}
		fmt.Printf("%-16s %-5s %-12s %-16s %-12s %-11s %-10s %s\n",
			"TABLE", "SITE", "LAST SYNC", "STALENESS (min)", "PERIOD (min)", "NEXT SYNC", "SYNC AGE", "CURSOR")
		for _, r := range resp.Replicas {
			// Live-cadence columns read "-" until the sync engine reports.
			next, age := "-", "-"
			if r.NextSyncMinutes >= 0 {
				next = fmt.Sprintf("%.2f", r.NextSyncMinutes)
			}
			if r.LastSyncAgeMinutes >= 0 {
				age = fmt.Sprintf("%.2f", r.LastSyncAgeMinutes)
			}
			fmt.Printf("%-16s %-5d %-12.2f %-16.2f %-12.2f %-11s %-10s %d\n",
				r.Table, r.Site, r.LastSyncMinutes, r.StalenessMinutes, r.PeriodMinutes, next, age, r.Cursor)
		}
		if len(resp.Views) > 0 {
			fmt.Println()
			fmt.Printf("%-16s %-14s %-10s %-5s %-12s %-16s %-12s %-11s %-6s %s\n",
				"VIEW", "QUERY", "TABLE", "SITE", "LAST SYNC", "STALENESS (min)", "PERIOD (min)", "NEXT SYNC", "ROWS", "CURSOR")
			for _, v := range resp.Views {
				// A demoted (never- or no-longer-materialized) view reads "-".
				last, stale, next := "-", "-", "-"
				if v.LastSyncMinutes >= 0 {
					last = fmt.Sprintf("%.2f", v.LastSyncMinutes)
					stale = fmt.Sprintf("%.2f", v.StalenessMinutes)
				}
				if v.NextSyncMinutes >= 0 {
					next = fmt.Sprintf("%.2f", v.NextSyncMinutes)
				}
				fmt.Printf("%-16s %-14s %-10s %-5d %-12s %-16s %-12.2f %-11s %-6d %d\n",
					v.View, v.QueryID, v.Table, v.Site, last, stale, v.PeriodMinutes, next, v.Rows, v.Cursor)
			}
		}
		if len(resp.Metrics) > 0 {
			fmt.Println()
			fmt.Println("SCHEDULER")
			names := make([]string, 0, len(resp.Metrics))
			for name := range resp.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("  %-32s %g\n", name, resp.Metrics[name])
			}
		}
		return nil
	}
	if strings.TrimSpace(sql) == "" {
		return fmt.Errorf("no SQL given (pass it as the final argument)")
	}
	req := &netproto.Request{Kind: netproto.KindExec, SQL: sql}
	if !remote {
		req.BusinessValue = value // a remote site does not price its answers
	}
	ctx, cancel := callCtx(deadline)
	defer cancel()
	start := time.Now()
	resp, err := netproto.CallContext(ctx, addr, req, 5*time.Minute)
	if err != nil {
		var remoteErr *netproto.RemoteError
		switch {
		case errors.As(err, &remoteErr) && remoteErr.Expired:
			return fmt.Errorf("EXPIRED: %w", err)
		case errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("EXPIRED: no report within the %v budget: %w", deadline, err)
		}
		return err
	}
	elapsed := time.Since(start)

	printTable(resp.Result)
	if !remote && resp.Meta != nil {
		fmt.Printf("\nplan: %s\n", resp.Meta.PlanSignature)
		fmt.Printf("CL = %.2f min, SL = %.2f min, information value = %.4f (wall %v)\n",
			resp.Meta.CLMinutes, resp.Meta.SLMinutes, resp.Meta.Value, elapsed.Round(time.Millisecond))
		if resp.Meta.Degraded {
			fmt.Println("DEGRADED: a base site was down; the report used local replicas (SL reflects their true staleness)")
		}
	}
	return nil
}

func printTable(t *relation.Table) {
	if t == nil {
		return
	}
	widths := make([]int, t.Schema.Arity())
	for i, c := range t.Schema.Cols {
		widths[i] = len(c.Name)
	}
	rendered := make([][]string, len(t.Rows))
	for ri, row := range t.Rows {
		rendered[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			rendered[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range t.Schema.Cols {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("%-*s", widths[i], strings.ToUpper(c.Name))
	}
	fmt.Println()
	for _, row := range rendered {
		for i, cell := range row {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%-*s", widths[i], cell)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", t.NumRows())
}

// runBatch submits a ';'-separated workload for multi-query-optimized
// execution and prints each member's result and IV accounting; a remote
// site answers the members without pricing them.
func runBatch(addr string, value float64, remote bool, deadline time.Duration, sql string) error {
	var queries []netproto.BatchQuery
	for _, part := range strings.Split(sql, ";") {
		if q := strings.TrimSpace(part); q != "" {
			m := netproto.BatchQuery{SQL: q}
			if !remote {
				m.BusinessValue = value // a remote site does not price its answers
			}
			queries = append(queries, m)
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("no queries in batch (separate with ';')")
	}
	ctx, cancel := callCtx(deadline)
	defer cancel()
	start := time.Now()
	resp, err := netproto.CallContext(ctx, addr, &netproto.Request{Kind: netproto.KindBatch, Batch: queries}, 10*time.Minute)
	if err != nil {
		return err
	}
	if resp.MQOFallback {
		fmt.Println("MQO FALLBACK: workload ordering failed; the batch ran in submission order")
	}
	var total float64
	for i, item := range resp.Batch {
		fmt.Printf("--- query %d ---\n", i+1)
		if item.Err != "" {
			switch {
			case strings.Contains(item.Err, "value expired"):
				fmt.Printf("EXPIRED: %s\n", item.Err)
			case item.Degraded:
				fmt.Printf("DEGRADED ERROR: %s\n", item.Err)
			default:
				fmt.Printf("ERROR: %s\n", item.Err)
			}
			continue
		}
		printTable(item.Result)
		if remote {
			continue
		}
		fmt.Printf("plan: %s\nCL = %.2f min, SL = %.2f min, IV = %.4f\n",
			item.Meta.PlanSignature, item.Meta.CLMinutes, item.Meta.SLMinutes, item.Meta.Value)
		if item.Degraded {
			fmt.Println("DEGRADED: answered from local replicas because a base site was down")
		}
		total += item.Meta.Value
	}
	summary := fmt.Sprintf("\nworkload: %d queries", len(resp.Batch))
	if !remote {
		summary += fmt.Sprintf(", total IV %.4f", total)
	}
	fmt.Printf("%s (wall %v)\n", summary, time.Since(start).Round(time.Millisecond))
	return nil
}
