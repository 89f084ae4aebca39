// Fraud detection: the live TCP stack end to end.
//
// An insurance company runs claims processing at a branch (the remote
// site) while the fraud desk at headquarters needs near-real-time reports.
// This example starts a remote server with policies and claims tables and
// a DSS server that replicates the slow-changing policies table locally,
// then streams new claims into the branch while repeatedly asking the DSS
// for the fraud report — showing how the chosen plan and the report's
// information value react to data motion and business value.
//
//	go run ./examples/frauddetection
package main

import (
	"fmt"
	"log"
	"time"

	"ivdss"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

const fraudReport = `
	SELECT p.p_holder, count(*) AS claims, sum(c.c_amount) AS total
	FROM policies p, claims c
	WHERE p.p_id = c.c_policy AND c.c_amount > 5000
	GROUP BY p.p_holder
	HAVING count(*) > 1
	ORDER BY total DESC`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Branch (remote site 1): policies and claims base tables.
	remote := ivdss.NewRemoteServer()
	if err := remote.AddTable(policiesTable()); err != nil {
		return err
	}
	if err := remote.AddTable(claimsTable()); err != nil {
		return err
	}
	remoteAddr, err := remote.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer remote.Close()

	// --- Headquarters: DSS replicating policies every 300 ms of wall
	// time. TimeScale 20 makes each wall second worth 20 experiment
	// minutes, so latency discounts are visible within a short demo.
	dss, err := ivdss.NewDSSServer(ivdss.DSSConfig{
		Remotes:   map[ivdss.SiteID]string{1: remoteAddr},
		Replicate: map[ivdss.TableID]time.Duration{"policies": 300 * time.Millisecond},
		Rates:     ivdss.DiscountRates{CL: .02, SL: .05},
		TimeScale: 20,
	})
	if err != nil {
		return err
	}
	dssAddr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dss.Close()

	fmt.Println("fraud desk online: branch =", remoteAddr, " DSS =", dssAddr)
	fmt.Println()

	// Stream suspicious claims into the branch while the fraud desk polls.
	newClaims := [][]int64{
		{9001, 2, 8200}, // policy 2 again, large amount
		{9002, 4, 7700},
		{9003, 2, 9100},
	}
	for round := 0; round < 4; round++ {
		if round > 0 {
			c := newClaims[round-1]
			if _, err := netproto.Call(remoteAddr, &netproto.Request{
				Kind:  netproto.KindInsert,
				Table: "claims",
				Rows: []relation.Row{{
					relation.IntVal(c[0]), relation.IntVal(c[1]),
					relation.FloatVal(float64(c[2])), relation.DateOf(2026, 7, 6),
				}},
			}, time.Second); err != nil {
				return err
			}
			fmt.Printf("branch: new claim #%d on policy %d for $%d\n", c[0], c[1], c[2])
		}

		resp, err := netproto.Call(dssAddr, &netproto.Request{
			Kind:          netproto.KindExec,
			SQL:           fraudReport,
			BusinessValue: 1,
		}, 10*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("fraud report (round %d): %d flagged holder(s)\n", round+1, resp.Result.NumRows())
		for _, row := range resp.Result.Rows {
			fmt.Printf("    %-10s claims=%s total=$%s\n", row[0].S, row[1], row[2])
		}
		fmt.Printf("    plan: %s\n", resp.Meta.PlanSignature)
		fmt.Printf("    CL=%.2f min  SL=%.2f min  information value=%.4f\n\n",
			resp.Meta.CLMinutes, resp.Meta.SLMinutes, resp.Meta.Value)

		time.Sleep(250 * time.Millisecond)
	}

	// Replica status, as an operator would see it.
	status, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, time.Second)
	if err != nil {
		return err
	}
	for _, r := range status.Replicas {
		fmt.Printf("replica %s @ site %d: staleness %.2f experiment-minutes\n",
			r.Table, r.Site, r.StalenessMinutes)
	}
	return nil
}

func policiesTable() *relation.Table {
	t := relation.NewTable("policies", relation.MustSchema(
		relation.Column{Name: "p_id", Type: relation.Int},
		relation.Column{Name: "p_holder", Type: relation.Str},
		relation.Column{Name: "p_premium", Type: relation.Float},
	))
	for _, p := range []struct {
		id      int64
		holder  string
		premium float64
	}{
		{1, "acme corp", 1200}, {2, "jane roe", 450},
		{3, "john doe", 300}, {4, "oceanic", 2500},
	} {
		t.MustInsert(relation.Row{
			relation.IntVal(p.id), relation.StrVal(p.holder), relation.FloatVal(p.premium),
		})
	}
	return t
}

func claimsTable() *relation.Table {
	t := relation.NewTable("claims", relation.MustSchema(
		relation.Column{Name: "c_id", Type: relation.Int},
		relation.Column{Name: "c_policy", Type: relation.Int},
		relation.Column{Name: "c_amount", Type: relation.Float},
		relation.Column{Name: "c_filed", Type: relation.Date},
	))
	for _, c := range []struct {
		id, policy int64
		amount     float64
	}{
		{8001, 2, 6200}, {8002, 1, 900}, {8003, 4, 5400}, {8004, 3, 450},
	} {
		t.MustInsert(relation.Row{
			relation.IntVal(c.id), relation.IntVal(c.policy),
			relation.FloatVal(c.amount), relation.DateOf(2026, 7, 1),
		})
	}
	return t
}
