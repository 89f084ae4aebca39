// Asset exposure: information-value planning against replica staleness on
// the live DSS.
//
// A bank computes per-desk asset exposure from positions (trading system,
// site 1), market prices (market-data system, site 2) and desk limits
// (risk system, site 2). Both systems run as remote servers on loopback,
// and the DSS replicates prices once per wall second. The market-data
// system is slow to answer, so reading prices at the base costs
// computational latency that the local replica does not. The example asks
// the DSS for the exposure report at three points of the price replica's
// staleness and prints the plan the planner chose, its CL/SL/IV and the
// rows. The DSS calibrates its cost model online from every plan it runs,
// and the example ends with those measurements.
//
//	go run ./examples/assetexposure
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"ivdss"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

const exposureSQL = `
	SELECT pos.po_desk, sum(pos.po_qty * pr.pr_price) AS exposure, max(lim.li_max) AS cap
	FROM positions pos, prices pr, limits lim
	WHERE pos.po_symbol = pr.pr_symbol AND pos.po_desk = lim.li_desk
	GROUP BY pos.po_desk
	ORDER BY exposure DESC`

// timeScale makes one wall second worth ten experiment minutes, so the
// one-second price cycle ages the replica through ten minutes.
const timeScale = 10

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	trading, tradingAddr, err := startSite(0, positionsTable())
	if err != nil {
		return err
	}
	defer trading.Close()
	// Every request to the market-data system waits 100 ms (one experiment
	// minute) before it is served: a base read of prices is not free.
	market, marketAddr, err := startSite(100*time.Millisecond, pricesTable(), limitsTable())
	if err != nil {
		return err
	}
	defer market.Close()

	dss, err := ivdss.NewDSSServer(ivdss.DSSConfig{
		Remotes:   map[ivdss.SiteID]string{1: tradingAddr, 2: marketAddr},
		Replicate: map[ivdss.TableID]time.Duration{"prices": time.Second},
		Rates:     ivdss.DiscountRates{CL: .08, SL: .02},
		TimeScale: timeScale,
	})
	if err != nil {
		return err
	}
	dssAddr, err := dss.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dss.Close()

	// The first report runs before any plan is calibrated, so the planner
	// prices base reads with the server's fallback model, which thinks
	// they are cheap. Later reports use what the DSS has measured since.
	fmt.Println("exposure report under the information-value planner:")
	for _, staleness := range []float64{0.5, 5, 8} {
		at, err := waitForStaleness(dssAddr, "prices", staleness)
		if err != nil {
			return err
		}
		resp, err := netproto.Call(dssAddr, &netproto.Request{
			Kind: netproto.KindExec, SQL: exposureSQL, BusinessValue: 1,
		}, 10*time.Second)
		if err != nil {
			return err
		}
		m := resp.Meta
		fmt.Printf("\n  price replica %.1f min stale  plan: %s\n", at, m.PlanSignature)
		fmt.Printf("         CL=%.2f SL=%.2f IV=%.4f\n", m.CLMinutes, m.SLMinutes, m.Value)
		for _, row := range resp.Result.Rows {
			breach := ""
			if row[1].F > row[2].F {
				breach = "  ** OVER LIMIT **"
			}
			fmt.Printf("         %-8s exposure=%10.2f cap=%10.2f%s\n", row[0].S, row[1].F, row[2].F, breach)
		}
	}
	return printCalibration(dss)
}

// startSite serves the tables from a remote server on loopback that waits
// delay before answering each request.
func startSite(delay time.Duration, tables ...*relation.Table) (*ivdss.RemoteServer, string, error) {
	srv := ivdss.NewRemoteServer()
	srv.SetScanDelay(delay)
	for _, t := range tables {
		if err := srv.AddTable(t); err != nil {
			return nil, "", err
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	return srv, addr, err
}

// waitForStaleness polls the DSS status until the table's replica is at
// least `minutes` old but less than a minute older, and returns its age.
func waitForStaleness(dssAddr, table string, minutes float64) (float64, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, err := netproto.Call(dssAddr, &netproto.Request{Kind: netproto.KindStatus}, time.Second)
		if err != nil {
			return 0, err
		}
		for _, r := range status.Replicas {
			if r.Table == table && r.StalenessMinutes >= minutes && r.StalenessMinutes < minutes+1 {
				return r.StalenessMinutes, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0, fmt.Errorf("replica %s never reached %.1f minutes of staleness", table, minutes)
}

// printCalibration lists the processing costs the DSS measured online, one
// per data-source configuration its plans ran with.
func printCalibration(dss *ivdss.DSSServer) error {
	var buf bytes.Buffer
	if err := dss.SaveCalibration(&buf); err != nil {
		return err
	}
	var snap struct{ Entries map[string]ivdss.CostEstimate }
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return err
	}
	keys := make([]string, 0, len(snap.Entries))
	for k := range snap.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("\nonline calibration: %d plan configurations measured\n", dss.CalibrationLen())
	for _, k := range keys {
		_, bases, _ := strings.Cut(k, "|")
		fmt.Printf("  base tables %-26s  measured %.2f min\n", bases, snap.Entries[k].Process)
	}
	return nil
}

func positionsTable() *relation.Table {
	t := relation.NewTable("positions", relation.MustSchema(
		relation.Column{Name: "po_desk", Type: relation.Str},
		relation.Column{Name: "po_symbol", Type: relation.Str},
		relation.Column{Name: "po_qty", Type: relation.Float},
	))
	for _, p := range []struct {
		desk, sym string
		qty       float64
	}{
		{"rates", "BND1", 1200}, {"rates", "BND2", -400},
		{"equities", "ACME", 900}, {"equities", "GLOBX", 350},
		{"fx", "EURUSD", 50000},
	} {
		t.MustInsert(relation.Row{relation.StrVal(p.desk), relation.StrVal(p.sym), relation.FloatVal(p.qty)})
	}
	return t
}

func pricesTable() *relation.Table {
	t := relation.NewTable("prices", relation.MustSchema(
		relation.Column{Name: "pr_symbol", Type: relation.Str},
		relation.Column{Name: "pr_price", Type: relation.Float},
	))
	for _, p := range []struct {
		sym   string
		price float64
	}{
		{"BND1", 99.4}, {"BND2", 101.2}, {"ACME", 38.5}, {"GLOBX", 112.0}, {"EURUSD", 1.09},
	} {
		t.MustInsert(relation.Row{relation.StrVal(p.sym), relation.FloatVal(p.price)})
	}
	return t
}

func limitsTable() *relation.Table {
	t := relation.NewTable("limits", relation.MustSchema(
		relation.Column{Name: "li_desk", Type: relation.Str},
		relation.Column{Name: "li_max", Type: relation.Float},
	))
	for _, l := range []struct {
		desk string
		cap  float64
	}{
		{"rates", 100000}, {"equities", 50000}, {"fx", 60000},
	} {
		t.MustInsert(relation.Row{relation.StrVal(l.desk), relation.FloatVal(l.cap)})
	}
	return t
}
