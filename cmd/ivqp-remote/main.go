// Command ivqp-remote runs a remote site server holding base tables.
//
// It can seed itself with a slice of the TPC-H schema so a multi-site
// federation can be assembled from several processes:
//
//	ivqp-remote -addr :7101 -tables customer,orders,nation,region
//	ivqp-remote -addr :7102 -tables lineitem,supplier,part,partsupp -scale 2
//
// Clients (the DSS server, or ivqp -remote) connect over TCP with the
// internal frame protocol (internal/netproto; DESIGN.md §14).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ivdss/internal/relation"
	"ivdss/internal/server"
	"ivdss/internal/tpch"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7101", "listen address")
	tables := flag.String("tables", "", "comma-separated TPC-H tables to serve (default: all eight)")
	scale := flag.Float64("scale", 1, "TPC-H generator scale")
	seed := flag.Int64("seed", 42, "TPC-H generator seed")
	delay := flag.Duration("delay", 0, "simulated WAN latency per scan/exec (e.g. 50ms)")
	load := flag.String("load", "", "directory of <table>.csv files to serve instead of generated TPC-H data")
	dump := flag.String("dump", "", "write the generated TPC-H tables as <table>.csv into this directory and exit")
	timeout := flag.Duration("timeout", 0, "server-side cap on each request's work; composes with the caller's wire deadline (0 = uncapped)")
	flag.Parse()

	if *dump != "" {
		if err := dumpCSV(*dump, *scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "ivqp-remote:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *tables, *scale, *seed, *delay, *timeout, *load); err != nil {
		fmt.Fprintln(os.Stderr, "ivqp-remote:", err)
		os.Exit(1)
	}
}

func run(addr, tables string, scale float64, seed int64, delay, timeout time.Duration, load string) error {
	srv := server.NewRemoteServer()
	srv.SetScanDelay(delay)
	srv.SetRequestTimeout(timeout)
	if load != "" {
		if err := loadCSVDir(srv, load); err != nil {
			return err
		}
	} else {
		catalog, err := tpch.Generate(tpch.Config{Scale: scale, Seed: seed})
		if err != nil {
			return err
		}
		want := map[string]bool{}
		if tables == "" {
			for _, name := range tpch.TableNames() {
				want[name] = true
			}
		} else {
			for _, name := range strings.Split(tables, ",") {
				want[strings.ToLower(strings.TrimSpace(name))] = true
			}
		}
		for name := range want {
			t, ok := catalog[name]
			if !ok {
				return fmt.Errorf("unknown TPC-H table %q", name)
			}
			if err := srv.AddTable(t); err != nil {
				return err
			}
		}
	}

	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("ivqp-remote: serving %v on %s\n", srv.Tables(), bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("ivqp-remote: shutting down")
	return srv.Close()
}

// dumpCSV generates the TPC-H catalog and writes each table as CSV.
func dumpCSV(dir string, scale float64, seed int64) error {
	catalog, err := tpch.Generate(tpch.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, t := range catalog {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		writeErr := t.WriteCSV(f)
		closeErr := f.Close()
		if writeErr != nil {
			return fmt.Errorf("%s: %w", name, writeErr)
		}
		if closeErr != nil {
			return closeErr
		}
		fmt.Printf("ivqp-remote: wrote %s.csv (%d rows)\n", name, t.NumRows())
	}
	return nil
}

// loadCSVDir installs every <name>.csv in dir as table <name>.
func loadCSVDir(srv *server.RemoteServer, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		t, err := relation.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		if err := srv.AddTable(t); err != nil {
			return err
		}
		loaded++
	}
	if loaded == 0 {
		return fmt.Errorf("no .csv files in %s", dir)
	}
	return nil
}
