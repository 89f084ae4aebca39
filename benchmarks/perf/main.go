// Command perf is the repository's wall-clock benchmark: it starts two
// RemoteServers and one DSSServer on loopback TCP inside this process,
// drives them with one of four workloads, verifies every answer and prints
// the end-to-end metrics (gated run) or the per-layer metrics (traced run).
// README.md documents the workloads, the metrics and the fixed
// configuration; BENCHMARK.json at the repository root is the contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: replica_read, federated_read, batch_mqo or hybrid_write")
		seed         = flag.Int64("seed", 1, "seeds the clients' pre-drawn operation sequences, nothing else")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured window length")
		trace        = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) in place of the gated one")
		traceOut     = flag.String("trace-out", "", "traced run: write the spans here as JSON lines")
		jsonOut      = flag.String("json", "", "also write the full result (with n, notes, environment) to this file")
		quick        = flag.Bool("quick", false, "2 s window, 1 s warm-up, one set-up: a smoke pass, not a measurement")
		all          = flag.Bool("all", false, "run every workload, gated then traced, each in a fresh process; write -out")
		out          = flag.String("out", "", "-all: the result file")
		repeat       = flag.Int("repeat", 1, "-all: gated runs per workload; the file records their median and spread")
		compare      = flag.Bool("compare", false, "compare two -all result files: perf -compare A.json B.json")
	)
	flag.Parse()
	// The servers log breaker and sync events; keep stdout for results.
	log.SetOutput(io.Discard)

	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args(), os.Stdout)
	case *all:
		err = allMain(*seed, *seconds, *repeat, *quick, *out)
	default:
		err = oneMain(*workloadName, *seed, *seconds, *trace != 0, *quick, *traceOut, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// oneMain runs one workload in this process and prints its result; the
// last line of standard output is the driver contract's JSON object.
func oneMain(name string, seed int64, seconds float64, traced, quick bool, traceOut, jsonOut string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	p := defaultParams(seed, seconds)
	if quick {
		p = quickParams(seed)
	}
	ctx := context.Background()
	var res *runResult
	if traced {
		res, err = runTraced(ctx, w, p, traceOut)
	} else {
		res, err = runGated(ctx, w, p)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, res); err != nil {
			return err
		}
	}
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}
