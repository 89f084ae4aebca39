// Command ivqp-bench regenerates the paper's evaluation figures (5–9) and
// the ablation studies as text tables. The experiments are the registry in
// internal/bench (bench.Experiments); `ivqp-bench -h` lists their names.
//
// Usage:
//
//	ivqp-bench                 # run everything at paper scale
//	ivqp-bench -fig 5          # one experiment by its registered name
//	ivqp-bench -quick          # scaled-down configs (CI-sized)
//	ivqp-bench -seed 7         # change the experiment seed
//	ivqp-bench -fig load -epsilon 0.25   # admission-control load run
//	ivqp-bench -fig scenario -scenario flash-zipf   # one named scenario
//	ivqp-bench -fig cluster -out c.json  # name the JSON artifact; by default
//	                           # an artifact-writing experiment leaves
//	                           # <PREFIX>_<date>.json in the working directory
//	ivqp-bench -profile prof/  # capture cpu.pprof + heap.pprof for the run
//	ivqp-bench -compare base.json new.json          # regression gate: exit
//	                           # non-zero on >threshold total-IV drop per
//	                           # scenario (default 5%)
//	ivqp-bench -timeout 10m    # abort the sweep past a wall-clock budget
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ivdss/internal/bench"
)

// options bundles the CLI knobs run consumes.
type options struct {
	Fig      string
	Quick    bool
	Seed     int64
	CSVDir   string
	Epsilon  float64
	Timeout  time.Duration
	Out      string
	Scenario string // restrict the scenario matrix to one named preset
	Profile  string // directory receiving cpu.pprof and heap.pprof
}

func main() {
	var o options
	flag.StringVar(&o.Fig, "fig", "all", "experiment to run: "+strings.Join(bench.ExperimentNames(), ", ")+", or all")
	flag.BoolVar(&o.Quick, "quick", false, "use scaled-down configurations")
	flag.Int64Var(&o.Seed, "seed", 1, "experiment seed")
	flag.StringVar(&o.CSVDir, "csv", "", "also write each result table as CSV into this directory")
	flag.Float64Var(&o.Epsilon, "epsilon", 0.25, "value-expiry threshold of the admission-control load run (0 disables shedding)")
	flag.DurationVar(&o.Timeout, "timeout", 0, "abort the sweep once this wall-clock budget is spent (0 = unlimited)")
	flag.StringVar(&o.Out, "out", "", "path for the selected experiment's JSON artifact (default <PREFIX>_<date>.json; refused when the selection writes several)")
	flag.StringVar(&o.Scenario, "scenario", "", "restrict the scenario matrix to this named preset")
	flag.StringVar(&o.Profile, "profile", "", "write cpu.pprof and heap.pprof for the run into this directory")
	compare := flag.String("compare", "", "baseline scenario-suite JSON; pass the candidate JSON as the positional argument to diff instead of running experiments")
	threshold := flag.Float64("threshold", bench.DefaultIVDropThreshold, "fractional per-scenario total-IV drop tolerated by -compare")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "ivqp-bench: -compare needs exactly one candidate JSON argument: ivqp-bench -compare baseline.json candidate.json")
			os.Exit(2)
		}
		regressed, err := runCompare(*compare, flag.Arg(0), *threshold, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ivqp-bench:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "ivqp-bench:", err)
		os.Exit(1)
	}
}

// runCompare diffs a candidate suite against a baseline and reports every
// regression; the boolean says whether the gate should fail.
func runCompare(baselinePath, candidatePath string, threshold float64, w io.Writer) (bool, error) {
	regs, err := bench.CompareSuiteFiles(baselinePath, candidatePath, threshold)
	if err != nil {
		return false, err
	}
	if len(regs) == 0 {
		fmt.Fprintf(w, "ok: no scenario lost more than %.1f%% total IV versus %s\n", threshold*100, baselinePath)
		return false, nil
	}
	fmt.Fprintf(w, "REGRESSION: %d scenario(s) exceed the %.1f%% total-IV drop threshold:\n", len(regs), threshold*100)
	for _, r := range regs {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return true, nil
}

// run sweeps the selected experiments in registry order, printing to w.
// It owns everything that is the same for every experiment: selection,
// per-figure seeding, the wall-clock budget, CSV export, artifact writing
// and gate reporting.
func run(w io.Writer, o options) error {
	start := time.Now()
	selected, err := bench.SelectExperiments(o.Fig)
	if err != nil {
		return err
	}
	if o.Out != "" {
		var writers []string
		for _, e := range selected {
			if e.Artifact != "" {
				writers = append(writers, e.Name)
			}
		}
		if len(writers) > 1 {
			return fmt.Errorf("-out names one file but -fig %s writes %d artifacts (%s): select one of them, or drop -out for the default <PREFIX>_<date>.json names",
				o.Fig, len(writers), strings.Join(writers, ", "))
		}
	}

	if o.Profile != "" {
		if err := os.MkdirAll(o.Profile, 0o755); err != nil {
			return err
		}
		cpuFile, err := os.Create(filepath.Join(o.Profile, "cpu.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			cpuFile.Close()
			heapFile, err := os.Create(filepath.Join(o.Profile, "heap.pprof"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "ivqp-bench: heap profile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(heapFile); err != nil {
				fmt.Fprintln(os.Stderr, "ivqp-bench: heap profile:", err)
			}
			heapFile.Close()
			fmt.Fprintf(w, "wrote %s and %s\n",
				filepath.Join(o.Profile, "cpu.pprof"), filepath.Join(o.Profile, "heap.pprof"))
		}()
	}
	if o.CSVDir != "" {
		if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
			return err
		}
	}

	in := bench.Input{
		Quick:    o.Quick,
		BaseSeed: o.Seed,
		Date:     time.Now().Format("2006-01-02"),
		Epsilon:  o.Epsilon,
		Scenario: o.Scenario,
	}
	ran := false
	for _, e := range selected {
		// The sweep checks the budget between experiments: a single
		// experiment is never interrupted, so results that do print are
		// always complete.
		if o.Timeout > 0 && time.Since(start) > o.Timeout {
			if !ran {
				return fmt.Errorf("wall-clock budget %v spent before any experiment could run", o.Timeout)
			}
			fmt.Fprintf(os.Stderr, "ivqp-bench: stopped after %v: wall-clock budget %v spent\n",
				time.Since(start).Round(time.Millisecond), o.Timeout)
			break
		}
		// Every figure runs on its own name-derived sub-seed, so the streams
		// one figure draws are independent of which other figures ran.
		in.Seed = bench.FigSeed(o.Seed, e.Name)
		out, err := e.Run(context.Background(), in)
		if err != nil {
			return err
		}
		ran = true
		for _, t := range out.Result.Tables() {
			fmt.Fprintln(w, t.Render())
			if o.CSVDir != "" {
				if err := writeCSV(o.CSVDir, t); err != nil {
					fmt.Fprintln(os.Stderr, "ivqp-bench: csv:", err)
				}
			}
		}
		if out.Summary != "" {
			fmt.Fprintln(w, out.Summary)
		}
		if e.Artifact != "" {
			path := o.Out
			if path == "" {
				path = fmt.Sprintf("%s_%s.json", e.Artifact, in.Date)
			}
			if err := writeArtifact(path, out.Result); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", path)
		}
		if out.Gate != nil {
			return out.Gate
		}
	}
	fmt.Fprintf(w, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeArtifact stores v as indented JSON at path, treating a close
// failure as a write error (buffered bytes may be lost).
func writeArtifact(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	writeErr := bench.WriteJSON(f, v)
	if closeErr := f.Close(); writeErr == nil {
		writeErr = closeErr
	}
	return writeErr
}

// writeCSV stores one result table as <slug>.csv in dir.
func writeCSV(dir string, t bench.Table) error {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, t.Title)
	slug = strings.Trim(strings.Join(strings.FieldsFunc(slug, func(r rune) bool { return r == '-' }), "-"), "-")
	if len(slug) > 60 {
		slug = slug[:60]
	}
	f, err := os.Create(filepath.Join(dir, slug+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	writeErr := func() error {
		if err := w.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := w.Write(row); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	}()
	// A close failure on a written file can mean lost buffered bytes, so
	// it is a write error unless one already happened.
	if closeErr := f.Close(); writeErr == nil {
		writeErr = closeErr
	}
	return writeErr
}
