package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// suiteFile is what -all writes and -compare reads.
type suiteFile struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Repeat  int         `json:"repeat"`
	// Summary is, per workload and end-to-end metric, the median over the
	// repeated gated runs and their spread.
	Summary map[string]map[string]summary `json:"summary"`
	// Runs are the individual results, gated and traced, in run order.
	Runs []runResult `json:"runs"`
}

// summary condenses one metric over a workload's repeated gated runs.
// Spread is (max-min)/median, zero when there was one run: a file made
// with -repeat 1 cannot say a metric is too noisy to judge.
type summary struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// allMain runs every workload, gated (repeat times) then traced, each in
// a fresh process of this same binary, and writes the suite file.
func allMain(seed int64, seconds float64, repeat int, quick bool, out string) error {
	if out == "" {
		return fmt.Errorf("-all needs -out <file>")
	}
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suite := suiteFile{Env: readEnvironment(), Seed: seed, Seconds: seconds, Repeat: repeat,
		Summary: make(map[string]map[string]summary)}
	for _, w := range workloads() {
		var gated []runResult
		for i := 0; i <= repeat; i++ {
			traced := i == repeat // the traced run goes last
			res, err := runChild(self, w.Name, seed, seconds, traced, quick, out+".part")
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			res.print(os.Stdout)
			suite.Runs = append(suite.Runs, *res)
			if !traced {
				gated = append(gated, *res)
			}
		}
		suite.Summary[w.Name] = summarize(gated)
	}
	return writeJSON(out, suite)
}

// runChild runs one workload in a child process and reads its result back
// from a scratch file beside the suite file.
func runChild(self, workload string, seed int64, seconds float64, traced, quick bool, scratch string) (*runResult, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-json", scratch}
	if traced {
		args = append(args, "-trace", "1")
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	defer os.Remove(scratch)
	raw, err := os.ReadFile(scratch)
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func summarize(runs []runResult) map[string]summary {
	out := make(map[string]summary)
	for _, def := range gatedRunMetrics() {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[def.Name].Value)
		}
		med := median(xs)
		s := summary{Median: med, Unit: def.Unit, Runs: len(xs)}
		if len(xs) > 1 && med != 0 {
			s.Spread = (percentile(xs, 100) - percentile(xs, 0)) / math.Abs(med)
		}
		out[def.Name] = s
	}
	return out
}

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to a baseline value a and
// a candidate value b. A baseline whose own recorded spread exceeds the
// bound cannot resolve a difference of that size: unresolved, not ok.
func judge(def metricDef, a, b, spreadA float64) (delta float64, verdict string) {
	worsening := b - a
	if def.Better == "higher" {
		worsening = a - b
	}
	if def.AbsBound > 0 {
		if worsening > def.AbsBound {
			return b - a, verdictWorse
		}
		return b - a, verdictOK
	}
	if a == 0 {
		return b - a, verdictUnresolved
	}
	rel := worsening / math.Abs(a)
	switch {
	case spreadA > def.Bound:
		verdict = verdictUnresolved
	case rel > def.Bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return (b - a) / math.Abs(a), verdict
}

// compareMain prints one row per (workload, metric) and fails on any
// "worse".
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perf -compare A.json B.json")
	}
	var files [2]suiteFile
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := files[0], files[1]
	fmt.Fprintf(w, "A: %s seed %d commit %s (%d run(s) per workload)\nB: %s seed %d commit %s (%d run(s) per workload)\n",
		args[0], a.Seed, a.Env.Commit, a.Repeat, args[1], b.Seed, b.Env.Commit, b.Repeat)
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	worse := 0
	for _, wl := range workloads() {
		sa, sb := a.Summary[wl.Name], b.Summary[wl.Name]
		if sa == nil || sb == nil {
			return fmt.Errorf("workload %s missing from one of the files", wl.Name)
		}
		for _, def := range gatedRunMetrics() {
			ma, okA := sa[def.Name]
			mb, okB := sb[def.Name]
			if !okA || !okB {
				return fmt.Errorf("%s/%s missing from one of the files", wl.Name, def.Name)
			}
			delta, verdict := judge(def, ma.Median, mb.Median, ma.Spread)
			bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
			shown := fmt.Sprintf("%+.1f%%", 100*delta)
			if def.AbsBound > 0 {
				bound = fmt.Sprintf("+%g", def.AbsBound)
				shown = fmt.Sprintf("%+.4f", delta)
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %9s %8s  %s\n", wl.Name, def.Name, ma.Median, mb.Median, shown, bound, verdict)
			if verdict == verdictWorse {
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pair(s) worse than their bound", worse)
	}
	return nil
}
