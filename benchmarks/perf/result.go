package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricValue is one measured number. N is the sample count behind a
// timing or ratio (0 when the metric is a single reading).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one process's output: one workload, gated or traced.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	WarmupS   float64 `json:"warmup_s"`
	WindowS   float64 `json:"window_s"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// FirstFailure says what went wrong when Failed > 0.
	FirstFailure string                 `json:"first_failure,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	Notes        []string               `json:"notes,omitempty"`
	Env          environment            `json:"env"`
}

// environment is the provenance every result file carries.
type environment struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readEnvironment() environment {
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// gitCommit names the code under test: the VCS stamp when the binary
// carries one, else the checkout's HEAD read from .git, else "unknown"
// (the driver's checkout is not a git repository).
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	for _, root := range []string{".", "../.."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if sha, err := os.ReadFile(root + "/.git/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
			return strings.TrimSpace(string(sha))
		}
	}
	return "unknown"
}

func (r *runResult) set(name string, value float64, n int) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metricValue)
	}
	r.Metrics[name] = metricValue{Value: value, N: n}
}

// declared returns the metric definitions this kind of run must carry.
func (r *runResult) declared() []metricDef {
	if r.Trace {
		return perLayer
	}
	return gatedRunMetrics()
}

// finish stamps units and enforces output hygiene: every declared metric
// present, none undeclared, none NaN or infinite, none zero where the
// workload guarantees it is not. A field that is zero because nobody
// populated it is a bug, so it fails the run here instead of being read
// as a measurement later.
func (r *runResult) finish() error {
	defs := r.declared()
	known := make(map[string]bool, len(defs))
	var problems []string
	for _, def := range defs {
		known[def.Name] = true
		m, ok := r.Metrics[def.Name]
		switch {
		case !ok:
			problems = append(problems, def.Name+" missing")
			continue
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", def.Name, m.Value))
		case m.Value == 0 && def.mustBeNonZero(r.Workload):
			problems = append(problems, def.Name+" is zero on "+r.Workload)
		}
		m.Unit = def.Unit
		r.Metrics[def.Name] = m
	}
	for name := range r.Metrics {
		if !known[name] {
			problems = append(problems, name+" is not a declared metric")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("result hygiene: %s", strings.Join(problems, "; "))
	}
	return nil
}

// print writes the human-readable table: every metric by name with its
// unit and sample count, in declaration order.
func (r *runResult) print(w io.Writer) {
	kind := "gated"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  %s  seed %d  warm-up %.1fs  window %.2fs  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, kind, r.Seed, r.WarmupS, r.WindowS, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, def := range r.declared() {
		m := r.Metrics[def.Name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-10s %s\n", def.Name, m.Value, m.Unit, n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstFailure)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// contractLine is the driver's last-line JSON: exactly correct, attempted,
// failed and metrics, the metrics being those BENCHMARK.json declares for
// this kind of run, each with exactly value and unit.
func (r *runResult) contractLine() (string, error) {
	type cv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]cv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]cv)}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, def := range defs {
		m := r.Metrics[def.Name]
		out.Metrics[def.Name] = cv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
