package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ivdss/internal/bench"
)

// opts builds a default options value for tests; fields are overridden by
// the mutators.
func opts(mut ...func(*options)) options {
	o := options{Fig: "aging", Quick: true, Seed: 1, Epsilon: .25}
	for _, m := range mut {
		m(&o)
	}
	return o
}

func TestRunAgingQuickWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, opts(func(o *options) { o.CSVDir = dir })); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Ext(entries[0].Name()) != ".csv" {
		t.Errorf("csv dir = %v", entries)
	}
}

func TestRunLoadWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(io.Discard, opts(func(o *options) { o.Fig = "load"; o.Out = path })); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res bench.LoadResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 || res.Completed == 0 || res.Date == "" {
		t.Errorf("result incomplete: %+v", res)
	}
	if res.Completed+res.Shed != res.Queries {
		t.Errorf("completed %d + shed %d != %d", res.Completed, res.Shed, res.Queries)
	}
}

func TestRunTimeoutBudget(t *testing.T) {
	// A budget that is already spent before the first experiment: the
	// sweep refuses to start rather than running past its deadline.
	if err := run(io.Discard, opts(func(o *options) { o.Timeout = time.Nanosecond })); err == nil {
		t.Error("exhausted budget still ran an experiment")
	}
}

// runScenarioSuite runs -fig scenario into a temp artifact and parses it.
func runScenarioSuite(t *testing.T, mut ...func(*options)) (string, bench.ScenarioSuiteResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "suite.json")
	o := opts(func(o *options) { o.Fig = "scenario"; o.Out = path })
	for _, m := range mut {
		m(&o)
	}
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	suite, err := bench.ReadScenarioSuite(f)
	if err != nil {
		t.Fatal(err)
	}
	return path, suite
}

func TestRunScenarioWritesSuite(t *testing.T) {
	_, suite := runScenarioSuite(t)
	if len(suite.Scenarios) < 8 {
		t.Fatalf("suite holds %d scenarios, want the full matrix (>= 8)", len(suite.Scenarios))
	}
	if suite.Date == "" || !suite.Quick {
		t.Errorf("suite metadata incomplete: date %q quick %v", suite.Date, suite.Quick)
	}
	for _, s := range suite.Scenarios {
		if s.TotalIV <= 0 {
			t.Errorf("%s: no IV accrued", s.Name)
		}
	}
}

func TestRunScenarioSingle(t *testing.T) {
	_, suite := runScenarioSuite(t, func(o *options) { o.Scenario = "flash-zipf" })
	if len(suite.Scenarios) != 1 || suite.Scenarios[0].Name != "flash-zipf" {
		t.Fatalf("suite = %+v, want exactly flash-zipf", suite.Scenarios)
	}
	if err := run(io.Discard, opts(func(o *options) { o.Fig = "scenario"; o.Scenario = "nope" })); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestScenarioSuiteDeterministic pins the artifact the CI gate diffs:
// two runs with the same seed must produce identical scenario entries.
func TestScenarioSuiteDeterministic(t *testing.T) {
	_, a := runScenarioSuite(t)
	_, b := runScenarioSuite(t)
	if !reflect.DeepEqual(a.Scenarios, b.Scenarios) {
		t.Error("same seed produced different suite artifacts")
	}
}

func TestRunProfileWritesPprof(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	if err := run(io.Discard, opts(func(o *options) { o.Profile = dir })); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s missing: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestCompareGateEndToEnd drives the real gate over real artifacts: the
// suite compared against itself passes, and a tampered copy with one
// scenario's total IV slashed fails.
func TestCompareGateEndToEnd(t *testing.T) {
	path, suite := runScenarioSuite(t)

	var sb strings.Builder
	regressed, err := runCompare(path, path, 0.05, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("suite regressed against itself:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ok:") {
		t.Errorf("pass message missing: %q", sb.String())
	}

	// Tamper: slash one scenario's total IV by half.
	suite.Scenarios[0].TotalIV /= 2
	tampered := filepath.Join(t.TempDir(), "tampered.json")
	f, err := os.Create(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteJSON(f, suite); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	regressed, err = runCompare(path, tampered, 0.05, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("halved total IV passed the gate")
	}
	if !strings.Contains(sb.String(), suite.Scenarios[0].Name) {
		t.Errorf("regression report does not name the scenario: %q", sb.String())
	}

	// A missing artifact is an error, not a silent pass.
	if _, err := runCompare(path, filepath.Join(t.TempDir(), "absent.json"), 0.05, &sb); err == nil {
		t.Error("missing candidate artifact did not error")
	}
}

// TestFigSeedIndependence pins the shared-seed fix: every registered
// figure draws from its own name-derived sub-seed, all distinct from the
// base and from each other, and stable across calls.
func TestFigSeedIndependence(t *testing.T) {
	const base = int64(1)
	seen := map[int64]string{base: "base"}
	for _, fig := range bench.ExperimentNames() {
		s := bench.FigSeed(base, fig)
		if other, dup := seen[s]; dup {
			t.Errorf("figure %s shares seed %d with %s", fig, s, other)
		}
		seen[s] = fig
		if bench.FigSeed(base, fig) != s {
			t.Errorf("figure %s seed not stable", fig)
		}
		if bench.FigSeed(base+1, fig) == s {
			t.Errorf("figure %s seed ignores the base", fig)
		}
	}
}

// inTempDir runs the test from a scratch directory, so default-named
// artifacts (<PREFIX>_<date>.json) do not land in the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestRegistryDrivesTheCLI: the registry is the only list of experiment
// names — they are unique, each runs alone under -quick, "9" selects both
// Figure 9 panels, and an unknown name is answered with every choice.
func TestRegistryDrivesTheCLI(t *testing.T) {
	names := bench.ExperimentNames()
	if len(names) < 17 {
		t.Fatalf("registry lists %d experiments, want at least the 17 the CLI shipped with", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[strings.ToLower(name)] {
			t.Errorf("experiment name %q registered twice", name)
		}
		seen[strings.ToLower(name)] = true
	}

	nine, err := bench.SelectExperiments("9")
	if err != nil || len(nine) != 2 || nine[0].Name != "9a" || nine[1].Name != "9b" {
		t.Errorf("-fig 9 selected %v (err %v), want 9a and 9b", nine, err)
	}
	if all, err := bench.SelectExperiments("all"); err != nil || len(all) != len(names) {
		t.Errorf("-fig all selected %d of %d experiments (err %v)", len(all), len(names), err)
	}
	err = run(io.Discard, opts(func(o *options) { o.Fig = "nope" }))
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error %q does not offer %q", err, name)
		}
	}

	if testing.Short() {
		t.Skip("running every experiment alone takes ~10 s")
	}
	inTempDir(t)
	for _, name := range names {
		var out bytes.Buffer
		if err := run(&out, opts(func(o *options) { o.Fig = name })); err != nil {
			t.Errorf("-fig %s -quick: %v", name, err)
		}
		if !strings.Contains(out.String(), "total:") {
			t.Errorf("-fig %s -quick printed no tables:\n%s", name, out.String())
		}
	}
}

// TestOutRefusedForSeveralArtifacts: -out names one file, so a selection
// that writes several artifacts is refused before anything runs (it used
// to run everything and leave only the last artifact at the path), while
// a single-artifact selection still honours it.
func TestOutRefusedForSeveralArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.json")
	var out bytes.Buffer
	err := run(&out, opts(func(o *options) { o.Fig = "all"; o.Out = path }))
	if err == nil {
		t.Fatal("-fig all -out accepted")
	}
	for _, e := range bench.Experiments() {
		if e.Artifact != "" && !strings.Contains(err.Error(), e.Name) {
			t.Errorf("refusal %q does not name artifact writer %q", err, e.Name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("experiments ran before the refusal:\n%s", out.String())
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Error("refused run still wrote the -out file")
	}
	if err := run(io.Discard, opts(func(o *options) { o.Fig = "ivm"; o.Out = path })); err != nil {
		t.Fatalf("single-artifact -out refused: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("single-artifact -out not written: %v", err)
	}
}

// volatileLine matches the stdout lines that legitimately differ between
// two runs of one build: date-stamped artifact names and the elapsed total.
var volatileLine = regexp.MustCompile(`^wrote BENCH(_[A-Z]+)?_\d{4}-\d{2}-\d{2}\.json$|^total: `)

// stableLines drops the volatile lines and cuts the engine comparison's
// wall-clock throughput table down to what is deterministic: its rows keep
// their first three cells (shape, input rows, result rows); the header and
// rule go, because their widths follow the measured numbers.
func stableLines(out string) []string {
	var kept []string
	inThroughput := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case volatileLine.MatchString(line):
		case strings.HasPrefix(line, "Execution engines:"):
			inThroughput = true
			kept = append(kept, line)
		case inThroughput && line == "":
			inThroughput = false
			kept = append(kept, line)
		case inThroughput:
			if cells := strings.Fields(line); len(cells) == 6 && strings.HasSuffix(cells[5], "x") {
				kept = append(kept, strings.Join(cells[:3], " "))
			}
		default:
			kept = append(kept, line)
		}
	}
	return kept
}

// TestQuickAllGolden diffs `-fig all -quick -seed 1` against the stdout
// captured before the harness was collapsed into one registry, one replay
// and one outcome fold: every table of every experiment must keep its
// bytes. Regenerate (only for an intended result change) with
//
//	go run ./cmd/ivqp-bench -fig all -quick -seed 1 > cmd/ivqp-bench/testdata/quick_all_seed1.golden
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick sweep takes ~8 s")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "quick_all_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	inTempDir(t)
	var out bytes.Buffer
	if err := run(&out, options{Fig: "all", Quick: true, Seed: 1, Epsilon: .25}); err != nil {
		t.Fatal(err)
	}
	want, got := stableLines(string(golden)), stableLines(out.String())
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("stdout diverges from the golden at stable line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
}

func TestWriteCSVSlug(t *testing.T) {
	dir := t.TempDir()
	tbl := bench.Table{
		Title:   "Figure 5: Information Value (Fq:Fs = 1:20)!!",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
	}
	if err := writeCSV(dir, tbl); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	name := entries[0].Name()
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '.') {
			t.Errorf("slug %q contains %q", name, r)
		}
	}
}
