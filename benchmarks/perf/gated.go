package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

// runParams are the knobs of one run. Only seed and the window length
// come from the command line; -quick shrinks the rest for the tests.
type runParams struct {
	seed   int64
	warmup time.Duration
	window time.Duration
	// setupReps is the least number of cold set-ups per run; a set-up that
	// takes milliseconds is repeated until setupBudget of set-up time has
	// been sampled (or setupMaxReps), so its median is as steady as a slow
	// one's.
	setupReps   int
	setupBudget time.Duration
	// quick marks the -quick smoke pass: the replay walks a tenth of its
	// operations.
	quick bool
}

const setupMaxReps = 40

func defaultParams(seed int64, seconds float64) runParams {
	return runParams{
		seed:        seed,
		warmup:      time.Duration(warmupSeconds * float64(time.Second)),
		window:      time.Duration(seconds * float64(time.Second)),
		setupReps:   setupReps,
		setupBudget: 500 * time.Millisecond,
	}
}

func quickParams(seed int64) runParams {
	return runParams{seed: seed, warmup: time.Second, window: 2 * time.Second, setupReps: 1, quick: true}
}

// bench is what every run prepares before any server starts: the
// generated data, the templates and their expected answers.
type bench struct {
	w         workload
	tables    map[string]*relation.Table
	templates []template
	oracle    *oracle
}

func prepare(ctx context.Context, w workload) (*bench, error) {
	tables, err := tpch.Generate(tpch.Config{Scale: dataScale, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	templates, err := loadTemplates(w.Templates)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(ctx, templates, tables)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, tables: tables, templates: templates, oracle: orc}, nil
}

// start brings one deployment up from cold. The table copies handed to
// the remotes are made outside the timed region: set-up starts with
// tables in hand.
func (b *bench) start(relayed bool) (*deployment, time.Duration, error) {
	return startDeployment(b.w, cloneTables(b.tables), relayed)
}

// moreSetUps repeats the cold set-up after the measured deployment is gone
// and returns the extra set-up times: until p.setupReps in all, and on
// until p.setupBudget of set-up time has been sampled. They run after the
// window, not before it, so that what they leave behind (a closed
// DSSServer keeps its replicas reachable; see README, "Findings") is in
// neither the window's heap nor peak_rss_mb.
func (b *bench) moreSetUps(p runParams, first time.Duration) ([]float64, error) {
	var times []float64
	total := first
	for i := 2; i <= p.setupReps || (total < p.setupBudget && i <= setupMaxReps); i++ {
		// Every repetition starts from a collected heap, as the first did.
		debug.FreeOSMemory()
		f, took, err := b.start(false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		f.Close()
		times = append(times, took.Seconds())
		total += took
	}
	return times, nil
}

// runGated is the gated run: tracing off, end-to-end metrics only.
func runGated(ctx context.Context, w workload, p runParams) (*runResult, error) {
	b, err := prepare(ctx, w)
	if err != nil {
		return nil, err
	}
	res, first, err := b.gatedWindow(ctx, p)
	if err != nil {
		return nil, err
	}
	setups, err := b.moreSetUps(p, first)
	if err != nil {
		return nil, err
	}
	setups = append(setups, first.Seconds())
	res.set("setup_s", median(setups), len(setups))
	return res, res.finish()
}

// gatedWindow sets up once, drives the window, checks convergence and
// reads the process's peak RSS while the deployment still stands.
func (b *bench) gatedWindow(ctx context.Context, p runParams) (*runResult, time.Duration, error) {
	f, first, err := b.start(false)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	d := &driver{w: b.w, f: f, templates: b.templates, oracle: b.oracle, seed: p.seed}
	win, err := d.drive(p.warmup, p.window, b.tables[tpch.LineItem])
	if err != nil {
		return nil, 0, err
	}
	res := &runResult{Workload: b.w.Name, Seed: p.seed, WarmupS: p.warmup.Seconds(), WindowS: win.window.Seconds(), Env: readEnvironment()}
	if b.w.Writer {
		if err := d.converge(ctx, b.tables); err != nil {
			win.fail(1, err)
			win.attempted++
		}
	}
	return res, first, endToEndMetrics(res, win)
}

// endToEndMetrics turns a window into the gated metrics.
func endToEndMetrics(res *runResult, win *windowResult) error {
	if win.completed == 0 {
		return fmt.Errorf("no verified query completed in the window (first failure: %v)", win.firstErr)
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.Correct = win.failed == 0
	if win.firstErr != nil {
		res.FirstFailure = win.firstErr.Error()
	}
	done := float64(win.completed)
	ops := len(win.latMs)
	res.set("qps", done/win.window.Seconds(), win.completed)
	res.set("lat_p50_ms", percentile(win.latMs, 50), ops)
	res.set("lat_p95_ms", percentile(win.latMs, 95), ops)
	res.set("iv_loss_pct", 100*(1-win.iv/win.bv), win.attempted)
	res.set("fail_ratio", float64(win.failed)/float64(win.attempted), win.attempted)
	res.set("cpu_ms_per_query", float64(win.end.cpu-win.begin.cpu)/1e6/done, win.completed)
	res.set("allocs_per_query", float64(win.end.mallocs-win.begin.mallocs)/done, win.completed)
	res.set("alloc_kb_per_query", float64(win.end.allocated-win.begin.allocated)/1024/done, win.completed)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, 0)
	if beyond := samplesBeyond(ops, 95); beyond < 20 {
		res.Notes = append(res.Notes, fmt.Sprintf("lat_p95_ms has %d samples beyond it (n=%d); 20 is the floor the issue set", beyond, ops))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("lat_p99_ms %.4f (un-gated, n=%d, %d samples beyond)", percentile(win.latMs, 99), ops, samplesBeyond(ops, 99)))
	return nil
}
