package bench

import (
	"context"
	"fmt"
	"strings"

	"ivdss/internal/synth"
)

// Experiment is one entry of the registry cmd/ivqp-bench sweeps: a name
// the -fig flag selects, the JSON artifact the run leaves behind (if
// any), and the run itself. Adding an experiment is adding one entry to
// Experiments; the CLI's flag help, selection, seeding, CSV export,
// artifact writing and gate reporting all follow from it.
type Experiment struct {
	Name string
	// Artifact is the file-name prefix of the machine-readable result
	// (<Artifact>_<date>.json by default); empty for table-only experiments.
	Artifact string
	Run      func(ctx context.Context, in Input) (Output, error)
}

// Input is what the sweep hands every experiment.
type Input struct {
	Quick bool
	// Seed is this experiment's own sub-stream, FigSeed(BaseSeed, Name);
	// BaseSeed is the sweep's -seed, for experiments that derive their own
	// per-scenario seeds from it.
	Seed, BaseSeed int64
	// Date stamps artifacts.
	Date string
	// Epsilon is the load experiment's value-expiry threshold; Scenario
	// restricts the scenario matrix to one named preset.
	Epsilon  float64
	Scenario string
}

// Output is one finished experiment.
type Output struct {
	// Result renders the tables and, for artifact-writing experiments, is
	// the value encoded into the artifact.
	Result interface{ Tables() []Table }
	// Summary is an optional line printed after the tables.
	Summary string
	// Gate is a CI acceptance failure: the sweep still prints and writes
	// everything the run produced, then fails with it.
	Gate error
}

// Experiments returns the registry in sweep order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "5", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultFig5Config()
			if in.Quick {
				cfg = QuickFig5Config()
			}
			cfg.Seed = in.Seed
			res, err := RunFig5(cfg)
			return Output{Result: res}, err
		}},
		{Name: "6", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultFig6Config()
			cfg.Seed = in.Seed
			res, err := RunFig6(cfg)
			return Output{Result: res}, err
		}},
		{Name: "7", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultFig7Config()
			cfg.Seed = in.Seed
			res, err := RunFig7(cfg)
			return Output{Result: res}, err
		}},
		{Name: "8", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultFig8Config()
			if in.Quick {
				cfg = QuickFig8Config()
			}
			cfg.Seed = in.Seed
			res, err := RunFig8(cfg)
			return Output{Result: res}, err
		}},
		{Name: "9a", Run: func(_ context.Context, in Input) (Output, error) {
			res, err := RunFig9a(fig9Config(in))
			return Output{Result: res}, err
		}},
		{Name: "9b", Run: func(_ context.Context, in Input) (Output, error) {
			res, err := RunFig9b(fig9Config(in))
			return Output{Result: res}, err
		}},
		{Name: "search", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultAblationSearchConfig()
			if in.Quick {
				cfg.Scenarios = 50
			}
			cfg.Seed = in.Seed
			res, err := RunAblationSearch(cfg)
			return Output{Result: res}, err
		}},
		{Name: "mqo", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultAblationMQOConfig()
			if in.Quick {
				cfg.WorkloadSize = 5
			}
			cfg.Seed = in.Seed
			res, err := RunAblationMQO(cfg)
			return Output{Result: res}, err
		}},
		{Name: "tables", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultTablesSweepConfig()
			if in.Quick {
				cfg.TableCounts = []int{10, 100}
				cfg.NQueries = 30
			}
			cfg.Seed = in.Seed
			res, err := RunTablesSweep(cfg)
			return Output{Result: res}, err
		}},
		{Name: "advisor", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultAdvisorConfig()
			if in.Quick {
				cfg.NQueries = 30
				cfg.RandomTrials = 3
			}
			cfg.Seed = in.Seed
			res, err := RunAdvisor(cfg)
			return Output{Result: res}, err
		}},
		{Name: "aging", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultAblationAgingConfig()
			if in.Quick {
				cfg.NQueries = 30
			}
			cfg.Seed = in.Seed
			res, err := RunAblationAging(cfg)
			return Output{Result: res}, err
		}},
		{Name: "sync", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultSyncConfig()
			if in.Quick {
				cfg = QuickSyncConfig()
			}
			cfg.Seed = in.Seed
			res, err := RunSync(cfg)
			return Output{Result: res}, err
		}},
		{Name: "load", Artifact: "BENCH", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultLoadConfig()
			if in.Quick {
				cfg = QuickLoadConfig()
			}
			cfg.Seed = in.Seed
			cfg.Epsilon = in.Epsilon
			res, err := RunLoad(cfg)
			res.Date = in.Date
			return Output{Result: res}, err
		}},
		{Name: "scenario", Artifact: "BENCH_SCENARIOS", Run: func(_ context.Context, in Input) (Output, error) {
			scenarios := synth.Presets()
			if in.Scenario != "" {
				sc, err := synth.Preset(in.Scenario)
				if err != nil {
					return Output{}, err
				}
				scenarios = []synth.Scenario{sc}
			}
			// The matrix derives one seed per scenario name from the base.
			suite, err := RunScenarios(scenarios, in.Quick, in.BaseSeed)
			suite.Date = in.Date
			return Output{Result: suite}, err
		}},
		{Name: "exec", Artifact: "BENCH_EXEC", Run: func(ctx context.Context, in Input) (Output, error) {
			cfg := DefaultExecConfig()
			if in.Quick {
				cfg = QuickExecConfig()
			}
			cfg.Seed = in.Seed
			res, err := RunExec(ctx, cfg)
			res.Date = in.Date
			return Output{Result: res}, err
		}},
		{Name: "ivm", Artifact: "BENCH_IVM", Run: func(_ context.Context, in Input) (Output, error) {
			cfg := DefaultIVMConfig()
			if in.Quick {
				cfg = QuickIVMConfig()
			}
			cfg.Seed = in.Seed
			res, err := RunIVM(cfg)
			res.Date = in.Date
			out := Output{Result: res}
			// The run doubles as CI's IVM gate: materialized views must not
			// lose total IV, and must strictly cut sync traffic.
			switch ro, ve := res.ReplicaOnly, res.ViewEnabled; {
			case ve.TotalIV < ro.TotalIV:
				out.Gate = fmt.Errorf("ivm gate: view-enabled total IV %.3f fell below replica-only %.3f", ve.TotalIV, ro.TotalIV)
			case ve.SyncBytes >= ro.SyncBytes:
				out.Gate = fmt.Errorf("ivm gate: view-enabled sync bytes %.0f not below replica-only %.0f", ve.SyncBytes, ro.SyncBytes)
			}
			return out, err
		}},
		{Name: "cluster", Artifact: "BENCH_CLUSTER", Run: func(_ context.Context, in Input) (Output, error) {
			res, err := RunClusterFig(in.Seed, in.Quick)
			res.Date = in.Date
			out := Output{
				Result: res,
				Summary: fmt.Sprintf("cluster gates: IV scaling 1→4 shards %.2fx (need ≥ 1.70), 1-shard twin delta %.3f%% (need ≤ 1%%)",
					res.ScalingIV14, res.TwinDeltaPct),
			}
			// The run doubles as CI's cluster gate: total IV must scale ≥1.7x
			// from 1 to 4 shards at fixed per-shard resources, and the 1-shard
			// cluster must match the standalone engine within 1%.
			switch {
			case res.ScalingIV14 < 1.7:
				out.Gate = fmt.Errorf("cluster gate: total IV scaled only %.2fx from 1 to 4 shards (need ≥ 1.7x)", res.ScalingIV14)
			case res.TwinDeltaPct > 1:
				out.Gate = fmt.Errorf("cluster gate: 1-shard cluster diverges %.2f%% from the standalone engine (need ≤ 1%%)", res.TwinDeltaPct)
			}
			return out, err
		}},
	}
}

// fig9Config is the configuration both Figure 9 panels run under.
func fig9Config(in Input) Fig9Config {
	cfg := DefaultFig9Config()
	if in.Quick {
		cfg = QuickFig9Config()
	}
	cfg.Seed = in.Seed
	return cfg
}

// ExperimentNames lists the registered names in sweep order.
func ExperimentNames() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// SelectExperiments resolves a -fig value: "all" is the whole registry,
// a registered name (case-insensitive) is that experiment, and "9" is both
// Figure 9 panels. An unknown value is an error naming every choice.
func SelectExperiments(fig string) ([]Experiment, error) {
	var picked []Experiment
	for _, e := range Experiments() {
		if fig == "all" || strings.EqualFold(fig, e.Name) || fig == "9" && strings.HasPrefix(e.Name, "9") {
			picked = append(picked, e)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s, or all)", fig, strings.Join(ExperimentNames(), ", "))
	}
	return picked, nil
}
