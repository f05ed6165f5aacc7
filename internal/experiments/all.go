package experiments

import (
	"fmt"
	"io"

	"repro/internal/sampler"
	"repro/internal/sweep"
)

// Runner is one experiment: it produces a table under the given execution
// config or fails.
type Runner struct {
	ID  string
	Run func(Config) (Table, error)
}

// All returns every experiment in presentation order: E1-E9 reproduce the
// paper's quantitative claims; E10-E16 are extensions; A1-A3 are ablations
// of our design choices. Every experiment fans its casework out through
// internal/sweep and honours Config, so "-workers" (and RunAllCfg's shared
// pool) covers the entire suite.
func All() []Runner {
	return []Runner{
		{"E1", E1SearchScalingCfg},
		{"E2", E2DurationsCfg},
		{"E3", E3SameChiralityCfg},
		{"E4", E4OppositeChiralityCfg},
		{"E5", func(cfg Config) (Table, error) { return E5PhaseScheduleCfg(12, cfg) }},
		{"E6", E6OverlapCfg},
		{"E7", E7UniversalRoundsCfg},
		{"E8", E8FeasibilityCfg},
		{"E9", E9BaselinesCfg},
		{"E10", E10GatheringCfg},
		{"E11", E11LineVsPlaneCfg},
		{"E12", E12CoverageCfg},
		{"E13", E13CompetitiveRatioCfg},
		{"E14", E14FaultInjectionCfg},
		{"E15", E15PriceOfSymmetryCfg},
		{"E16", E16VariableSpeedCfg},
		{"A1", A1FixedStepDetectorCfg},
		{"A2", A2NoFinalWaitCfg},
		{"A3", A3NoReversePassCfg},
	}
}

// Extras returns the on-demand experiments: runnable through RunOneCfg
// ("-run CONV") but not part of All(), so RunAll output — which recorded
// goldens pin byte-for-byte — is unchanged.
func Extras() []Runner {
	return []Runner{
		{"CONV", ConvergenceCfg},
	}
}

// rowJob computes the formatted cells of one table row. Rows are
// deterministic: none reads a random draw.
type rowJob func() ([]any, error)

// runRows executes one job per prospective row through the sweep pool and
// appends the rows to t in job order, so the table is identical for every
// worker count. Cells are formatted inside the job: the sweep result is the
// final []string row, which a shard/merge exchange carries byte-exactly.
func runRows(t *Table, cfg Config, jobs []rowJob) error {
	rows, err := sweep.RunSampled(len(jobs), func(i int, _ sampler.Draws) ([]string, error) {
		cells, err := jobs[i]()
		if err != nil {
			return nil, err
		}
		return formatCells(cells), nil
	}, cfg.sweepOptions())
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, rows...)
	return nil
}

// RunAll executes every experiment with the default config and renders it
// to w in the requested format ("text" or "markdown"). A failing experiment
// means a paper claim did not reproduce.
func RunAll(w io.Writer, markdown bool) error {
	return RunAllCfg(w, markdown, Config{})
}

// RunAllCfg is RunAll under an explicit execution config. All experiments
// submit their grids to one shared worker pool, so cfg.Workers is an exact
// process-wide concurrency cap and cheap experiments overlap the long ones
// (E5/E7 no longer serialize the suite). Tables still render progressively
// in presentation order — each as soon as it and its predecessors are done
// — and are byte-identical to a sequential run at any worker count.
func RunAllCfg(w io.Writer, markdown bool, cfg Config) error {
	return runAll(w, markdown, cfg, All())
}

// runAll is RunAllCfg over an explicit runner list (tests use subsets).
func runAll(w io.Writer, markdown bool, cfg Config, runners []Runner) error {
	if cfg.Pool == nil {
		pool := sweep.NewPool(cfg.Workers)
		defer pool.Close()
		cfg.Pool = pool
	}

	type outcome struct {
		table Table
		err   error
	}
	done := make([]chan outcome, len(runners))
	for i, r := range runners {
		done[i] = make(chan outcome, 1)
		go func(i int, r Runner) {
			// Each runner numbers its own sweeps, so shard-exchange batch
			// names ("E3#0", ...) are deterministic under any scheduling.
			rcfg := cfg
			rcfg.sweepNames = &batchCounter{prefix: r.ID}
			table, err := r.Run(rcfg)
			done[i] <- outcome{table, err}
		}(i, r)
	}
	// drain waits for the still-running experiments before an early return:
	// the deferred pool.Close must not race their submissions.
	drain := func(from int) {
		for i := from; i < len(runners); i++ {
			<-done[i]
		}
	}
	for i, r := range runners {
		out := <-done[i]
		if out.err != nil {
			drain(i + 1)
			return fmt.Errorf("experiment %s: %w", r.ID, out.err)
		}
		if err := renderTable(&out.table, w, markdown); err != nil {
			drain(i + 1)
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment by ID with the default config.
func RunOne(id string, w io.Writer, markdown bool) error {
	return RunOneCfg(id, w, markdown, Config{})
}

// RunOneCfg is RunOne under an explicit execution config. It also resolves
// the on-demand Extras() experiments (e.g. CONV), which RunAll deliberately
// excludes.
func RunOneCfg(id string, w io.Writer, markdown bool, cfg Config) error {
	for _, r := range append(All(), Extras()...) {
		if r.ID != id {
			continue
		}
		cfg.sweepNames = &batchCounter{prefix: r.ID}
		table, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", r.ID, err)
		}
		return renderTable(&table, w, markdown)
	}
	return fmt.Errorf("experiments: unknown id %q", id)
}

func renderTable(t *Table, w io.Writer, markdown bool) error {
	if markdown {
		return t.Markdown(w)
	}
	return t.Render(w)
}
