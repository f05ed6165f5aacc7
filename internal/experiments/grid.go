package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/feasibility"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trajectory"
)

// gridBase is the default rendezvous instance a CLI grid sweep perturbs:
// axes override individual parameters, everything else stays at these
// values (the E3 working point with v = 1/2).
var gridBase = sim.Instance{
	Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
	D:     geom.V(1, 0),
	R:     0.25,
}

// gridAxisNames lists the axis names RunGridCfg accepts, in the order the
// parameters appear in the table.
var gridAxisNames = []string{"v", "tau", "phi", "chi", "d", "r"}

// GridAlgorithm resolves an algorithm name ("search"/"" for Algorithm 4,
// "universal" for Algorithm 7) to its cache program identity and trajectory
// generator.
func GridAlgorithm(name string) (id string, program func() trajectory.Source, err error) {
	switch name {
	case "", "search":
		return "alg4", algo.CumulativeSearch, nil
	case "universal":
		return "alg7", algo.Universal, nil
	default:
		return "", nil, fmt.Errorf("experiments: unknown grid algorithm %q (want search or universal)", name)
	}
}

// RendezvousHorizon is the default simulation horizon a grid cell (or a
// served point query) uses for an instance: four times the Theorem bound,
// falling back to 1e6 when the bound is infinite or degenerate.
func RendezvousHorizon(in sim.Instance) float64 {
	horizon := 4 * feasibility.TimeBound(in.Attrs, in.D.Norm(), in.R)
	if math.IsInf(horizon, 1) || horizon <= 0 {
		horizon = 1e6
	}
	return horizon
}

// GridInstance maps named parameter overrides onto the default rendezvous
// instance: unnamed parameters keep the gridBase working point (v = 1/2,
// τ = 1, φ = 0, χ = +1, d = (1,0), r = 1/4), named ones are overridden and
// the result validated. It is the single request→Instance mapping shared by
// the CLI's -grid sweeps and cmd/rvserved's query endpoints, so both layers
// agree on defaults and validation.
func GridInstance(names []string, point []float64) (sim.Instance, error) {
	in := gridBase
	for i, name := range names {
		x := point[i]
		switch name {
		case "v":
			in.Attrs.V = x
		case "tau":
			in.Attrs.Tau = x
		case "phi":
			in.Attrs.Phi = x
		case "chi":
			if x != 1 && x != -1 {
				return in, fmt.Errorf("chi must be +1 or -1, got %g", x)
			}
			in.Attrs.Chi = frame.Chirality(int(x))
		case "d":
			in.D = geom.V(x, 0)
		case "r":
			in.R = x
		default:
			return in, fmt.Errorf("unknown axis %q (have %s)", name, strings.Join(gridAxisNames, ", "))
		}
	}
	return in, in.Validate()
}

// GridCell is the aggregated outcome of one grid point: how many of its
// samples met, and the meeting times of those that did (in sample order).
// The serving layer summarizes Times with analysis.Summarize, exactly like
// the rendered table.
type GridCell struct {
	Point []float64 `json:"point"`
	Met   int       `json:"met"`
	Times []float64 `json:"times,omitempty"`
}

// GridResult is the structured outcome of one SweepGrid call — the single
// source both RunGridCfg's rendered table and cmd/rvserved's JSON sweep
// endpoint are built from.
type GridResult struct {
	Axes      []string   `json:"axes"`      // axis names in parameter order
	Algorithm string     `json:"algorithm"` // cache program identity ("alg4"/"alg7")
	Points    int        `json:"points"`    // grid size (cells)
	Samples   int        `json:"samples"`   // draws per point (≥ 1)
	Sampler   string     `json:"sampler"`   // draw source name ("pseudo", "sobol", ...)
	Cells     []GridCell `json:"cells"`
}

// SweepGrid runs a caller-defined rendezvous parameter sweep — the CLI's
// -grid flags and the daemon's /v1/sweep requests — through the sweep pool
// and the config's cache, returning one aggregated cell per grid point.
// Each spec is one sweep.ParseAxis axis over an instance parameter
// (v, tau, phi, chi, d, r); the grid is their cross product, evaluated under
// algoName (see GridAlgorithm).
//
// Per grid point, cfg.Samples > 0 draws that many displacement directions
// uniformly at random (keeping |d|) from the per-job RNG; otherwise the
// single deterministic instance with d on the +x axis runs.
func SweepGrid(specs []string, algoName string, cfg Config) (*GridResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: no grid axes given")
	}
	grid, err := sweep.ParseGrid(specs...)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(grid))
	for i, ax := range grid {
		names[i] = ax.Name
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("experiments: axis %q has no values", ax.Name)
		}
		// Surface a bad axis name before running anything.
		if _, err := GridInstance([]string{ax.Name}, []float64{ax.Values[0]}); err != nil {
			return nil, fmt.Errorf("experiments: axis %q: %w", ax.Name, err)
		}
	}

	programID, program, err := GridAlgorithm(algoName)
	if err != nil {
		return nil, err
	}

	samples := max(cfg.Samples, 1)
	jobs, err := grid.Jobs(samples)
	if err != nil {
		return nil, err
	}
	if cfg.sweepNames == nil {
		cfg.sweepNames = &batchCounter{prefix: "GRID"}
	}
	// Each cell's point and instance, or its error, resolved once for all
	// of its samples.
	points := make([][]float64, grid.Size())
	insts := make([]sim.Instance, len(points))
	errs := make([]error, len(points))
	for ci := range points {
		points[ci] = grid.Point(ci)
		if insts[ci], errs[ci] = GridInstance(names, points[ci]); errs[ci] != nil {
			errs[ci] = fmt.Errorf("point %v: %w", points[ci], errs[ci])
		}
	}
	// A row and a sampler block are one grid point's sample fan: each
	// cell's Monte-Carlo estimate gets its own stratified/low-discrepancy
	// draw set.
	raw, err := rendezvousSweep(cfg, jobs, samples, samples, programID, program,
		func(i int, d sampler.Draws) (sim.Instance, float64, error) {
			in := insts[i/samples]
			if err := errs[i/samples]; err != nil {
				return in, 0, err
			}
			if cfg.Samples > 0 {
				in.D = geom.Polar(in.D.Norm(), 2*math.Pi*d.Float64(0))
			}
			return in, RendezvousHorizon(in), nil
		},
		func(i int, _ sim.Instance, err error) error {
			return fmt.Errorf("point %v sample %d: %w", points[i/samples], i%samples, err)
		})
	if err != nil {
		return nil, err
	}

	out := &GridResult{Axes: names, Algorithm: programID, Points: grid.Size(), Samples: samples, Sampler: cfg.Sampler.String()}
	out.Cells = make([]GridCell, grid.Size())
	for ci, point := range points {
		times := make([]float64, 0, samples)
		for _, o := range raw[ci*samples : (ci+1)*samples] {
			if o.Met {
				times = append(times, o.Time)
			}
		}
		out.Cells[ci] = GridCell{Point: point, Met: len(times), Times: times}
	}
	return out, nil
}

// MonteCarlo is the Monte-Carlo sweep of one rendezvous instance:
// cfg.Samples variants of base under algoName (see GridAlgorithm), each
// with the orientation φ and the displacement direction (keeping |d|)
// drawn from its own per-index draws (see mcInstance), so the sweep
// reproduces exactly for a fixed seed at any worker count. The whole sweep
// is one estimate, so one sampler block spans it: a QMC kind stratifies
// the (φ, direction) draws across every sample. A horizon ≤ 0 selects
// RendezvousHorizon per sample. It returns each sample's meeting time in
// sample order, +Inf for a sample that did not meet within its horizon.
func MonteCarlo(base sim.Instance, algoName string, horizon float64, cfg Config) ([]float64, error) {
	programID, program, err := GridAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	dist := base.D.Norm()
	raw, err := rendezvousSweep(cfg, cfg.Samples, 64, cfg.Samples, programID, program,
		func(_ int, d sampler.Draws) (sim.Instance, float64, error) {
			in, h := mcInstance(base, dist, d, horizon)
			return in, h, nil
		},
		func(i int, in sim.Instance, err error) error {
			return fmt.Errorf("sample %d (φ=%.4g): %w", i, in.Attrs.Phi, err)
		})
	if err != nil {
		return nil, err
	}
	times := make([]float64, len(raw))
	for i, o := range raw {
		times[i] = math.Inf(1)
		if o.Met {
			times[i] = o.Time
		}
	}
	return times, nil
}

// mcInstance derives a Monte-Carlo sample's instance and horizon from its
// draw handle: dimension 0 is the orientation φ, dimension 1 the
// displacement direction (keeping |d| = dist). The fixed dimension order
// is what pins the default pseudo stream to the historical rng.Float64()
// call order (see TestMCInstanceDrawOrder).
func mcInstance(base sim.Instance, dist float64, d sampler.Draws, horizon float64) (sim.Instance, float64) {
	in := base
	in.Attrs.Phi = 2 * math.Pi * d.Float64(0)
	in.D = geom.Polar(dist, 2*math.Pi*d.Float64(1))
	if horizon <= 0 {
		horizon = RendezvousHorizon(in)
	}
	return in, horizon
}

// RunGridCfg runs SweepGrid and renders one table for the whole grid: the
// met fraction and analysis.Summarize statistics of the meeting times per
// point (over the samples of the point; with one sample the statistics
// collapse onto it).
func RunGridCfg(w io.Writer, markdown bool, specs []string, algoName string, cfg Config) error {
	res, err := SweepGrid(specs, algoName, cfg)
	if err != nil {
		return err
	}
	t := Table{
		ID:      "GRID",
		Title:   fmt.Sprintf("parameter sweep under %s (%d points × %d samples)", res.Algorithm, res.Points, res.Samples),
		Source:  "CLI -grid " + strings.Join(specs, " -grid "),
		Columns: append(append([]string{}, res.Axes...), "met", "T_min", "T_mean", "T_p90", "T_max"),
	}
	for _, cell := range res.Cells {
		s := analysis.Summarize(cell.Times)
		row := make([]any, 0, len(cell.Point)+5)
		for _, x := range cell.Point {
			row = append(row, x)
		}
		row = append(row, fmt.Sprintf("%d/%d", cell.Met, res.Samples))
		if len(cell.Times) == 0 {
			row = append(row, "-", "-", "-", "-")
		} else {
			row = append(row, s.Min, s.Mean, s.P90, s.Max)
		}
		t.AddRow(row...)
	}
	if cfg.Samples > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"Monte-Carlo displacement directions: %d per point, base seed %d", cfg.Samples, cfg.Seed))
		// Only a non-default sampler earns a note: the default table bytes
		// predate the sampler API and must not change.
		if cfg.Sampler != sampler.Pseudo {
			t.Notes = append(t.Notes, "Sampler: "+cfg.Sampler.String())
		}
	}
	return renderTable(&t, w, markdown)
}
