// Package trace samples simulated trajectories into tabular time series for
// plotting and post-hoc analysis (the figures a systems reader would want:
// robot tracks, pairwise gap over time, phase annotations). The output
// format is CSV, written with the standard library.
//
// Sampling is for *presentation only* — the simulator itself never samples;
// contact detection is exact (see internal/motion).
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// Sample is one time point: every robot's position.
type Sample struct {
	T         float64
	Positions []geom.Vec
}

// Trace is a sampled multi-robot time series.
type Trace struct {
	Names   []string
	Samples []Sample
}

// MaxSamples caps the number of samples Record takes: a step that would
// need more is refused before anything is allocated.
const MaxSamples = 1 << 22

// Record samples robots on [0, until] at the given step: robot i runs
// programs[i] under frames[i] (see trajectory.Path), and names[i] labels its
// columns. The final sample lands exactly on until. until and step must be
// positive and finite, and until/step at most MaxSamples.
func Record(programs []trajectory.Source, frames []segment.Frame, names []string, until, step float64) (*Trace, error) {
	if len(programs) == 0 || len(programs) != len(frames) || len(programs) != len(names) {
		return nil, errors.New("trace: need matching non-empty programs, frames and names")
	}
	if !(until > 0 && step > 0) || math.IsInf(until, 0) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("trace: until (%v) and step (%v) must be positive and finite", until, step)
	}
	if until/step > MaxSamples {
		return nil, fmt.Errorf("trace: until %v at step %v needs more than %d samples", until, step, MaxSamples)
	}
	paths := make([]*trajectory.Path, len(programs))
	for i, program := range programs {
		paths[i] = trajectory.NewPath(program, &frames[i])
	}
	n := int(math.Ceil(until/step)) + 1
	tr := &Trace{Names: append([]string(nil), names...), Samples: make([]Sample, 0, n)}
	for i := range n {
		t := math.Min(float64(i)*step, until)
		s := Sample{T: t, Positions: make([]geom.Vec, len(paths))}
		for j, p := range paths {
			s.Positions[j] = p.Position(t)
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr, nil
}

// Gap returns the sampled distance between robots i and j over time.
func (tr *Trace) Gap(i, j int) ([]float64, error) {
	if i < 0 || j < 0 || i >= len(tr.Names) || j >= len(tr.Names) {
		return nil, fmt.Errorf("trace: robot index out of range (%d, %d)", i, j)
	}
	gaps := make([]float64, len(tr.Samples))
	for k, s := range tr.Samples {
		gaps[k] = s.Positions[i].Dist(s.Positions[j])
	}
	return gaps, nil
}

// WriteCSV writes the trace as CSV with header
// t,<name>_x,<name>_y,... and one row per sample.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, 1+2*len(tr.Names))
	header = append(header, "t")
	for _, n := range tr.Names {
		header = append(header, n+"_x", n+"_y")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, s := range tr.Samples {
		row[0] = strconv.FormatFloat(s.T, 'g', -1, 64)
		for i, p := range s.Positions {
			row[1+2*i] = strconv.FormatFloat(p.X, 'g', -1, 64)
			row[2+2*i] = strconv.FormatFloat(p.Y, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
