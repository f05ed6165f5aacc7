// Package plot renders sampled traces as ASCII charts for terminal
// inspection: robot tracks in the plane and pairwise gap-versus-time. It is
// the terminal stand-in for the figures a plotting pipeline would produce
// from the CSV export of internal/trace.
package plot

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/trace"
)

// glyphs assigns one rune per robot track, cycling if there are many.
var glyphs = []byte{'a', 'b', 'c', 'd', 'e', 'f'}

// Tracks renders every robot's sampled track on one width×height grid.
// Earlier samples are overdrawn by later ones; each robot's starting
// position is marked with the upper-case form of its glyph.
func Tracks(tr *trace.Trace, width, height int) (string, error) {
	if err := checkGrid(width, height); err != nil {
		return "", err
	}
	if len(tr.Samples) == 0 {
		return "", errors.New("plot: empty trace")
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range tr.Samples {
		for _, p := range s.Positions {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	// Avoid a degenerate scale when all points coincide on an axis.
	if maxX-minX < 1e-12 {
		maxX, minX = maxX+0.5, minX-0.5
	}
	if maxY-minY < 1e-12 {
		maxY, minY = maxY+0.5, minY-0.5
	}

	grid := newGrid(width, height)
	cell := func(x, y float64) (int, int) {
		cx := int((x - minX) / (maxX - minX) * float64(width-1))
		cy := int((y - minY) / (maxY - minY) * float64(height-1))
		return cx, (height - 1) - cy // screen y grows downward
	}
	for _, s := range tr.Samples {
		for robot, p := range s.Positions {
			cx, cy := cell(p.X, p.Y)
			grid[cy][cx] = glyphs[robot%len(glyphs)]
		}
	}
	// Start markers drawn last so they stay visible.
	for robot, p := range tr.Samples[0].Positions {
		cx, cy := cell(p.X, p.Y)
		grid[cy][cx] = glyphs[robot%len(glyphs)] - 'a' + 'A'
	}

	var b strings.Builder
	fmt.Fprintf(&b, "tracks: x ∈ [%.3g, %.3g], y ∈ [%.3g, %.3g]", minX, maxX, minY, maxY)
	for i, name := range tr.Names {
		fmt.Fprintf(&b, "  %c=%s", glyphs[i%len(glyphs)], name)
	}
	b.WriteByte('\n')
	writeGrid(&b, grid)
	return b.String(), nil
}

// Gap renders the distance between robots i and j over time, with a
// horizontal marker row at the contact radius r (when r > 0).
func Gap(tr *trace.Trace, i, j int, width, height int, r float64) (string, error) {
	if err := checkGrid(width, height); err != nil {
		return "", err
	}
	gaps, err := tr.Gap(i, j)
	if err != nil {
		return "", err
	}
	if len(gaps) == 0 {
		return "", errors.New("plot: empty trace")
	}
	maxGap := r
	for _, g := range gaps {
		maxGap = math.Max(maxGap, g)
	}
	if maxGap == 0 {
		maxGap = 1
	}

	grid := newGrid(width, height)
	row := func(g float64) int {
		y := int(g / maxGap * float64(height-1))
		if y > height-1 {
			y = height - 1
		}
		return (height - 1) - y
	}
	if r > 0 {
		ry := row(r)
		for x := range width {
			grid[ry][x] = '-'
		}
	}
	for k, g := range gaps {
		x := k * (width - 1) / max(1, len(gaps)-1)
		grid[row(g)][x] = '*'
	}

	t0 := tr.Samples[0].T
	t1 := tr.Samples[len(tr.Samples)-1].T
	var b strings.Builder
	fmt.Fprintf(&b, "gap |%s−%s| over t ∈ [%.3g, %.3g], max %.3g, r marker at %.3g\n",
		tr.Names[i], tr.Names[j], t0, t1, maxGap, r)
	writeGrid(&b, grid)
	return b.String(), nil
}

func checkGrid(width, height int) error {
	if width < 8 || height < 4 {
		return errors.New("plot: grid must be at least 8x4")
	}
	return nil
}

func newGrid(width, height int) [][]byte {
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	return grid
}

func writeGrid(b *strings.Builder, grid [][]byte) {
	width := len(grid[0])
	border := "+" + strings.Repeat("-", width) + "+\n"
	b.WriteString(border)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString(border)
}
