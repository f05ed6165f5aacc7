// Package experiments regenerates every quantitative claim of the paper as
// a table: measured values from the exact simulator side by side with the
// paper's closed-form predictions. The cmd/experiments binary renders all of
// them; the goldens in testdata/ record a reference run.
//
// Execution is governed by Config: worker-pool fan-out, Monte-Carlo
// sampling, result caching, K-way sharding — and Config.Batch, which routes
// the batch-eligible sweeps (E1's direction fans, the -grid rendezvous
// sweeps and MonteCarlo) through internal/sim's SoA batch kernels so whole
// rows share one generated trajectory stream; with it off they take the
// scalar reference path. The rendered tables are byte-identical in all
// combinations, pinned by the committed goldens in testdata/.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is one experiment's output: a grid of formatted cells with header,
// provenance, and free-form notes about what the paper predicts.
type Table struct {
	ID      string // e.g. "E1"
	Title   string // short description
	Source  string // the paper item reproduced (theorem/lemma/figure)
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of cells formatted with %v / %.6g for floats.
func (t *Table) AddRow(cells ...any) {
	t.Rows = append(t.Rows, formatCells(cells))
}

// formatCells renders raw cells into the table's string form. Row-shaped
// sweep jobs format inside the job (see runRows), so the per-job record a
// distributed shard exchanges is the final cell text — strings round-trip
// through JSON exactly, where a mixed []any would not.
func formatCells(cells []any) []string {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = FormatCell(c)
	}
	return row
}

// FormatCell is the canonical user-visible cell formatter — the single
// float→string point the floatfmt analyzer enforces. Measured float64
// quantities render at %.6g; []float64 annotation lists (e.g. speed-factor
// schedules) render element-wise at exact precision inside brackets,
// byte-for-byte what %v historically produced; strings pass through; every
// other type falls back to %v.
func FormatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return fmt.Sprintf("%.6g", v)
	case []float64:
		parts := make([]string, len(v))
		for i, f := range v {
			parts[i] = FormatFloat(f)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatFloat renders a float at exact shortest round-trip precision —
// byte-for-byte what a bare %g produces. It is the canonical formatter for
// floats embedded in instance names and cache identity strings, where full
// precision (rather than the table cell's %.6g) is the contract.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n(reproduces %s)\n", t.ID, t.Title, t.Source); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintln(w, "  note: "+n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Markdown writes the table as a GitHub-flavoured markdown section.
func (t *Table) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\nReproduces: %s\n\n", t.ID, t.Title, t.Source); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| "+strings.Join(t.Columns, " | ")+" |"); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = "---"
	}
	if _, err := fmt.Fprintln(w, "| "+strings.Join(rule, " | ")+" |"); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, "| "+strings.Join(row, " | ")+" |"); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
