package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// traceGoldens are the -trace instances pinned in testdata: one robot pair
// with τ ≠ 1 and χ = CW, and one with τ = 1. Their CSVs were recorded
// before trajectory.Path placed raw segments under a frame, so they pin
// that placement bit for bit.
var traceGoldens = []struct {
	file        string
	program     func() rendezvous.Trajectory
	in          rendezvous.Instance
	until, step float64
}{
	{
		file:    "trace_tau1.5_cw.csv",
		program: rendezvous.CumulativeSearch,
		in: rendezvous.Instance{
			Attrs: rendezvous.Attributes{V: 0.8, Tau: 1.5, Phi: 0.7, Chi: rendezvous.CW},
			D:     rendezvous.XY(1, 0.5), R: 0.25,
		},
		until: 60, step: 0.25,
	},
	{
		file:    "trace_tau1.csv",
		program: rendezvous.CumulativeSearch,
		in: rendezvous.Instance{
			Attrs: rendezvous.Attributes{V: 0.5, Tau: 1, Phi: 0.3, Chi: rendezvous.CCW},
			D:     rendezvous.XY(1, 0), R: 0.25,
		},
		until: 30, step: 0.2,
	},
}

// TestTraceGolden checks that -trace writes the recorded CSV byte for byte.
func TestTraceGolden(t *testing.T) {
	for _, g := range traceGoldens {
		t.Run(g.file, func(t *testing.T) {
			tr, err := recordTrace(g.program(), g.in, g.until, g.step)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "trace.csv")
			if err := writeTraceCSV(out, tr); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace differs from testdata/%s (got %d bytes, want %d)", g.file, len(got), len(want))
			}
		})
	}
}
