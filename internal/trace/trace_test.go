package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// twoRobotSources is Algorithm 4 run by R and by R′ at speed 1/2 from
// (1, 0): the programs, the robots' frames and the column names.
func twoRobotSources() ([]trajectory.Source, []segment.Frame, []string) {
	attrs := frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW}
	return []trajectory.Source{algo.CumulativeSearch(), algo.CumulativeSearch()},
		[]segment.Frame{frame.Reference().Frame(geom.Zero), attrs.Frame(geom.V(1, 0))},
		[]string{"R", "Rp"}
}

func TestRecordBasics(t *testing.T) {
	srcs, frames, names := twoRobotSources()
	tr, err := Record(srcs, frames, names, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 21 {
		t.Fatalf("got %d samples, want 21", len(tr.Samples))
	}
	if tr.Samples[0].T != 0 || tr.Samples[len(tr.Samples)-1].T != 10 {
		t.Errorf("sample range [%v, %v], want [0, 10]",
			tr.Samples[0].T, tr.Samples[len(tr.Samples)-1].T)
	}
	// Robot R starts at the origin, R′ at (1, 0).
	if tr.Samples[0].Positions[0] != geom.Zero {
		t.Errorf("R starts at %v", tr.Samples[0].Positions[0])
	}
	if tr.Samples[0].Positions[1] != geom.V(1, 0) {
		t.Errorf("R′ starts at %v", tr.Samples[0].Positions[1])
	}
}

func TestRecordValidation(t *testing.T) {
	srcs, frames, names := twoRobotSources()
	if _, err := Record(nil, nil, nil, 10, 0.5); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := Record(srcs, frames, names[:1], 10, 0.5); err == nil {
		t.Error("mismatched names accepted")
	}
	if _, err := Record(srcs, frames, names, 0, 0.5); err == nil {
		t.Error("zero until accepted")
	}
	if _, err := Record(srcs, frames, names, 10, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Record(srcs, frames[:1], names, 10, 0.5); err == nil {
		t.Error("mismatched frames accepted")
	}
}

// TestRecordRejectsUnboundedSampling: a non-finite step or horizon, or one
// that needs more than MaxSamples samples, is refused before any sample
// storage is allocated (a NaN step once panicked in makeslice).
func TestRecordRejectsUnboundedSampling(t *testing.T) {
	srcs, frames, names := twoRobotSources()
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name        string
		until, step float64
	}{
		{"NaN step", 10, nan},
		{"NaN until", nan, 0.5},
		{"+Inf step", 10, inf},
		{"-Inf step", 10, -inf},
		{"+Inf until", inf, 0.5},
		{"-Inf until", -inf, 0.5},
		{"over the cap", 1, 1.0 / (MaxSamples + 1)},
		{"subnormal step", 10, math.SmallestNonzeroFloat64},
	}
	for _, c := range cases {
		if _, err := Record(srcs, frames, names, c.until, c.step); err == nil {
			t.Errorf("%s: accepted until %v, step %v", c.name, c.until, c.step)
		}
	}
}

func TestGap(t *testing.T) {
	srcs, frames, names := twoRobotSources()
	tr, err := Record(srcs, frames, names, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := tr.Gap(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gaps[0]-1) > 1e-12 {
		t.Errorf("initial gap %v, want 1", gaps[0])
	}
	if _, err := tr.Gap(0, 5); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	srcs, frames, names := twoRobotSources()
	tr, err := Record(srcs, frames, names, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 samples
		t.Fatalf("got %d rows, want 4", len(records))
	}
	wantHeader := []string{"t", "R_x", "R_y", "Rp_x", "Rp_y"}
	for i, h := range wantHeader {
		if records[0][i] != h {
			t.Errorf("header[%d] = %q, want %q", i, records[0][i], h)
		}
	}
	if records[1][0] != "0" || records[1][3] != "1" {
		t.Errorf("first data row wrong: %v", records[1])
	}
}
